package cpisim

import (
	"strings"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/obs"
)

// policyLadder is a small mixed ladder under one replacement policy.
func policyLadder(pol cache.Policy) []cache.Config {
	return []cache.Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true, Policy: pol},
		{SizeKW: 2, BlockWords: 4, Assoc: 2, WriteBack: true, Policy: pol},
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: false, Policy: pol},
	}
}

// TestReplayAfterReleaseRejected is the plan-lifetime regression: compiled
// replay plans key on column slices whose backing chunks recycle to the
// mempool at the trace's final Release, so replaying a released trace
// must fail cleanly instead of delivering plans against recycled memory.
func TestReplayAfterReleaseRejected(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	cfg := Config{ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 2_000}
	_, tr := captureTrace(t, cfg, ws, insts)

	// A live trace replays fine (and compiles plans onto its Aux cache).
	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Replay(insts, tr); err != nil {
		t.Fatal(err)
	}

	// An extra Retain/Release pair keeps it live: replay must still work.
	tr.Retain()
	tr.Release()
	sim2, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim2.Replay(insts, tr); err != nil {
		t.Fatalf("replay of a retained trace failed: %v", err)
	}

	// The final Release recycles the chunks; both replay entry points must
	// reject the dead trace before touching them.
	tr.Release()
	if tr.Refs() != 0 {
		t.Fatalf("refs = %d after final release", tr.Refs())
	}
	fresh, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fresh.Replay(insts, tr)
	if err == nil {
		t.Fatal("sequential replay accepted a released trace")
	}
	if !strings.Contains(err.Error(), "released") {
		t.Errorf("unhelpful error: %v", err)
	}
	fresh2, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh2.ReplaySharded(insts, tr, 4); err == nil {
		t.Fatal("ReplaySharded accepted a released trace")
	}
}

// TestReplayPolicyConfigs extends the live-vs-replay differential to FIFO
// and Tree-PLRU ladders: non-LRU configurations never lane-pack, so the
// compiled plans stream their probes through the general policy kernels,
// and results, published counters, and bank statistics must stay
// bit-identical to a live pass.
func TestReplayPolicyConfigs(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	_, tr := captureTrace(t, Config{Quantum: 1_000}, ws, insts)
	defer tr.Release()

	for _, pol := range []cache.Policy{cache.PolicyFIFO, cache.PolicyTreePLRU} {
		t.Run(pol.String(), func(t *testing.T) {
			cfg := Config{BranchSlots: 2, LoadSlots: 1,
				ICaches: policyLadder(pol), DCaches: policyLadder(pol), Quantum: 1_000}
			checkLiveAndReplay(t, cfg, ws, insts, tr)
		})
	}
}

// TestReplayLastBlockTable runs write-back 4-way ladders, whose banks
// answer re-read blocks from the last-block table, live and replayed under
// every policy: both passes must agree bit for bit, and the table's
// answers must show in the published cache.l1i.filtered and
// cache.l1d.filtered counters.
func TestReplayLastBlockTable(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	_, tr := captureTrace(t, Config{Quantum: 1_000}, ws, insts)
	defer tr.Release()

	for _, pol := range []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyTreePLRU} {
		t.Run(pol.String(), func(t *testing.T) {
			var ladder []cache.Config
			for _, s := range []int{1, 2, 4} {
				ladder = append(ladder, cache.Config{SizeKW: s, BlockWords: 4, Assoc: 4, WriteBack: true, Policy: pol})
			}
			cfg := Config{BranchSlots: 2, LoadSlots: 1, ICaches: ladder, DCaches: ladder, Quantum: 1_000}
			checkLiveAndReplay(t, cfg, ws, insts, tr)

			sim, err := New(cfg, ws)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			sim.SetObs(reg)
			if _, err := sim.Replay(insts, tr); err != nil {
				t.Fatal(err)
			}
			c := reg.Snapshot().Counters
			for _, name := range []string{"cache.l1i.filtered", "cache.l1d.filtered"} {
				if c[name] <= 0 {
					t.Errorf("%s = %d, want the table to answer some reads", name, c[name])
				}
			}
		})
	}
}
