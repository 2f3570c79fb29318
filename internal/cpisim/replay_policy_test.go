package cpisim

import (
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

// TestReplayPolicyConfigs extends the live-vs-replay differential to FIFO
// and Tree-PLRU ladders: non-LRU configurations never lane-pack, so the
// compiled plans stream their probes through the general policy kernels,
// and results, published counters, and bank statistics must stay
// bit-identical to a live pass.
func TestReplayPolicyConfigs(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	_, tr := captureTrace(t, Config{Quantum: 1_000}, ws, insts)

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
