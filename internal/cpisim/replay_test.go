package cpisim

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/obs"
	"pipecache/internal/trace"
)

// replayWorkloads builds a two-benchmark multiprogrammed set so replay
// exercises the round-robin re-interleaving, not just a single stream.
func replayWorkloads(t *testing.T) []Workload {
	t.Helper()
	p1 := tinyLoop(t, 0.9)
	p2 := tinyLoop(t, 0.3)
	p2.Name = "tiny2"
	return []Workload{
		{Prog: p1, Seed: 9, Weight: 0.5},
		{Prog: p2, Seed: 77, Weight: 0.5},
	}
}

// packedLadder is a small all-direct-mapped ladder mixing write policies:
// it lane-packs into two groups, the shape the ablation sweeps replay
// through the compiled plans' full bank kernels.
func packedLadder() []cache.Config {
	return []cache.Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 2, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: false},
	}
}

// writeThroughLadder is a direct-mapped write-through ladder: its write
// misses do not allocate, so the D probes' store flags must reach the bank.
func writeThroughLadder() []cache.Config {
	return []cache.Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: false},
		{SizeKW: 2, BlockWords: 4, Assoc: 1, WriteBack: false},
		{SizeKW: 4, BlockWords: 4, Assoc: 1, WriteBack: false},
	}
}

// bankStats collects every configuration's folded statistics, so tests
// can pin bank state, not just the per-benchmark counters.
func bankStats(b *cache.Bank, n int) []cache.Stats {
	if b == nil {
		return nil
	}
	sts := make([]cache.Stats, n)
	for i := range sts {
		sts[i] = b.Stats(i)
	}
	return sts
}

// captureTrace runs one live pass of cfg with a recorder teed in and
// returns both the live result and the captured trace.
func captureTrace(t *testing.T, cfg Config, ws []Workload, insts int64) (*Result, *trace.EventTrace) {
	t.Helper()
	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder("test", insts)
	sim.SetCapture(rec)
	res, err := sim.Run(insts)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec.Finish()
}

// checkLiveAndReplay is the replay oracle check: cfg runs live — the
// interpreter driving the generic per-event handlers — and replayed from
// tr, and the two passes must agree bit for bit on the Result, the
// published counters, and every configuration's bank statistics.
func checkLiveAndReplay(t *testing.T, cfg Config, ws []Workload, insts int64, tr *trace.EventTrace) {
	t.Helper()
	pass := func(run func(*Sim) (*Result, error)) (*Sim, *Result, map[string]int64) {
		sim, err := New(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		sim.SetObs(reg)
		res, err := run(sim)
		if err != nil {
			t.Fatal(err)
		}
		return sim, res, reg.Snapshot().Counters
	}
	liveSim, live, liveC := pass(func(s *Sim) (*Result, error) { return s.Run(insts) })
	replaySim, replay, replayC := pass(func(s *Sim) (*Result, error) { return s.Replay(insts, tr) })
	if !reflect.DeepEqual(live, replay) {
		t.Errorf("replayed result differs from live:\n live:   %+v\n replay: %+v", live, replay)
	}
	if !reflect.DeepEqual(liveC, replayC) {
		t.Errorf("published counters differ:\n live:   %v\n replay: %v", liveC, replayC)
	}
	if got, want := bankStats(replaySim.ibank, len(cfg.ICaches)), bankStats(liveSim.ibank, len(cfg.ICaches)); !reflect.DeepEqual(got, want) {
		t.Errorf("I-bank stats differ:\n live:   %+v\n replay: %+v", want, got)
	}
	if got, want := bankStats(replaySim.dbank, len(cfg.DCaches)), bankStats(liveSim.dbank, len(cfg.DCaches)); !reflect.DeepEqual(got, want) {
		t.Errorf("D-bank stats differ:\n live:   %+v\n replay: %+v", want, got)
	}
}

// TestReplayBitIdentical is the core differential guarantee: a replayed
// pass produces a bit-identical Result and identical published counters to
// a live run of the same configuration — across branch schemes, delay
// depths, cache geometries, and even a quantum different from the
// capturing pass's. The configurations cover both replay paths: compiled
// chunk plans probing single-configuration banks, packed ladders, and
// mixed packed/set-associative ladders, and the generic dispatch the BTB
// scheme takes.
func TestReplayBitIdentical(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 30_000

	captureCfg := Config{
		BranchSlots: 1,
		ICaches:     []cache.Config{icfg()},
		DCaches:     []cache.Config{icfg()},
		Quantum:     20_000,
	}
	liveCapture, tr := captureTrace(t, captureCfg, ws, insts)

	big := cache.Config{SizeKW: 8, BlockWords: 8, Assoc: 2, WriteBack: false}
	cfgs := map[string]Config{
		"same-as-capture": captureCfg,
		"deeper-slots": {BranchSlots: 3, LoadSlots: 2,
			ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 20_000},
		"btb-scheme": {BranchScheme: BranchBTB,
			ICaches: []cache.Config{icfg(), big}, DCaches: []cache.Config{icfg(), big}, Quantum: 20_000},
		"different-quantum": {BranchSlots: 2,
			ICaches: []cache.Config{big}, DCaches: []cache.Config{big}, Quantum: 7_000},
		"dynamic-loads": {LoadSlots: 2, LoadScheme: LoadDynamic,
			DCaches: []cache.Config{icfg()}, Quantum: 20_000},
		"packed-ladder": {BranchSlots: 2, LoadSlots: 1,
			ICaches: packedLadder(), DCaches: packedLadder(), Quantum: 1_000},
		"mixed-ladder": {BranchSlots: 2,
			ICaches: append(packedLadder(), big), DCaches: append(packedLadder(), big), Quantum: 3_000},
		"icache-only": {BranchSlots: 2,
			ICaches: packedLadder(), Quantum: 1_000},
		// The plans probe the D bank from the delivered columns; a small
		// quantum delivers chunks in pieces, each its own plan.
		"dcache-only-write-through": {BranchSlots: 1, LoadSlots: 1,
			DCaches: writeThroughLadder(), Quantum: 1_000},
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			checkLiveAndReplay(t, cfg, ws, insts, tr)
		})
	}

	// The capturing pass itself (recorder teed in) must match a plain live
	// run too: the tee is observationally transparent.
	plain, err := New(captureCfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := plain.Run(insts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainRes, liveCapture) {
		t.Error("capturing pass's result differs from an untapped live run")
	}
}

// TestReplaySingleBench covers the lone-workload schedule: replay
// delivers the whole stream as one turn whatever the quantum, which must
// still agree bit for bit with the per-quantum live pass.
func TestReplaySingleBench(t *testing.T) {
	ws := replayWorkloads(t)[:1]
	const insts = 10_000
	_, tr := captureTrace(t, Config{Quantum: 900}, ws, insts)
	checkLiveAndReplay(t, Config{BranchSlots: 2, LoadSlots: 2,
		ICaches: packedLadder(), DCaches: packedLadder(), Quantum: 900}, ws, insts, tr)
}

// replayWith runs cfg over tr, through Replay when workers is 0 and
// through ReplaySharded otherwise, and returns the Result with the
// I- and D-bank statistics.
func replayWith(t *testing.T, cfg Config, ws []Workload, insts int64, tr *trace.EventTrace, workers int) (*Result, []cache.Stats, []cache.Stats) {
	t.Helper()
	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	var res *Result
	if workers == 0 {
		res, err = sim.Replay(insts, tr)
	} else {
		res, err = sim.ReplaySharded(insts, tr, workers)
	}
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return res, bankStats(sim.ibank, len(cfg.ICaches)), bankStats(sim.dbank, len(cfg.DCaches))
}

// TestShardedReplayWorkers pins ReplaySharded to Replay: the worker count
// no longer changes how a pass runs, and every count must produce the
// sequential replay's Result and bank statistics.
func TestShardedReplayWorkers(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 12_000
	cfgs := map[string]Config{
		"ladder": {BranchSlots: 2, LoadSlots: 1,
			ICaches: packedLadder(), DCaches: packedLadder(), Quantum: 1_000},
		"single-config": {BranchSlots: 1,
			ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 1_000},
		"icache-only": {BranchSlots: 2,
			ICaches: packedLadder(), Quantum: 1_000},
	}
	_, tr := captureTrace(t, Config{Quantum: 1_000}, ws, insts)

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			want, wantI, wantD := replayWith(t, cfg, ws, insts, tr, 0)
			for _, workers := range []int{1, 2, 64} {
				got, gotI, gotD := replayWith(t, cfg, ws, insts, tr, workers)
				if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotI, wantI) || !reflect.DeepEqual(gotD, wantD) {
					t.Errorf("workers=%d: result or bank stats differ from Replay", workers)
				}
			}
		})
	}
}

// TestShardedReplayGateFallback: configurations that never lane-pack
// (set-associative banks, the BTB scheme) take the generic replay path,
// and ReplaySharded must still agree with Replay and with a live pass.
func TestShardedReplayGateFallback(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	assoc := cache.Config{SizeKW: 2, BlockWords: 4, Assoc: 2, WriteBack: true}
	cfgs := map[string]Config{
		"set-associative": {BranchSlots: 1,
			ICaches: []cache.Config{icfg(), assoc}, DCaches: []cache.Config{icfg()}, Quantum: 2_000},
		"btb": {BranchScheme: BranchBTB,
			ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 2_000},
	}
	_, tr := captureTrace(t, Config{Quantum: 2_000}, ws, insts)

	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			checkLiveAndReplay(t, cfg, ws, insts, tr)
			want, wantI, wantD := replayWith(t, cfg, ws, insts, tr, 0)
			got, gotI, gotD := replayWith(t, cfg, ws, insts, tr, 4)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotI, wantI) || !reflect.DeepEqual(gotD, wantD) {
				t.Error("ReplaySharded result or bank stats differ from Replay")
			}
		})
	}
}

// TestReplayValidation: mismatched budgets, workloads, or seeds must be
// rejected before any state is driven.
func TestReplayValidation(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 10_000
	cfg := Config{ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{icfg()}, Quantum: 5_000}
	_, tr := captureTrace(t, cfg, ws, insts)

	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Replay(insts+1, tr); err == nil {
		t.Error("budget mismatch accepted")
	}
	if _, err := sim.Replay(insts, nil); err == nil {
		t.Error("nil trace accepted")
	}

	short, err := New(cfg, ws[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := short.Replay(insts, tr); err == nil {
		t.Error("workload-count mismatch accepted")
	}

	wsWrongSeed := replayWorkloads(t)
	wsWrongSeed[1].Seed++
	wrong, err := New(cfg, wsWrongSeed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrong.Replay(insts, tr); err == nil {
		t.Error("seed mismatch accepted")
	}
}

// TestReplayAfterInPlaceEdit pins the block table to the program memo: a
// pass builds the table the compiled plans decode against, then a block
// grows in place and Program.Invalidate drops every derived artifact. A
// trace captured from the edited program must replay bit-identically to a
// live run, so the next simulator may not decode against the stale table.
func TestReplayAfterInPlaceEdit(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	cfg := Config{BranchSlots: 1, ICaches: packedLadder(), DCaches: []cache.Config{icfg()}, Quantum: 1_000}
	_, before := captureTrace(t, cfg, ws, insts)
	checkLiveAndReplay(t, cfg, ws, insts, before)

	p := ws[0].Prog
	b0 := p.Blocks[0]
	b0.Insts = append(b0.Insts[:1:1], b0.Insts...)
	if err := p.Layout(); err != nil {
		t.Fatal(err)
	}
	p.Invalidate()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}

	_, after := captureTrace(t, cfg, ws, insts)
	checkLiveAndReplay(t, cfg, ws, insts, after)
}

// TestStoreEvictDuringReplay evicts a trace from an EventStore while
// replays still hold it: a trace is an ordinary garbage-collected value,
// so the replay racing the eviction, and one started after it and a
// collection, must match the pre-eviction replay bit for bit, and the
// store must stay intact.
func TestStoreEvictDuringReplay(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 8_000
	cfg := Config{BranchSlots: 2, ICaches: packedLadder(), DCaches: policyLadder(cache.PolicyTreePLRU), Quantum: 1_000}
	_, captured := captureTrace(t, cfg, ws, insts)
	_, other := captureTrace(t, cfg, ws, insts)

	ctx := context.Background()
	store := trace.NewStore(captured.Bytes()) // room for one trace
	commit := func(key string, tr *trace.EventTrace) {
		t.Helper()
		_, tok, err := store.Acquire(ctx, key)
		if err != nil || tok == nil {
			t.Fatalf("acquire %s: tok=%v err=%v", key, tok, err)
		}
		tok.Commit(tr)
	}
	commit("a", captured)
	held, _, err := store.Acquire(ctx, "a")
	if err != nil || held == nil {
		t.Fatalf("resident acquire: tr=%v err=%v", held, err)
	}

	type pass struct {
		res  *Result
		i, d []cache.Stats
		err  error
	}
	replay := func() pass {
		sim, err := New(cfg, ws)
		if err != nil {
			return pass{err: err}
		}
		res, err := sim.Replay(insts, held)
		return pass{res, bankStats(sim.ibank, len(cfg.ICaches)), bankStats(sim.dbank, len(cfg.DCaches)), err}
	}
	want := replay()
	if want.err != nil {
		t.Fatal(want.err)
	}

	racing := make(chan pass)
	go func() { racing <- replay() }()
	commit("b", other) // evicts "a"
	got := []pass{<-racing}
	if store.Entries() != 1 {
		t.Fatalf("%d resident traces, want 1", store.Entries())
	}
	if tr, tok, _ := store.Acquire(ctx, "a"); tr != nil || tok == nil {
		t.Fatal("evicted trace still resident")
	} else {
		tok.Abort()
	}
	runtime.GC()
	got = append(got, replay())

	for i, g := range got {
		if g.err != nil {
			t.Fatalf("replay %d: %v", i, g.err)
		}
		if !reflect.DeepEqual(g, want) {
			t.Errorf("replay %d after eviction differs:\n before: %+v\n after:  %+v", i, want, g)
		}
	}
	if err := store.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
