package core

import (
	"context"
	"reflect"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
	"pipecache/internal/sched"
)

// TestSplitPassMatchesFused pins the split pass (runSplit: an instruction
// job plus a memoized data job) to one fused simulation of the same
// configuration, replayed from the lab's own capture: the whole Result —
// configuration, every counter, the miss arrays of both ladders and the
// epsilon histograms — must be identical. The cases share data jobs the
// way the studies do (the static depths, the BTB and the profiled pass
// all read one D ladder) and open new ones (set-associative policies, a
// write-through D ladder, a second quantum over the same ladder, which a
// key without the quantum would wrongly share). A two-level pass must not
// split, and a fresh lab's Prewarm runs exactly one data job.
func TestSplitPassMatchesFused(t *testing.T) {
	lab, reg := diffLab(t, 0, 2)
	ctx := context.Background()
	tr, err := lab.Capture(ctx)
	if err != nil {
		t.Fatal(err)
	}

	dm := lab.cacheBank(cache.PolicyLRU)
	assoc := func(pol cache.Policy) []cache.Config {
		var bank []cache.Config
		for _, s := range lab.P.SizesKW {
			bank = append(bank, cache.Config{SizeKW: s, BlockWords: lab.P.BlockWords, Assoc: 4, WriteBack: true, Policy: pol})
		}
		return bank
	}
	writeThrough := make([]cache.Config, len(dm))
	for i, c := range dm {
		c.WriteBack = false
		writeThrough[i] = c
	}
	profiled := lab.workloads()
	for i := range profiled {
		prof, err := sched.CollectProfile(profiled[i].Prog, profiled[i].Seed^0xBEEF, lab.P.Insts/2)
		if err != nil {
			t.Fatal(err)
		}
		profiled[i].Profile = prof
	}
	q := lab.P.Quantum

	cases := []struct {
		name string
		cfg  cpisim.Config
		ws   []cpisim.Workload
	}{
		{"static b=0", cpisim.Config{BranchSlots: 0, ICaches: dm, DCaches: dm, Quantum: q}, nil},
		{"static b=1", cpisim.Config{BranchSlots: 1, ICaches: dm, DCaches: dm, Quantum: q}, nil},
		{"static b=2", cpisim.Config{BranchSlots: 2, ICaches: dm, DCaches: dm, Quantum: q}, nil},
		{"static b=3", cpisim.Config{BranchSlots: 3, ICaches: dm, DCaches: dm, Quantum: q}, nil},
		{"btb", cpisim.Config{BranchScheme: cpisim.BranchBTB, BranchSlots: 2, ICaches: dm, DCaches: dm, Quantum: q}, nil},
		{"profiled b=2", cpisim.Config{BranchSlots: 2, ICaches: dm, DCaches: dm, Quantum: q}, profiled},
		{"lru 4-way", cpisim.Config{BranchSlots: 1, ICaches: assoc(cache.PolicyLRU), DCaches: assoc(cache.PolicyLRU), Quantum: q}, nil},
		{"fifo 4-way", cpisim.Config{BranchSlots: 1, ICaches: assoc(cache.PolicyFIFO), DCaches: assoc(cache.PolicyFIFO), Quantum: q}, nil},
		{"plru 4-way", cpisim.Config{BranchSlots: 3, ICaches: assoc(cache.PolicyTreePLRU), DCaches: assoc(cache.PolicyTreePLRU), Quantum: q}, nil},
		{"write-through", cpisim.Config{BranchSlots: 2, LoadSlots: 2, ICaches: dm, DCaches: writeThrough, Quantum: q}, nil},
		{"quantum 20000", cpisim.Config{BranchSlots: 2, ICaches: dm, DCaches: dm, Quantum: 20_000}, nil},
		{"quantum 5000", cpisim.Config{BranchSlots: 2, ICaches: dm, DCaches: dm, Quantum: 5_000}, nil},
	}
	for _, c := range cases {
		ws := c.ws
		if ws == nil {
			ws = lab.workloads()
		}
		got, err := lab.runWorkloads(ctx, c.cfg, ws, "lab.adhoc_passes_run")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sim, err := cpisim.New(c.cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Replay(lab.P.Insts, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the split pass differs from the fused pass", c.name)
		}
	}
	// Static b=0-3, BTB, profiled and quantum 20000 share one data job.
	counters := func() (passes, hits int64) {
		c := reg.Snapshot().Counters
		return c["lab.data_passes"], c["lab.data_memo_hits"]
	}
	passes, hits := counters()
	if passes != 6 || hits != 6 {
		t.Errorf("lab.data_passes %d, lab.data_memo_hits %d, want 6, 6", passes, hits)
	}

	l2 := cpisim.Config{BranchSlots: 1, ICaches: dm[:1], DCaches: dm[:1], Quantum: q,
		L2: cpisim.L2Config{Caches: []cache.Config{{SizeKW: 64, BlockWords: 16, Assoc: 2, WriteBack: true}}}}
	got, err := lab.RunPass(ctx, l2)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := cpisim.New(l2, lab.workloads())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.Replay(lab.P.Insts, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("two-level pass differs from the fused pass")
	}
	if p, h := counters(); p != passes || h != hits {
		t.Errorf("two-level pass split: lab.data_passes %d -> %d, lab.data_memo_hits %d -> %d", passes, p, hits, h)
	}

	fresh, freshReg := diffLab(t, 0, 2)
	if err := fresh.Prewarm(); err != nil {
		t.Fatal(err)
	}
	c := freshReg.Snapshot().Counters
	if c["lab.data_passes"] != 1 || c["lab.data_memo_hits"] != 4 || c["lab.passes_run"] != 5 {
		t.Errorf("Prewarm: lab.data_passes %d, lab.data_memo_hits %d, lab.passes_run %d, want 1, 4, 5",
			c["lab.data_passes"], c["lab.data_memo_hits"], c["lab.passes_run"])
	}
}
