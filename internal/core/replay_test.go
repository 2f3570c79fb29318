package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
	"pipecache/internal/gen"
	"pipecache/internal/obs"
)

// diffLab builds an independent lab over a small sub-suite so the
// differential runs stay fast. budget < 0 disables the replay tier.
func diffLab(t *testing.T, budget int64, workers int) (*Lab, *obs.Registry) {
	t.Helper()
	var specs []gen.Spec
	for _, name := range []string{"gcc", "loops"} {
		s, ok := gen.LookupSpec(name)
		if !ok {
			t.Fatalf("spec %s missing", name)
		}
		specs = append(specs, s)
	}
	suite, err := BuildSuite(specs)
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Insts = 50_000
	p.SweepWorkers = workers
	p.TraceBudgetBytes = budget
	lab, err := NewLab(suite, p)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	lab.SetObs(reg)
	return lab, reg
}

// ablationResults is the full ablation cross-product: every study in
// ablations.go plus the memoized standard passes they build on.
type ablationResults struct {
	Assoc     *AssocStudyResult
	Block     *BlockSizeStudyResult
	TwoLevel  *TwoLevelStudyResult
	Write     *WritePolicyStudyResult
	BTB       *BTBSizeStudyResult
	Profile   *ProfileStudyResult
	Quantum   *QuantumStudyResult
	Stability *StabilityStudyResult
}

func runAblations(t *testing.T, l *Lab) *ablationResults {
	t.Helper()
	if err := l.Prewarm(); err != nil {
		t.Fatal(err)
	}
	r := &ablationResults{}
	var err error
	if r.Assoc, err = l.AssocStudy(4); err != nil {
		t.Fatal(err)
	}
	if r.Block, err = l.BlockSizeStudy(4); err != nil {
		t.Fatal(err)
	}
	if r.TwoLevel, err = l.TwoLevelStudy(4, []int{32, 128}, 6, 40); err != nil {
		t.Fatal(err)
	}
	if r.Write, err = l.WritePolicyStudy(10); err != nil {
		t.Fatal(err)
	}
	if r.BTB, err = l.BTBSizeStudy([]int{64, 256}); err != nil {
		t.Fatal(err)
	}
	if r.Profile, err = l.ProfileStudy(); err != nil {
		t.Fatal(err)
	}
	if r.Quantum, err = l.QuantumStudy(4, 10, []int64{5_000, 20_000}); err != nil {
		t.Fatal(err)
	}
	if r.Stability, err = l.StabilityStudy([]uint64{0, 0x1111}); err != nil {
		t.Fatal(err)
	}
	return r
}

// simCounters filters a counter snapshot down to the metrics published by
// the simulation passes themselves. The lab.* and trace.store.* accounting
// legitimately differs between a live-only and a replay-enabled lab; the
// sim-level counters must not.
func simCounters(m map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, v := range m {
		for _, p := range []string{"sim.", "cache.", "interp.", "sched.", "btb"} {
			if strings.HasPrefix(name, p) {
				out[name] = v
				break
			}
		}
	}
	return out
}

// TestReplayTierDifferential is the end-to-end differential guarantee of
// the event-trace tier: the full ablation cross-product on a replay-enabled
// lab is bit-identical — study results and sim-level obs counters — to the
// same suite evaluated with the tier disabled, at more than one worker-pool
// width. It also proves the tier actually engaged (passes replayed, store
// hits observed) and stayed within its byte budget.
func TestReplayTierDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ablation cross-product four times; skipped with -short")
	}
	var prev *ablationResults
	for _, workers := range []int{1, 3} {
		liveLab, liveReg := diffLab(t, -1, workers)
		replayLab, replayReg := diffLab(t, 0, workers)

		liveRes := runAblations(t, liveLab)
		replayRes := runAblations(t, replayLab)

		if !reflect.DeepEqual(liveRes, replayRes) {
			t.Errorf("workers=%d: replayed ablation results differ from live", workers)
		}
		liveC := simCounters(liveReg.Snapshot().Counters)
		replayC := simCounters(replayReg.Snapshot().Counters)
		if !reflect.DeepEqual(liveC, replayC) {
			t.Errorf("workers=%d: sim counters differ:\n live:   %v\n replay: %v", workers, liveC, replayC)
		}

		// The tier must actually have engaged, not silently fallen back.
		rc := replayReg.Snapshot().Counters
		if rc["lab.pass_replays"] == 0 {
			t.Errorf("workers=%d: no passes replayed", workers)
		}
		if rc["lab.replay_fallbacks"] != 0 {
			t.Errorf("workers=%d: %d replay fallbacks", workers, rc["lab.replay_fallbacks"])
		}
		if rc["trace.store.hits"] == 0 {
			t.Errorf("workers=%d: no trace store hits", workers)
		}
		st := replayLab.TraceStore()
		if st.Bytes() > st.Budget() {
			t.Errorf("workers=%d: store %d bytes over budget %d", workers, st.Bytes(), st.Budget())
		}
		if liveLab.TraceStore() != nil {
			t.Error("negative budget did not disable the tier")
		}

		// Worker-pool width must not be observable either.
		if prev != nil && !reflect.DeepEqual(prev, replayRes) {
			t.Errorf("results differ between worker counts")
		}
		prev = replayRes
	}
}

// TestReplayTierOversizeFallback: a budget too small for any capture must
// tombstone every key and run live — correct results, empty store.
func TestReplayTierOversizeFallback(t *testing.T) {
	liveLab, _ := diffLab(t, -1, 1)
	tinyLab, tinyReg := diffLab(t, 1, 1) // 1-byte budget: everything is oversize

	live, err := liveLab.StaticPass(context.Background(), 1, liveLab.P.Policy)
	if err != nil {
		t.Fatal(err)
	}
	first, err := tinyLab.StaticPass(context.Background(), 1, tinyLab.P.Policy)
	if err != nil {
		t.Fatal(err)
	}
	// Force a second, uncached pass over the same workloads so the
	// tombstone path (live fallback without capture) is exercised too.
	second, err := tinyLab.RunPass(context.Background(), cpisim.Config{
		BranchSlots: 1,
		ICaches:     tinyLab.cacheBank(tinyLab.P.Policy),
		DCaches:     tinyLab.cacheBank(tinyLab.P.Policy),
		Quantum:     tinyLab.P.Quantum,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Benches, first.Benches) || !reflect.DeepEqual(live.Benches, second.Benches) {
		t.Error("oversize fallback changed results")
	}
	c := tinyReg.Snapshot().Counters
	if c["trace.store.oversize_drops"] == 0 {
		t.Error("no oversize drop recorded")
	}
	if c["trace.store.live_fallbacks"] == 0 {
		t.Error("no live fallback recorded")
	}
	st := tinyLab.TraceStore()
	if st.Entries() != 0 || st.Bytes() != 0 {
		t.Errorf("oversize traces resident: %d entries, %d bytes", st.Entries(), st.Bytes())
	}
}

// TestReplayGateCounters: a replay the compiled plans do not cover counts
// its reason once per pass — a BTB replay in cpisim.replay.generic.btb, a
// two-level replay in cpisim.replay.generic.l2 — and a static
// direct-mapped replay counts nothing.
func TestReplayGateCounters(t *testing.T) {
	lab, reg := diffLab(t, 0, 1)
	ctx := context.Background()
	count := func() (btb, l2 int64) {
		c := reg.Snapshot().Counters
		return c["cpisim.replay.generic.btb"], c["cpisim.replay.generic.l2"]
	}
	if _, err := lab.StaticPass(ctx, 1, lab.P.Policy); err != nil {
		t.Fatal(err)
	}
	if btb, l2 := count(); btb != 0 || l2 != 0 {
		t.Errorf("static direct-mapped replay: btb %d, l2 %d, want 0, 0", btb, l2)
	}
	if _, err := lab.BTBPass(ctx); err != nil {
		t.Fatal(err)
	}
	if btb, l2 := count(); btb != 1 || l2 != 0 {
		t.Errorf("BTB replay: btb %d, l2 %d, want 1, 0", btb, l2)
	}
	l1 := lab.cacheBank(lab.P.Policy)
	if _, err := lab.RunPass(ctx, cpisim.Config{BranchSlots: 1, ICaches: l1, DCaches: l1,
		L2: cpisim.L2Config{Caches: []cache.Config{{SizeKW: 64, BlockWords: 16, Assoc: 2, WriteBack: true}}}}); err != nil {
		t.Fatal(err)
	}
	if btb, l2 := count(); btb != 1 || l2 != 1 {
		t.Errorf("two-level replay: btb %d, l2 %d, want 1, 1", btb, l2)
	}
	if c := reg.Snapshot().Counters; c["lab.pass_replays"] != 3 || c["lab.captures"] != 1 {
		t.Errorf("lab.pass_replays %d, lab.captures %d, want 3, 1", c["lab.pass_replays"], c["lab.captures"])
	}
}
