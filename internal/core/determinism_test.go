package core

import (
	"context"
	"runtime"
	"testing"

	"pipecache/internal/cpisim"
	"pipecache/internal/obs"
)

// TestDeterminismUnderParallelism runs the same sweep twice — once pinned
// to a single CPU and once across all of them — and asserts bit-identical
// TPI results and identical obs counter totals. This is the guard against
// racy accumulation anywhere in the fan-out: the memoized passes are
// single-flighted and the counters merge with commutative atomic adds, so
// scheduling must not be observable in any number.
func TestDeterminismUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full prewarm sweeps; skipped with -short")
	}
	l := getLab(t)

	run := func(procs int) ([]TPIPoint, map[string]int64) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		lab, err := NewLab(l.Suite, l.P)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		lab.SetObs(reg)
		if err := lab.Prewarm(); err != nil {
			t.Fatal(err)
		}
		var pts []TPIPoint
		for depth := 0; depth <= 3; depth++ {
			for _, size := range lab.P.SizesKW {
				for _, scheme := range []cpisim.LoadScheme{cpisim.LoadStatic, cpisim.LoadDynamic} {
					pt, err := lab.TPI(context.Background(), lab.Query(),
						DesignPoint{B: depth, L: depth, ISizeKW: size, DSizeKW: size, Scheme: scheme})
					if err != nil {
						t.Fatal(err)
					}
					pts = append(pts, pt)
				}
			}
		}
		return pts, reg.Snapshot().Counters
	}

	pts1, counters1 := run(1)
	ptsN, countersN := run(runtime.NumCPU())

	if len(pts1) != len(ptsN) {
		t.Fatalf("point counts differ: %d vs %d", len(pts1), len(ptsN))
	}
	for i := range pts1 {
		// Struct equality: every field, including the floats, must be
		// bit-identical.
		if pts1[i] != ptsN[i] {
			t.Errorf("point %d differs:\n GOMAXPROCS=1: %+v\n GOMAXPROCS=N: %+v", i, pts1[i], ptsN[i])
		}
	}

	if len(counters1) != len(countersN) {
		t.Errorf("counter sets differ: %d vs %d metrics", len(counters1), len(countersN))
	}
	for name, v1 := range counters1 {
		vN, ok := countersN[name]
		if !ok {
			t.Errorf("counter %s missing from parallel run", name)
			continue
		}
		if v1 != vN {
			t.Errorf("counter %s differs: %d (GOMAXPROCS=1) vs %d (GOMAXPROCS=N)", name, v1, vN)
		}
	}
	for name := range countersN {
		if _, ok := counters1[name]; !ok {
			t.Errorf("counter %s only present in parallel run", name)
		}
	}
}
