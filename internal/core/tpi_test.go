package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
)

// TestTCPUTableIsModel pins the lab's tCPU table to the timing model: every
// split a design point can ask for reads the same bits (and the same error)
// from the table as from Model.TCPUSplit, for the default model and one
// with a different latch overhead, and a depth the table does not hold
// still gets the model's answer.
func TestTCPUTableIsModel(t *testing.T) {
	base := getLab(t)
	slow := base.P.Model
	slow.LatchNs = 0.45
	withZero := base.P
	withZero.SizesKW = []int{0, 4}
	for name, p := range map[string]Params{
		"default":   base.P,
		"latch":     func() Params { p := base.P; p.Model = slow; return p }(),
		"zero-size": withZero,
	} {
		lab, err := NewLab(base.Suite, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, is := range p.SizesKW {
			for _, ds := range p.SizesKW {
				for b := 0; b <= maxDelaySlots; b++ {
					for ld := 0; ld <= maxDelaySlots; ld++ {
						got, gotErr := lab.tcpuSplit(is, b, ds, ld)
						want, wantErr := p.Model.TCPUSplit(is, b, ds, ld)
						if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
							t.Errorf("%s: tcpuSplit(%d, %d, %d, %d) = %v, %v; model gives %v, %v",
								name, is, b, ds, ld, got, gotErr, want, wantErr)
						}
					}
				}
			}
		}
	}

	// A depth-4 point: the D side lies outside the table, so the whole
	// split comes from the model.
	lab := getLab(t)
	pt, err := lab.TPI(context.Background(), lab.Query(),
		DesignPoint{B: 2, L: 4, ISizeKW: 8, DSizeKW: 8, Scheme: cpisim.LoadStatic})
	if err != nil {
		t.Fatal(err)
	}
	want, err := lab.P.Model.TCPUSplit(8, 2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pt.TCPUNs) != math.Float64bits(want) {
		t.Errorf("depth-4 point tCPU = %v, model gives %v", pt.TCPUNs, want)
	}
}

// TestSweepsMatchPointwise checks every sweep that resolves its passes
// once per depth against pointwise evaluation, bit for bit, at two miss
// service times and under the non-default replacement policies (the
// goldens cover only the defaults): Best against a serial first minimum
// over TPI, EvalSpace against EvalPoint, and TPISweep and DepthMatrix
// against TPI.
func TestSweepsMatchPointwise(t *testing.T) {
	lab, _ := diffLab(t, 0, 2)
	ctx := context.Background()
	for _, l2 := range []float64{lab.P.L2TimeNs, 21} {
		for _, pol := range []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyTreePLRU} {
			q := Query{L2TimeNs: l2, Policy: pol}
			name := fmt.Sprintf("l2=%g/%v", l2, pol)
			for _, scheme := range []cpisim.LoadScheme{cpisim.LoadStatic, cpisim.LoadDynamic} {
				for _, symmetric := range []bool{false, true} {
					got, err := lab.Best(ctx, q, scheme, symmetric)
					if err != nil {
						t.Fatal(err)
					}
					want := Optimum{Best: TPIPoint{TPINs: math.Inf(1)}}
					for _, dp := range DesignSpace(lab.P) {
						if dp.Scheme != scheme || (symmetric && (dp.B != dp.L || dp.ISizeKW != dp.DSizeKW)) {
							continue
						}
						pt, err := lab.TPI(ctx, q, dp)
						if err != nil {
							t.Fatal(err)
						}
						want.Evaluated++
						if pt.TPINs < want.Best.TPINs {
							want.Best = pt
						}
					}
					if *got != want {
						t.Errorf("%s %v symmetric=%v: Best = %+v, pointwise %+v", name, scheme, symmetric, *got, want)
					}
				}

				f, err := lab.TPISweep(ctx, q, scheme)
				if err != nil {
					t.Fatal(err)
				}
				for d := range f.Y {
					for i, side := range lab.P.SizesKW {
						pt, err := lab.TPI(ctx, q, DesignPoint{B: d, L: d, ISizeKW: side, DSizeKW: side, Scheme: scheme})
						if err != nil {
							t.Fatal(err)
						}
						if math.Float64bits(f.Y[d][i]) != math.Float64bits(pt.TPINs) {
							t.Errorf("%s %v: TPISweep[%d][%d] = %v, TPI %v", name, scheme, d, i, f.Y[d][i], pt.TPINs)
						}
					}
				}
			}

			evs, err := lab.EvalSpace(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			for i, dp := range DesignSpace(lab.P) {
				ev, err := lab.EvalPoint(ctx, q, dp)
				if err != nil {
					t.Fatal(err)
				}
				if evs[i] != ev {
					t.Errorf("%s: EvalSpace[%d] = %+v, EvalPoint %+v", name, i, evs[i], ev)
				}
			}
		}

		// DepthMatrix takes the lab's policy.
		m, err := lab.DepthMatrix(l2)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range m.Depths {
			for j, ld := range m.Depths {
				best, bestSize := math.Inf(1), 0
				for _, side := range lab.P.SizesKW {
					pt, err := lab.TPI(ctx, lab.queryAt(l2),
						DesignPoint{B: b, L: ld, ISizeKW: side, DSizeKW: side, Scheme: cpisim.LoadStatic})
					if err != nil {
						t.Fatal(err)
					}
					if pt.TPINs < best {
						best, bestSize = pt.TPINs, side
					}
				}
				if math.Float64bits(m.BestTPI[i][j]) != math.Float64bits(best) || m.BestSize[i][j] != bestSize {
					t.Errorf("l2=%g: DepthMatrix[%d][%d] = %v@%d, TPI %v@%d",
						l2, i, j, m.BestTPI[i][j], m.BestSize[i][j], best, bestSize)
				}
			}
		}
	}
}

// TestBestWarmAllocs guards the design-point evaluator without timing
// noise: on a lab whose passes are warm, a Best over all 576 candidates of
// one scheme at a fresh miss-service time allocates a small fixed amount
// per sweep (the depth list, the result, counters on a lab without a
// registry), nothing per point and no per-candidate buffer, with and
// without a metrics registry and at 1 and 2 workers.
func TestBestWarmAllocs(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, registry := range []bool{false, true} {
			lab, _ := diffLab(t, 0, workers)
			if !registry {
				lab.SetObs(nil)
			}
			ctx := context.Background()
			if _, err := lab.Best(ctx, lab.Query(), cpisim.LoadDynamic, false); err != nil {
				t.Fatal(err)
			}
			l2 := lab.P.L2TimeNs
			allocs := testing.AllocsPerRun(20, func() {
				l2 += 1e-3
				opt, err := lab.Best(ctx, lab.queryAt(l2), cpisim.LoadDynamic, false)
				if err != nil {
					t.Fatal(err)
				}
				if opt.Evaluated != 576 {
					t.Fatalf("evaluated %d candidates, want 576", opt.Evaluated)
				}
			})
			// Bytes too: a per-candidate slice (a candidate list or a
			// result slot per point) is at least 576 x 8 bytes.
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				l2 += 1e-3
				if _, err := lab.Best(ctx, lab.queryAt(l2), cpisim.LoadDynamic, false); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("workers=%d registry=%v: %.0f allocations, %d bytes", workers, registry, allocs, bytes)
			if allocs > 64 {
				t.Errorf("workers=%d registry=%v: a warm Best makes %.0f allocations; want a fixed per-sweep cost (<= 64)",
					workers, registry, allocs)
			}
			if bytes > 2048 {
				t.Errorf("workers=%d registry=%v: a warm Best allocates %d bytes; want no per-candidate buffer (<= 2048)",
					workers, registry, bytes)
			}
		}
	}
}
