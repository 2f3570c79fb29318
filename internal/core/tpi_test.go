package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
	"pipecache/internal/fault"
	"pipecache/internal/stats"
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
// over TPI, EvalPoint at every point of DesignSpace against TPI and the
// pass's Result methods, and TPISweep and DepthMatrix against TPI.
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

			for _, dp := range DesignSpace(lab.P) {
				ev, err := lab.EvalPoint(ctx, q, dp)
				if err != nil {
					t.Fatal(err)
				}
				if want := evalOracle(t, lab, q, dp); ev != want {
					t.Errorf("%s: EvalPoint(%+v) = %+v, Result methods %+v", name, dp, ev, want)
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

// evalOracle is EvalPoint computed without the CPI table: the point from
// TPI, whose CPI it checks against Result.CPIFor, and the breakdown and
// miss ratios from the methods of the point's pass Result.
func evalOracle(t *testing.T, lab *Lab, q Query, dp DesignPoint) PointEval {
	t.Helper()
	ctx := context.Background()
	pt, err := lab.TPI(ctx, q, dp)
	if err != nil {
		t.Fatal(err)
	}
	pass, err := lab.StaticPass(ctx, dp.B, q.Policy)
	if err != nil {
		t.Fatal(err)
	}
	i, err := lab.sizeIndex(dp.ISizeKW)
	if err != nil {
		t.Fatal(err)
	}
	d, err := lab.sizeIndex(dp.DSizeKW)
	if err != nil {
		t.Fatal(err)
	}
	cpi, err := pass.CPIFor(dp.L, dp.Scheme, i, d, pt.PenCycles, pt.PenCycles)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(pt.CPI) != math.Float64bits(cpi) {
		t.Errorf("TPI(%+v).CPI = %v, Result.CPIFor %v", dp, pt.CPI, cpi)
	}
	noMiss, err := pass.CPIFor(dp.L, dp.Scheme, -1, -1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	withIMiss, err := pass.CPIFor(dp.L, dp.Scheme, i, -1, pt.PenCycles, 0)
	if err != nil {
		t.Fatal(err)
	}
	branch, load := pass.BranchCPIComponent(), pass.LoadCPIComponentFor(dp.L, dp.Scheme)
	return PointEval{
		Point: pt,
		Breakdown: Breakdown{
			Base:        noMiss - branch - load,
			BranchStall: branch,
			LoadStall:   load,
			IMiss:       withIMiss - noMiss,
			DMiss:       pt.CPI - withIMiss,
		},
		IMissRate: pass.IMissRatio(i),
		DMissRate: pass.DMissRatio(d),
	}
}

// TestBestWarmAllocs guards the design-point evaluator without timing
// noise: on a lab whose passes are warm, a Best over all 576 candidates of
// one scheme at a fresh miss-service time allocates its result and nothing
// else (the depth list is NewLab's, the pass tables stay on the stack),
// with and without a metrics registry and at 1 and 2 workers.
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
			if allocs > 2 {
				t.Errorf("workers=%d registry=%v: a warm Best makes %.0f allocations; want only its result (<= 2)",
					workers, registry, allocs)
			}
			if bytes > 2048 {
				t.Errorf("workers=%d registry=%v: a warm Best allocates %d bytes; want no per-candidate buffer (<= 2048)",
					workers, registry, bytes)
			}
		}
	}
}

// oracleCPIFor is the definition every CPI table read must reproduce:
// stats.WeightedHarmonicMean of the per-benchmark BenchResult.CPIFor
// values, weighted by the mix weights.
func oracleCPIFor(r *cpisim.Result, l int, scheme cpisim.LoadScheme, icfg, dcfg, ipen, dpen int) (float64, error) {
	values := make([]float64, len(r.Benches))
	weights := make([]float64, len(r.Benches))
	for k := range r.Benches {
		values[k] = r.Benches[k].CPIFor(l, scheme, icfg, dcfg, ipen, dpen)
		weights[k] = r.Benches[k].Weight
	}
	return stats.WeightedHarmonicMean(values, weights)
}

// TestCPITableDifferential runs every pass Prewarm memoizes through a CPI
// table and through the oracle, bit for bit and error text for error text:
// every load depth 0..3 and one on each side outside, both schemes, every
// size index with -1 (no misses) on either side, a spread of unequal I and
// D penalties, and equal penalties through the memo: the floor of 2, both
// edges of the memo window (2..65), one penalty past each edge and a large
// one, each read twice, from the pass's table and from a fresh one (whose
// first read fills the cell). A static pass must carry the table its
// leader built; the BTB pass carries none and is checked through a table
// built here.
func TestCPITableDifferential(t *testing.T) {
	lab := getLab(t)
	if err := lab.Prewarm(); err != nil {
		t.Fatal(err)
	}
	lab.mu.Lock()
	entries := make(map[passKey]*passEntry, len(lab.passes))
	for k, e := range lab.passes {
		entries[k] = e
	}
	lab.mu.Unlock()
	if len(entries) < maxDelaySlots+2 {
		t.Fatalf("%d memoized passes after Prewarm, want at least %d", len(entries), maxDelaySlots+2)
	}
	pens := []int{0, 2, 3, 6, 10, 18, 41, 1 << 20}
	memoPens := []int{1, 2, 3, 64, 65, 66, 300_000}
	for k, e := range entries {
		<-e.done
		tab := e.tab
		switch {
		case k.scheme == cpisim.BranchStatic && tab == nil:
			t.Fatalf("static pass %+v has no CPI table", k)
		case k.scheme != cpisim.BranchStatic && tab != nil:
			t.Fatalf("pass %+v has a CPI table", k)
		case tab == nil:
			tab = cpisim.NewCPITable(e.res)
		}
		if tab.Result() != e.res {
			t.Fatalf("pass %+v: the table is not over the pass's result", k)
		}
		fresh := cpisim.NewCPITable(e.res)
		for l := -1; l <= maxDelaySlots+1; l++ {
			for _, scheme := range []cpisim.LoadScheme{cpisim.LoadStatic, cpisim.LoadDynamic} {
				for i := -1; i < len(lab.P.SizesKW); i++ {
					for d := -1; d < len(lab.P.SizesKW); d++ {
						for j, ipen := range pens {
							dpen := pens[(j+3)%len(pens)]
							got, gotErr := tab.CPIFor(l, scheme, i, d, ipen, dpen)
							want, wantErr := oracleCPIFor(e.res, l, scheme, i, d, ipen, dpen)
							if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
								t.Fatalf("pass %+v: CPIFor(%d, %v, %d, %d, %d, %d) = %v, %v; oracle %v, %v",
									k, l, scheme, i, d, ipen, dpen, got, gotErr, want, wantErr)
							}
						}
						for _, pen := range memoPens {
							want, wantErr := oracleCPIFor(e.res, l, scheme, i, d, pen, pen)
							for read, tab := range []*cpisim.CPITable{tab, fresh, tab, fresh} {
								got, gotErr := tab.CPIFor(l, scheme, i, d, pen, pen)
								if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
									t.Fatalf("pass %+v: read %d of CPIFor(%d, %v, %d, %d, %d, %d) = %v, %v; oracle %v, %v",
										k, read, l, scheme, i, d, pen, pen, got, gotErr, want, wantErr)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestBestMatchesOracle checks Best against a brute-force first minimum
// over Result.CPIFor and the timing model, at 3000 miss-service times,
// most of them inside the CPI memo's window and some far beyond it, each
// asked twice (the repeat reads what the first filled) and each over one
// of the four candidate lists in turn.
func TestBestMatchesOracle(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	ctx := context.Background()
	type cand struct {
		dp   DesignPoint
		tcpu float64
		i, d int
	}
	var cands []cand
	for _, dp := range DesignSpace(lab.P) {
		tcpu, err := lab.P.Model.TCPUSplit(dp.ISizeKW, dp.B, dp.DSizeKW, dp.L)
		if err != nil {
			t.Fatal(err)
		}
		cands = append(cands, cand{dp, tcpu, slices.Index(lab.P.SizesKW, dp.ISizeKW), slices.Index(lab.P.SizesKW, dp.DSizeKW)})
	}
	var passes [maxDelaySlots + 1]*cpisim.Result
	for b := range passes {
		var err error
		if passes[b], err = lab.StaticPass(ctx, b, lab.P.Policy); err != nil {
			t.Fatal(err)
		}
	}
	oracle := func(l2 float64, scheme cpisim.LoadScheme, symmetric bool) Optimum {
		want := Optimum{Best: TPIPoint{TPINs: math.Inf(1)}}
		for _, c := range cands {
			dp := c.dp
			if dp.Scheme != scheme || (symmetric && (dp.B != dp.L || dp.ISizeKW != dp.DSizeKW)) {
				continue
			}
			want.Evaluated++
			pen := penaltyCyclesFor(l2, c.tcpu)
			cpi, err := passes[dp.B].CPIFor(dp.L, dp.Scheme, c.i, c.d, pen, pen)
			if err != nil {
				t.Fatal(err)
			}
			if tpi := cpi * c.tcpu; tpi < want.Best.TPINs {
				want.Best = TPIPoint{B: dp.B, L: dp.L, ISizeKW: dp.ISizeKW, DSizeKW: dp.DSizeKW, LoadScheme: dp.Scheme,
					TCPUNs: c.tcpu, PenCycles: pen, CPI: cpi, TPINs: tpi}
			}
		}
		return want
	}
	rng := rand.New(rand.NewPCG(7, 27))
	l2s := make([]float64, 3000)
	for k := range l2s {
		if k%5 == 0 {
			l2s[k] = 1e6 * rng.Float64()
		} else {
			l2s[k] = 1 + 150*rng.Float64()
		}
	}
	wants := make([]Optimum, len(l2s))
	for round := range 2 {
		for k, l2 := range l2s {
			scheme, symmetric := cpisim.LoadScheme(k%2), k/2%2 == 1
			if round == 0 {
				wants[k] = oracle(l2, scheme, symmetric)
			}
			got, err := lab.Best(ctx, lab.queryAt(l2), scheme, symmetric)
			if err != nil {
				t.Fatal(err)
			}
			if *got != wants[k] {
				t.Fatalf("round %d: Best(%v, %v, symmetric=%v) = %+v, oracle %+v", round, l2, scheme, symmetric, *got, wants[k])
			}
		}
	}
}

// doneAt is a context that closes reached at the at-th call of its Done
// method, counting from 1 (0 never).
type doneAt struct {
	context.Context
	calls   atomic.Int64
	at      int64
	reached chan struct{}
}

func (c *doneAt) Done() <-chan struct{} {
	if c.calls.Add(1) == c.at {
		close(c.reached)
	}
	return c.Context.Done()
}

// TestBestCancelMidSweep cancels Best's point loop (minTPI) from another
// goroutine as the loop starts, at the call of Done it hoists: the run
// returns the context's error and no answer, with lab.tpi_points moved by
// the points evaluated before the loop saw the cancellation, neither none
// nor all. The list is Best's static candidates 200 times over, at a miss
// service whose penalties all lie past the CPI memo's window, so the loop
// outlasts the canceller's wake-up by far; a run that still finishes
// first must give the uncancelled answer, and at least one of 20 must stop
// part way.
func TestBestCancelMidSweep(t *testing.T) {
	lab, reg := diffLab(t, 0, 1)
	var cands []candidate
	for range 200 {
		cands = append(cands, lab.cands[candKey{scheme: cpisim.LoadStatic}]...)
	}
	q := lab.queryAt(5000)
	dry := &doneAt{Context: context.Background()}
	depths := depthsOf(cands)
	want, err := lab.minTPI(dry, q, cands, depths)
	if err != nil {
		t.Fatal(err)
	}
	hoist := dry.calls.Load()
	points := func() int64 { return reg.Snapshot().Counters["lab.tpi_points"] }
	midway := 0
	for attempt := 0; attempt < 20 && midway == 0; attempt++ {
		ctx, cancel := context.WithCancel(context.Background())
		c := &doneAt{Context: ctx, at: hoist, reached: make(chan struct{})}
		go func() {
			<-c.reached
			cancel()
		}()
		before := points()
		got, err := lab.minTPI(c, q, cands, depths)
		<-ctx.Done()
		n := points() - before
		switch {
		case err == nil:
			if got != want || n != int64(len(cands)) {
				t.Fatalf("attempt %d: uncancelled sweep = %+v over %d points, want %+v over %d", attempt, got, n, want, len(cands))
			}
		case !errors.Is(err, context.Canceled) || got != (TPIPoint{}):
			t.Fatalf("attempt %d: sweep = %+v, %v; want no answer and context.Canceled", attempt, got, err)
		case n <= 0 || n >= int64(len(cands)):
			t.Fatalf("attempt %d: a cancelled sweep counted %d of %d points", attempt, n, len(cands))
		default:
			midway++
		}
	}
	if midway == 0 {
		t.Error("no cancellation landed inside the point loop in 20 attempts")
	}
}

// TestBestSweepItemPanic fires an injected panic at the lab.sweep.item
// seam of Best's point sweep: a warm Best hits the seam once per depth
// (hits 0..3) and once for its points (hit 4), so the test takes the first
// plan seed that fires at hit 4 alone. Best must return ErrPassPanic and no
// answer, and the lab must answer the next Best correctly.
func TestBestSweepItemPanic(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	ctx := context.Background()
	want, err := lab.Best(ctx, lab.Query(), cpisim.LoadDynamic, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fault.Disable)
	for seed := 1; seed <= 1000; seed++ {
		p, err := fault.ParsePlan(fmt.Sprintf("seed=%d,rate=512/1024,kinds=panic,points=lab.sweep.item", seed))
		if err != nil {
			t.Fatal(err)
		}
		fault.Enable(p)
		got, err := lab.Best(ctx, lab.Query(), cpisim.LoadDynamic, false)
		fault.Disable()
		if err == nil || !strings.Contains(err.Error(), "(hit 4)") {
			continue
		}
		if !errors.Is(err, ErrPassPanic) || got != nil || p.Fired() != 1 {
			t.Fatalf("seed %d: Best = %v, %v after %d fires; want no answer and ErrPassPanic after 1", seed, got, err, p.Fired())
		}
		got, err = lab.Best(ctx, lab.Query(), cpisim.LoadDynamic, false)
		if err != nil || *got != *want {
			t.Fatalf("Best after the contained panic = %v, %v; want %+v", got, err, *want)
		}
		return
	}
	t.Fatal("no seed in 1..1000 fires at hit 4 alone")
}

// TestQueryL2TimeRange checks that every design-point entry point refuses
// a miss-service time outside (0, 1e6] ns with the server's error text,
// before any arithmetic: the penalty conversion sends NaN, +Inf and 1e300
// to the smallest int and clamps everything below 2 cycles up to 2, so
// each of these used to answer with the 2-cycle-penalty design. The
// bounds themselves are in range.
func TestQueryL2TimeRange(t *testing.T) {
	lab := getLab(t)
	ctx := context.Background()
	dp := DesignPoint{B: 2, L: 2, ISizeKW: 4, DSizeKW: 4, Scheme: cpisim.LoadStatic}
	entry := map[string]func(l2 float64) error{
		"Best": func(l2 float64) error {
			_, err := lab.Best(ctx, lab.queryAt(l2), cpisim.LoadStatic, false)
			return err
		},
		"TPI": func(l2 float64) error {
			_, err := lab.TPI(ctx, lab.queryAt(l2), dp)
			return err
		},
		"EvalPoint": func(l2 float64) error {
			_, err := lab.EvalPoint(ctx, lab.queryAt(l2), dp)
			return err
		},
		"EvalPoint over DesignSpace": func(l2 float64) error {
			for _, dp := range DesignSpace(lab.P) {
				if _, err := lab.EvalPoint(ctx, lab.queryAt(l2), dp); err != nil {
					return err
				}
			}
			return nil
		},
		"TPISweep": func(l2 float64) error {
			_, err := lab.TPISweep(ctx, lab.queryAt(l2), cpisim.LoadStatic)
			return err
		},
		"DepthMatrix": func(l2 float64) error {
			_, err := lab.DepthMatrix(l2)
			return err
		},
		"AsymmetryStudy": func(l2 float64) error {
			_, err := lab.AsymmetryStudy(l2)
			return err
		},
	}
	for name, run := range entry {
		for _, l2 := range []float64{1e300, math.NaN(), math.Inf(1), math.Inf(-1), -5, 0, 1e15, math.Nextafter(1e6, 2e6)} {
			want := fmt.Sprintf("l2_time_ns %g out of range", l2)
			if err := run(l2); fmt.Sprint(err) != want {
				t.Errorf("%s at l2=%g: err = %v, want %q", name, l2, err, want)
			}
		}
		for _, l2 := range []float64{math.SmallestNonzeroFloat64, 1e6} {
			if err := run(l2); err != nil {
				t.Errorf("%s at l2=%g: %v", name, l2, err)
			}
		}
	}
	if err := (Params{Insts: 1, BlockWords: 4, SizesKW: []int{1}, Penalties: []int{6}, L2TimeNs: 2e6, Model: lab.P.Model}).Validate(); err == nil {
		t.Error("Params.Validate accepts a 2 ms miss service")
	}
}
