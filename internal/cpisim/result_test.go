package cpisim

import (
	"fmt"
	"math"
	"testing"

	"pipecache/internal/stats"
)

// synthetic builds a Result with two hand-crafted benchmarks for direct
// unit tests of the aggregation arithmetic.
func synthetic() *Result {
	mk := func(name string, w float64) BenchResult {
		b := BenchResult{
			Name: name, Weight: w, Insts: 1000,
			CTIs: 100, BranchStall: 50, FillStall: 10,
			PredTaken: 60, PredTakenRight: 54,
			PredNotTaken: 40, PredNotTakenRight: 24,
			Loads: 250, LoadUses: 200, LoadStall: 80,
			IFetches: 1100, IMisses: []int64{55, 11},
			DReads: 250, DWrites: 90,
			DReadMisses: []int64{25, 5}, DWriteMisses: []int64{9, 1},
			Eps:      stats.NewHist(epsBins),
			EpsBlock: stats.NewHist(epsBins),
		}
		b.BTBOutcomes = [5]int64{70, 10, 5, 10, 5}
		// Epsilon: 100 loads at 0, 50 at 1, 50 at 5.
		b.EpsBlock.AddN(0, 100)
		b.EpsBlock.AddN(1, 50)
		b.EpsBlock.AddN(5, 50)
		b.Eps.AddN(5, 200)
		return b
	}
	return &Result{Benches: []BenchResult{mk("a", 0.5), mk("b", 0.5)}}
}

func TestBenchResultArithmetic(t *testing.T) {
	r := synthetic()
	b := &r.Benches[0]
	if got := b.CyclesAt(0, 0, 10, 10); got != 1000+50+10+80+55*10+(25+9)*10 {
		t.Fatalf("CyclesAt = %d", got)
	}
	if got := b.CPI(-1, -1, 0, 0); math.Abs(got-1.14) > 1e-9 {
		t.Fatalf("base CPI = %g", got)
	}
	if got := b.IMissRatio(0); math.Abs(got-0.05) > 1e-9 {
		t.Fatalf("IMissRatio = %g", got)
	}
	if got := b.DMissRatio(1); math.Abs(got-6.0/340) > 1e-9 {
		t.Fatalf("DMissRatio = %g", got)
	}
	if got := b.BranchStallPerCTI(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("BranchStallPerCTI = %g", got)
	}
	if got := b.LoadStallPerLoad(); math.Abs(got-0.32) > 1e-9 {
		t.Fatalf("LoadStallPerLoad = %g", got)
	}
}

func TestLoadStallForFromHist(t *testing.T) {
	r := synthetic()
	b := &r.Benches[0]
	// Static at l=2: 100 loads at eps 0 stall 2, 50 at eps 1 stall 1.
	if got := b.LoadStallFor(2, LoadStatic); got != 250 {
		t.Fatalf("static stall = %d, want 250", got)
	}
	// Dynamic at l=2: everything at eps 5, no stall.
	if got := b.LoadStallFor(2, LoadDynamic); got != 0 {
		t.Fatalf("dynamic stall = %d", got)
	}
	if got := b.LoadStallFor(0, LoadStatic); got != 0 {
		t.Fatalf("l=0 stall = %d", got)
	}
	// CyclesFor/CPIFor use the recomputed stall.
	base := b.CyclesFor(2, LoadStatic, -1, -1, 0, 0)
	if base != 1000+50+10+250 {
		t.Fatalf("CyclesFor = %d", base)
	}
	if got := b.CPIFor(2, LoadStatic, -1, -1, 0, 0); math.Abs(got-1.31) > 1e-9 {
		t.Fatalf("CPIFor = %g", got)
	}
}

func TestResultAggregates(t *testing.T) {
	r := synthetic()
	cpi, err := r.CPI(0, 0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Both benches identical, so the harmonic mean equals either.
	if math.Abs(cpi-r.Benches[0].CPI(0, 0, 10, 10)) > 1e-9 {
		t.Fatalf("aggregate CPI = %g", cpi)
	}
	if got := r.BranchStallPerCTI(); math.Abs(got-0.6) > 1e-9 {
		t.Fatalf("BranchStallPerCTI = %g", got)
	}
	if got := r.LoadStallPerLoad(); math.Abs(got-0.32) > 1e-9 {
		t.Fatalf("LoadStallPerLoad = %g", got)
	}
	if got := r.BranchCPIComponent(); math.Abs(got-0.06) > 1e-9 {
		t.Fatalf("BranchCPIComponent = %g", got)
	}
	if got := r.LoadCPIComponent(); math.Abs(got-0.08) > 1e-9 {
		t.Fatalf("LoadCPIComponent = %g", got)
	}
	if got := r.IMissRatio(1); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("IMissRatio = %g", got)
	}
	if got := r.DMissRatio(0); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("DMissRatio = %g", got)
	}
	if got := r.LoadStallPerLoadFor(2, LoadStatic); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("LoadStallPerLoadFor = %g", got)
	}
	if got := r.LoadCPIComponentFor(2, LoadStatic); math.Abs(got-0.25) > 1e-9 {
		t.Fatalf("LoadCPIComponentFor = %g", got)
	}
	cf, err := r.CPIFor(2, LoadStatic, -1, -1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cf-1.31) > 1e-9 {
		t.Fatalf("aggregate CPIFor = %g", cf)
	}
}

func TestResultPredictionFractions(t *testing.T) {
	r := synthetic()
	tf, ta := r.PredTakenFrac()
	if math.Abs(tf-0.6) > 1e-9 || math.Abs(ta-0.9) > 1e-9 {
		t.Fatalf("taken %g/%g", tf, ta)
	}
	nf, na := r.PredNotTakenFrac()
	if math.Abs(nf-0.4) > 1e-9 || math.Abs(na-0.6) > 1e-9 {
		t.Fatalf("not-taken %g/%g", nf, na)
	}
}

func TestResultBTBScaling(t *testing.T) {
	r := synthetic()
	// Penalized outcomes per bench: 10+5+10 = 25 of 100 CTIs.
	for d := 1; d <= 3; d++ {
		want := float64(25*d+25) / 100
		if got := r.BTBStallPerCTIFor(d); math.Abs(got-want) > 1e-9 {
			t.Fatalf("d=%d stall/CTI = %g, want %g", d, got, want)
		}
		wantCPI := float64(25*d+25) / 1000
		if got := r.BTBCPIComponentFor(d); math.Abs(got-wantCPI) > 1e-9 {
			t.Fatalf("d=%d CPI = %g, want %g", d, got, wantCPI)
		}
	}
}

func TestResultEpsHistMerged(t *testing.T) {
	r := synthetic()
	h := r.EpsHist(false)
	if h.Total() != 400 {
		t.Fatalf("merged total = %d", h.Total())
	}
	if h.Count(0) != 200 || h.Count(5) != 100 {
		t.Fatalf("merged counts %d/%d", h.Count(0), h.Count(5))
	}
	hd := r.EpsHist(true)
	if hd.Count(5) != 400 {
		t.Fatalf("dynamic merged = %d", hd.Count(5))
	}
}

func TestEmptyResultErrors(t *testing.T) {
	var r Result
	if _, err := r.CPI(0, 0, 1, 1); err == nil {
		t.Fatal("empty CPI accepted")
	}
	if _, err := r.CPIFor(1, LoadStatic, 0, 0, 1, 1); err == nil {
		t.Fatal("empty CPIFor accepted")
	}
	if r.BranchStallPerCTI() != 0 || r.LoadStallPerLoad() != 0 ||
		r.BranchCPIComponent() != 0 || r.LoadCPIComponent() != 0 {
		t.Fatal("empty aggregates nonzero")
	}
	if f, a := r.PredTakenFrac(); f != 0 || a != 0 {
		t.Fatal("empty prediction fractions nonzero")
	}
	var b BenchResult
	if b.CPI(-1, -1, 0, 0) != 0 || b.IMissRatio(0) != 0 || b.DMissRatio(0) != 0 {
		_ = b
	}
}

func TestZeroDenominatorsSafe(t *testing.T) {
	b := BenchResult{IMisses: []int64{0}, DReadMisses: []int64{0}, DWriteMisses: []int64{0}}
	if b.IMissRatio(0) != 0 || b.DMissRatio(0) != 0 || b.BranchStallPerCTI() != 0 ||
		b.LoadStallPerLoad() != 0 || b.CPI(-1, -1, 0, 0) != 0 {
		t.Fatal("zero-denominator ratios not zero")
	}
	if b.LoadStallFor(2, LoadStatic) != 0 {
		t.Fatal("nil hist stall nonzero")
	}
}

// TestHarmonicCPIMatchesStats pins the in-place reduction under CPI and
// CPIFor to stats.WeightedHarmonicMean: the same bits on valid results and
// the same error text on each of its rejections (a zero-instruction bench
// has CPI 0, a negative or all-zero weight), and no allocation per call.
func TestHarmonicCPIMatchesStats(t *testing.T) {
	viaStats := func(r *Result, cpi func(b *BenchResult) float64) (float64, error) {
		vals := make([]float64, len(r.Benches))
		ws := make([]float64, len(r.Benches))
		for i := range r.Benches {
			vals[i], ws[i] = cpi(&r.Benches[i]), r.Benches[i].Weight
		}
		return stats.WeightedHarmonicMean(vals, ws)
	}
	uneven := synthetic()
	uneven.Benches[1].Weight = 0.3
	uneven.Benches[1].Insts = 700
	uneven.Benches[1].IMisses = []int64{71, 13}
	zeroInsts := synthetic()
	zeroInsts.Benches[1].Insts = 0
	negWeight := synthetic()
	negWeight.Benches[0].Weight = -0.5
	noWeight := synthetic()
	noWeight.Benches[0].Weight, noWeight.Benches[1].Weight = 0, 0
	for name, r := range map[string]*Result{
		"equal": synthetic(), "uneven": uneven, "zero-insts": zeroInsts,
		"negative-weight": negWeight, "zero-weights": noWeight,
	} {
		for _, c := range []struct {
			icfg, dcfg, pen int
			l               int
			scheme          LoadScheme
		}{{-1, -1, 0, 0, LoadStatic}, {0, 1, 10, 2, LoadStatic}, {1, 0, 7, 3, LoadDynamic}} {
			got, gotErr := r.CPI(c.icfg, c.dcfg, c.pen, c.pen)
			want, wantErr := viaStats(r, func(b *BenchResult) float64 { return b.CPI(c.icfg, c.dcfg, c.pen, c.pen) })
			if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s CPI%+v = %v, %v; stats gives %v, %v", name, c, got, gotErr, want, wantErr)
			}
			got, gotErr = r.CPIFor(c.l, c.scheme, c.icfg, c.dcfg, c.pen, c.pen)
			want, wantErr = viaStats(r, func(b *BenchResult) float64 {
				return b.CPIFor(c.l, c.scheme, c.icfg, c.dcfg, c.pen, c.pen)
			})
			if math.Float64bits(got) != math.Float64bits(want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s CPIFor%+v = %v, %v; stats gives %v, %v", name, c, got, gotErr, want, wantErr)
			}
		}
	}
	r := uneven
	if n := testing.AllocsPerRun(100, func() {
		if _, err := r.CPIFor(2, LoadStatic, 0, 1, 10, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := r.CPI(0, 1, 10, 10); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CPI and CPIFor allocate %.0f times per call pair; want 0", n)
	}
}
