package core

import (
	"context"
	"math"
	"strings"
	"sync"
	"testing"

	"pipecache/internal/cpisim"
	"pipecache/internal/gen"
)

// The test lab uses a representative sub-suite and a reduced instruction
// budget; building it once keeps the package's tests fast.
var (
	labOnce sync.Once
	testLab *Lab
	labErr  error
)

func getLab(t testing.TB) *Lab {
	t.Helper()
	labOnce.Do(func() {
		var specs []gen.Spec
		for _, name := range []string{"gcc", "yacc", "matrix500", "loops", "espresso"} {
			s, ok := gen.LookupSpec(name)
			if !ok {
				labErr = errNotFound(name)
				return
			}
			specs = append(specs, s)
		}
		suite, err := BuildSuite(specs)
		if err != nil {
			labErr = err
			return
		}
		p := DefaultParams()
		p.Insts = 250_000
		testLab, labErr = NewLab(suite, p)
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return testLab
}

type errNotFound string

func (e errNotFound) Error() string { return "spec not found: " + string(e) }

func TestBuildSuite(t *testing.T) {
	l := getLab(t)
	if len(l.Suite.Progs) != 5 {
		t.Fatalf("suite has %d programs", len(l.Suite.Progs))
	}
	// Address spaces must be disjoint.
	for i, p := range l.Suite.Progs {
		for j, q := range l.Suite.Progs {
			if i >= j {
				continue
			}
			if p.Base/addressSpaceStride == q.Base/addressSpaceStride {
				t.Fatalf("programs %d and %d share an address-space slot", i, j)
			}
		}
	}
	var w float64
	for _, x := range l.Suite.Weights {
		w += x
	}
	if math.Abs(w-1) > 1e-9 {
		t.Fatalf("weights sum to %g", w)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.Insts = 0 },
		func(p *Params) { p.BlockWords = 0 },
		func(p *Params) { p.SizesKW = nil },
		func(p *Params) { p.Penalties = nil },
		func(p *Params) { p.L2TimeNs = 0 },
	}
	for i, mutate := range cases {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestPenaltyCycles(t *testing.T) {
	p := DefaultParams() // 35 ns service
	if got := p.PenaltyCycles(3.5); got != 10 {
		t.Fatalf("PenaltyCycles(3.5) = %d, want 10", got)
	}
	if got := p.PenaltyCycles(7.0); got != 5 {
		t.Fatalf("PenaltyCycles(7.0) = %d, want 5", got)
	}
	if got := p.PenaltyCycles(100); got != 2 {
		t.Fatalf("penalty floor = %d, want 2", got)
	}
	if got := p.PenaltyCycles(0); got != 2 {
		t.Fatalf("degenerate tcpu = %d, want 2", got)
	}
}

func TestPassMemoized(t *testing.T) {
	l := getLab(t)
	a, err := l.StaticPass(context.Background(), 1, l.P.Policy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := l.StaticPass(context.Background(), 1, l.P.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("pass not memoized")
	}
}

func TestTable1Shape(t *testing.T) {
	l := getLab(t)
	r, err := l.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.LoadPct <= 0 || row.CTIPct <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
	}
	out := r.String()
	if !strings.Contains(out, "gcc") || !strings.Contains(out, "Total") {
		t.Fatalf("rendering missing rows:\n%s", out)
	}
}

func TestTable2Shape(t *testing.T) {
	l := getLab(t)
	r, err := l.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Slots) != 3 {
		t.Fatalf("slots = %v", r.Slots)
	}
	// Table 2: increasing expansion, 6/14/23% in the paper; accept the
	// neighbourhood.
	if !(r.IncreasePct[0] < r.IncreasePct[1] && r.IncreasePct[1] < r.IncreasePct[2]) {
		t.Fatalf("expansion not increasing: %v", r.IncreasePct)
	}
	if r.IncreasePct[0] < 0.8 || r.IncreasePct[0] > 13 {
		t.Errorf("1-slot expansion %.1f%%, paper ~6%%", r.IncreasePct[0])
	}
	if r.IncreasePct[2] < 8 || r.IncreasePct[2] > 38 {
		t.Errorf("3-slot expansion %.1f%%, paper ~23%%", r.IncreasePct[2])
	}
	if !strings.Contains(r.String(), "Table 2") {
		t.Error("missing title")
	}
}

func TestTable3Shape(t *testing.T) {
	l := getLab(t)
	r, err := l.Table3()
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for _, row := range r.Rows {
		if row.CyclesPerCTI < prev {
			t.Fatalf("cycles per CTI not increasing: %+v", r.Rows)
		}
		prev = row.CyclesPerCTI
		if row.PredTakenPct+row.PredNTPct < 99 || row.PredTakenPct+row.PredNTPct > 101 {
			t.Fatalf("prediction classes do not partition CTIs: %+v", row)
		}
		// Backward/jump prediction should be strong.
		if row.PredTakenAccPct < 70 {
			t.Errorf("taken accuracy %.0f%%, paper ~93%%", row.PredTakenAccPct)
		}
	}
	// Paper: 3 slots cost ~8.7% CPI; ours should be well under the naive
	// 3*13% and over zero.
	add3 := r.Rows[2].AdditionalCPI
	if add3 <= 0.01 || add3 > 0.25 {
		t.Errorf("3-slot additional CPI %.3f, paper ~0.09", add3)
	}
}

func TestTable4Shape(t *testing.T) {
	l := getLab(t)
	r, err := l.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	prev := 0.0
	for _, row := range r.Rows {
		if row.CyclesPerCTI <= prev {
			t.Fatalf("BTB cycles per CTI not increasing: %+v", r.Rows)
		}
		prev = row.CyclesPerCTI
	}
	// Paper's Table 4: 1.44 / 1.65 / 1.85 cycles per CTI. Accept a band.
	if r.Rows[0].CyclesPerCTI < 1.02 || r.Rows[0].CyclesPerCTI > 1.8 {
		t.Errorf("1-delay cycles per CTI %.2f, paper 1.44", r.Rows[0].CyclesPerCTI)
	}
}

func TestStaticBeatsOrMatchesBTB(t *testing.T) {
	// The paper's headline for Section 3.1: the static scheme performs
	// better (lower cycles per CTI) than the small BTB.
	l := getLab(t)
	t3, err := l.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t4, err := l.Table4()
	if err != nil {
		t.Fatal(err)
	}
	for i := range t3.Rows {
		if t3.Rows[i].CyclesPerCTI > t4.Rows[i].CyclesPerCTI*1.08 {
			t.Errorf("slots=%d: static %.2f cycles/CTI much worse than BTB %.2f",
				i+1, t3.Rows[i].CyclesPerCTI, t4.Rows[i].CyclesPerCTI)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	l := getLab(t)
	r, err := l.Table5()
	if err != nil {
		t.Fatal(err)
	}
	prevS, prevD := 0.0, 0.0
	for _, row := range r.Rows {
		// Dynamic hides strictly more than static.
		if row.DynCyclesPerLoad > row.StaticCyclesPerLoad {
			t.Fatalf("dynamic worse than static: %+v", row)
		}
		if row.StaticCyclesPerLoad < prevS || row.DynCyclesPerLoad < prevD {
			t.Fatalf("stalls not increasing in depth: %+v", r.Rows)
		}
		prevS, prevD = row.StaticCyclesPerLoad, row.DynCyclesPerLoad
	}
	// Paper: static 0.21/0.62/1.21, dynamic 0.04/0.19/0.39 cycles per
	// load. Accept generous bands around the shape.
	if r.Rows[2].StaticCyclesPerLoad < 0.3 || r.Rows[2].StaticCyclesPerLoad > 2.2 {
		t.Errorf("static 3-slot cycles/load %.2f, paper 1.21", r.Rows[2].StaticCyclesPerLoad)
	}
	if r.Rows[2].DynCyclesPerLoad > 0.9 {
		t.Errorf("dynamic 3-slot cycles/load %.2f, paper 0.39", r.Rows[2].DynCyclesPerLoad)
	}
}

func TestTable6Rendered(t *testing.T) {
	l := getLab(t)
	r, err := l.Table6()
	if err != nil {
		t.Fatal(err)
	}
	out := r.String()
	if !strings.Contains(out, "depth 3") || !strings.Contains(out, "3.50") {
		t.Fatalf("table 6 rendering:\n%s", out)
	}
}

func TestFigure4Monotonicity(t *testing.T) {
	l := getLab(t)
	f, err := l.Figure4(10)
	if err != nil {
		t.Fatal(err)
	}
	// CPI falls with cache size for every slot count.
	for i, ys := range f.Y {
		for j := 1; j < len(ys); j++ {
			if ys[j] > ys[j-1]+0.02 {
				t.Errorf("series %s rises at size index %d: %v", f.Labels[i], j, ys)
			}
		}
	}
	// More slots cost CPI at the smallest size.
	b0, _ := f.Series("b=0")
	b3, _ := f.Series("b=3")
	if b3[0] <= b0[0] {
		t.Errorf("3 slots not costlier than 0 at 1KW: %g vs %g", b3[0], b0[0])
	}
}

func TestFigure4DoublingBeatsSlot(t *testing.T) {
	// The paper's Figure 4 conclusion: for 1-16 KW it pays to double the
	// cache and add a delay slot. Check the dominant trend: CPI(b+1, 2S)
	// < CPI(b, S) for most of the range.
	l := getLab(t)
	f, err := l.Figure4(10)
	if err != nil {
		t.Fatal(err)
	}
	wins, total := 0, 0
	for b := 0; b < 3; b++ {
		cur, _ := f.Series(labelB(b))
		next, _ := f.Series(labelB(b + 1))
		for si := 0; si+1 < len(f.X); si++ {
			total++
			if next[si+1] < cur[si] {
				wins++
			}
		}
	}
	if wins*2 < total {
		t.Errorf("doubling+slot wins only %d/%d times", wins, total)
	}
}

func labelB(b int) string { return "b=" + string(rune('0'+b)) }

func TestFigure3SlopeGrowsWithSmallCaches(t *testing.T) {
	// Figure 3's subject is the miss component: the code expansion of
	// delay slots costs more instruction misses on small caches. Compare
	// the miss-only CPI slope (total CPI minus the cache-independent
	// branch stalls).
	l := getLab(t)
	missCPI := func(b, sizeIdx int) float64 {
		pass, err := l.StaticPass(context.Background(), b, l.P.Policy)
		if err != nil {
			t.Fatal(err)
		}
		return pass.IMissRatio(sizeIdx) * 10
	}
	dSmall := missCPI(3, 0) - missCPI(0, 0)
	dBig := missCPI(3, len(l.P.SizesKW)-1) - missCPI(0, len(l.P.SizesKW)-1)
	if dSmall < dBig-0.01 {
		t.Errorf("delay-slot miss-CPI slope: small %.3f well below big %.3f", dSmall, dBig)
	}
	if dSmall <= 0 {
		t.Errorf("small-cache miss slope %.3f not positive", dSmall)
	}
}

func TestFigure5CPIFallsWithTCPU(t *testing.T) {
	l := getLab(t)
	f, err := l.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for i, ys := range f.Y {
		for j := 1; j < len(ys); j++ {
			if ys[j] > ys[j-1]+1e-9 {
				t.Errorf("series %s: CPI rises with tCPU: %v", f.Labels[i], ys)
			}
		}
	}
}

func TestFigures6And7Shape(t *testing.T) {
	l := getLab(t)
	f6, err := l.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	f7, err := l.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	sum := func(f *FigureResult) float64 {
		var s float64
		for _, v := range f.Y[0] {
			s += v
		}
		return s
	}
	if math.Abs(sum(f6)-1) > 1e-6 || math.Abs(sum(f7)-1) > 1e-6 {
		t.Fatalf("distributions do not sum to 1: %g %g", sum(f6), sum(f7))
	}
	// Fraction with eps >= 3: unrestricted (Fig 6) far above restricted
	// (Fig 7); paper reports > 80% unrestricted.
	ge3 := func(f *FigureResult) float64 {
		var s float64
		for i, x := range f.X {
			if x >= 3 {
				s += f.Y[0][i]
			}
		}
		return s
	}
	u, r := ge3(f6), ge3(f7)
	if u < 0.6 {
		t.Errorf("unrestricted eps>=3 = %.2f, paper > 0.8", u)
	}
	if r >= u {
		t.Errorf("restricted (%.2f) not below unrestricted (%.2f)", r, u)
	}
}

func TestFigure8Monotonicity(t *testing.T) {
	l := getLab(t)
	f, err := l.Figure8(10)
	if err != nil {
		t.Fatal(err)
	}
	// CPI rises with load delay at fixed size.
	for si := range f.X {
		prev := -1.0
		for _, ys := range f.Y {
			if ys[si] < prev {
				t.Errorf("CPI falls with l at size %g", f.X[si])
			}
			prev = ys[si]
		}
	}
}

func TestFigure9Rendered(t *testing.T) {
	l := getLab(t)
	f, err := l.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Y[0]) != len(f.X) {
		t.Fatal("shape mismatch")
	}
	for _, v := range f.Y[0] {
		if v <= 0 {
			t.Fatalf("non-positive TPI: %v", f.Y[0])
		}
	}
}

func TestFigure10Rendered(t *testing.T) {
	l := getLab(t)
	r := l.Figure10()
	if len(r.Plans) != len(l.P.SizesKW) {
		t.Fatalf("plans = %d", len(r.Plans))
	}
	if !strings.Contains(r.String(), "Figure 10") {
		t.Fatal("missing title")
	}
}

func TestFigure11PositiveAndOrdered(t *testing.T) {
	l := getLab(t)
	f, err := l.Figure11(10)
	if err != nil {
		t.Fatal(err)
	}
	// The required tCPU reduction grows with the number of delay cycles.
	for si := range f.X {
		prev := 0.0
		for li, ys := range f.Y {
			if ys[si] < prev {
				t.Errorf("relative CPI not increasing in l at size %g: series %d", f.X[si], li)
			}
			prev = ys[si]
		}
	}
	// Paper: for 2 delay cycles the required reduction is under ~10%.
	l2, _ := f.Series("l=2")
	for _, v := range l2 {
		if v < 0 || v > 0.35 {
			t.Errorf("l=2 relative CPI %.3f out of plausible range", v)
		}
	}
}

func TestTPIConsistency(t *testing.T) {
	l := getLab(t)
	pt, err := l.TPI(context.Background(), l.Query(), DesignPoint{B: 2, L: 2, ISizeKW: 8, DSizeKW: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pt.TPINs-pt.CPI*pt.TCPUNs) > 1e-9 {
		t.Fatalf("TPI %.4f != CPI %.4f * tCPU %.4f", pt.TPINs, pt.CPI, pt.TCPUNs)
	}
	if pt.PenCycles < 2 {
		t.Fatalf("penalty %d", pt.PenCycles)
	}
}

func TestHeadlinePipeliningWins(t *testing.T) {
	// The paper's central result: two to three pipeline stages beat zero
	// and one.
	l := getLab(t)
	f, err := l.Figure12()
	if err != nil {
		t.Fatal(err)
	}
	minOf := func(label string) float64 {
		ys, ok := f.Series(label)
		if !ok {
			t.Fatalf("missing series %s", label)
		}
		m := math.Inf(1)
		for _, v := range ys {
			if v < m {
				m = v
			}
		}
		return m
	}
	d0 := minOf("b=l=0")
	d1 := minOf("b=l=1")
	d2 := minOf("b=l=2")
	d3 := minOf("b=l=3")
	best23 := math.Min(d2, d3)
	if best23 >= d0 {
		t.Errorf("pipelined (%.2f) not better than unpipelined (%.2f)", best23, d0)
	}
	if best23 >= d1 {
		t.Errorf("2-3 stages (%.2f) not better than 1 stage (%.2f)", best23, d1)
	}
}

func TestBestDesignSymmetricDepth(t *testing.T) {
	l := getLab(t)
	opt, err := l.Best(context.Background(), l.Query(), cpisim.LoadStatic, true)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Best.B < 2 {
		t.Errorf("optimum depth %d, paper finds 2-3", opt.Best.B)
	}
	if opt.Evaluated != 4*len(l.P.SizesKW) {
		t.Errorf("evaluated %d symmetric points", opt.Evaluated)
	}
}

func TestBestDesignFullAtLeastAsGood(t *testing.T) {
	l := getLab(t)
	sym, err := l.Best(context.Background(), l.Query(), cpisim.LoadStatic, false)
	if err != nil {
		t.Fatal(err)
	}
	symOnly, err := l.Best(context.Background(), l.Query(), cpisim.LoadStatic, true)
	if err != nil {
		t.Fatal(err)
	}
	if sym.Best.TPINs > symOnly.Best.TPINs+1e-9 {
		t.Fatalf("full search worse than restricted: %.3f vs %.3f", sym.Best.TPINs, symOnly.Best.TPINs)
	}
}

func TestDynamicLoadsBeatStaticAtEqualTCPU(t *testing.T) {
	// Paper: dynamic load scheduling gives lower TPI if it does not
	// stretch the cycle; the break-even stretch is around 10%.
	l := getLab(t)
	be, err := l.DynamicBreakEven(3, 3, 16, 16, l.P.L2TimeNs)
	if err != nil {
		t.Fatal(err)
	}
	if be <= 0 {
		t.Errorf("dynamic scheduling no better at equal tCPU (break-even %.3f)", be)
	}
	if be > 0.5 {
		t.Errorf("break-even %.3f implausibly large", be)
	}
}

func TestFigure13OptimumSmallerThanFigure12(t *testing.T) {
	// Lower penalty shifts the optimum toward smaller caches/shallower
	// pipelines (or at least not larger).
	l := getLab(t)
	hi, err := l.Best(context.Background(), l.Query(), cpisim.LoadStatic, true)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := l.Best(context.Background(), l.queryAt(l.P.L2TimeNs*0.6), cpisim.LoadStatic, true)
	if err != nil {
		t.Fatal(err)
	}
	if lo.Best.ISizeKW > hi.Best.ISizeKW {
		t.Errorf("low penalty grew the optimal cache: %d vs %d KW", lo.Best.ISizeKW, hi.Best.ISizeKW)
	}
	if lo.Best.TPINs > hi.Best.TPINs {
		t.Errorf("lower penalty raised TPI: %.2f vs %.2f", lo.Best.TPINs, hi.Best.TPINs)
	}
}

func TestSummaryTable(t *testing.T) {
	pt := TPIPoint{B: 2, L: 2, ISizeKW: 8, DSizeKW: 8, TCPUNs: 4, PenCycles: 9, CPI: 1.5, TPINs: 6}
	out := SummaryTable("pts", []TPIPoint{pt})
	if !strings.Contains(out, "8KW") || !strings.Contains(out, "6.00") {
		t.Fatalf("summary table:\n%s", out)
	}
	if !strings.Contains(pt.String(), "TPI=6.00ns") {
		t.Fatalf("point string: %s", pt.String())
	}
}

func TestPrewarmConcurrentDeterministic(t *testing.T) {
	// Prewarm must populate the memo, and its concurrent results must
	// match a sequentially built lab bit for bit.
	l := getLab(t)
	fresh, err := NewLab(l.Suite, l.P)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Prewarm(); err != nil {
		t.Fatal(err)
	}
	seq, err := l.StaticPass(context.Background(), 2, l.P.Policy)
	if err != nil {
		t.Fatal(err)
	}
	par, err := fresh.StaticPass(context.Background(), 2, fresh.P.Policy)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Benches) != len(par.Benches) {
		t.Fatal("bench counts differ")
	}
	for i := range seq.Benches {
		a, b := &seq.Benches[i], &par.Benches[i]
		if a.Insts != b.Insts || a.BranchStall != b.BranchStall || a.CTIs != b.CTIs {
			t.Fatalf("bench %d differs: %+v vs %+v", i, a.Insts, b.Insts)
		}
		for j := range a.IMisses {
			if a.IMisses[j] != b.IMisses[j] {
				t.Fatalf("bench %d imisses differ at %d", i, j)
			}
		}
	}
}

func TestDepthMatrixDiagonalOptimal(t *testing.T) {
	// The paper: with an equal split, performance is maximized when
	// b = l — the off-diagonal (mismatched-depth) designs never beat the
	// relevant diagonal designs.
	l := getLab(t)
	m, err := l.DepthMatrix(l.P.L2TimeNs)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.BestTPI) != 4 {
		t.Fatalf("matrix rows = %d", len(m.BestTPI))
	}
	if !m.DiagonalOptimal(0.05) {
		t.Errorf("b = l not optimal:\n%s", m)
	}
	if !strings.Contains(m.String(), "b=3") {
		t.Error("rendering")
	}
}

func TestAsymmetryStudy(t *testing.T) {
	l := getLab(t)
	r, err := l.AsymmetryStudy(l.P.L2TimeNs * 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	sym, ok := r.Best("symmetric")
	if !ok {
		t.Fatal("symmetric class missing")
	}
	iheavy, _ := r.Best("I-heavy")
	dheavy, _ := r.Best("D-heavy")
	// The paper: branch delay slots are cheaper than load delay slots, so
	// the I-heavy frontier should match or beat the D-heavy one.
	if iheavy.TPINs > dheavy.TPINs+0.05 {
		t.Errorf("I-heavy (%.2f) worse than D-heavy (%.2f)", iheavy.TPINs, dheavy.TPINs)
	}
	// The constrained classes cannot beat the unconstrained sweep, and the
	// symmetric winner must be a genuine design point.
	if sym.B != sym.L || sym.ISizeKW != sym.DSizeKW {
		t.Errorf("symmetric winner is asymmetric: %+v", sym)
	}
	if !strings.Contains(r.String(), "Asymmetric") {
		t.Error("rendering")
	}
}
