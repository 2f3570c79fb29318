package core

import (
	"context"
	"fmt"
	"math"

	"pipecache/internal/cpisim"
	"pipecache/internal/tablefmt"
)

// TPIPoint is one design point of the Section 5 analysis.
type TPIPoint struct {
	B, L             int // branch and load delay slots (pipeline depths)
	ISizeKW, DSizeKW int
	LoadScheme       cpisim.LoadScheme

	TCPUNs    float64
	PenCycles int
	CPI       float64
	TPINs     float64
}

// String summarizes the point.
func (p TPIPoint) String() string {
	return fmt.Sprintf("b=%d l=%d L1-I=%dKW L1-D=%dKW %s-loads: tCPU=%.2fns P=%d CPI=%.3f TPI=%.2fns",
		p.B, p.L, p.ISizeKW, p.DSizeKW, p.LoadScheme, p.TCPUNs, p.PenCycles, p.CPI, p.TPINs)
}

// TPI evaluates one design point: the cycle time comes from the timing
// model (each side pipelined to its own depth, system cycle = max), the
// miss penalty from the constant-time L2 service q.L2TimeNs at that cycle
// time, and CPI from the simulation pass memoized per (depth, q.Policy).
// ctx aborts that pass, or the wait for a concurrent one.
func (l *Lab) TPI(ctx context.Context, q Query, dp DesignPoint) (TPIPoint, error) {
	pass, err := l.StaticPass(ctx, dp.B, q.Policy)
	if err != nil {
		return TPIPoint{}, err
	}
	pt, _, _, err := l.tpi(pass, q, dp)
	return pt, err
}

// tpi is the TPI arithmetic of dp over its pass. It also returns the
// point's indices in the size bank, so EvalPoint derives the breakdown
// and miss ratios without a second lookup.
func (l *Lab) tpi(pass *cpisim.Result, q Query, dp DesignPoint) (p TPIPoint, iIdx, dIdx int, err error) {
	l.obs.Counter("lab.tpi_points").Inc()
	p = TPIPoint{B: dp.B, L: dp.L, ISizeKW: dp.ISizeKW, DSizeKW: dp.DSizeKW, LoadScheme: dp.Scheme}
	tcpu, err := l.P.Model.TCPUSplit(dp.ISizeKW, dp.B, dp.DSizeKW, dp.L)
	if err != nil {
		return p, 0, 0, err
	}
	p.TCPUNs = tcpu
	p.PenCycles = penaltyCyclesFor(q.L2TimeNs, tcpu)
	if iIdx, err = l.sizeIndex(dp.ISizeKW); err != nil {
		return p, 0, 0, err
	}
	if dIdx, err = l.sizeIndex(dp.DSizeKW); err != nil {
		return p, 0, 0, err
	}
	cpi, err := pass.CPIFor(dp.L, dp.Scheme, iIdx, dIdx, p.PenCycles, p.PenCycles)
	if err != nil {
		return p, 0, 0, err
	}
	p.CPI = cpi
	p.TPINs = cpi * tcpu
	return p, iIdx, dIdx, nil
}

// TPISweep evaluates TPI for symmetric designs (b = l, equal split) over
// the size bank: the curves of Figures 12 and 13. ctx is checked at every
// design point.
func (l *Lab) TPISweep(ctx context.Context, q Query, scheme cpisim.LoadScheme) (*FigureResult, error) {
	f := &FigureResult{
		Title:  fmt.Sprintf("TPI vs total L1 size (split equally, b=l, %s loads, %.0fns miss service)", scheme, q.L2TimeNs),
		XLabel: "total L1 size (KW)",
		YLabel: "TPI (ns)",
	}
	for _, s := range l.P.SizesKW {
		f.X = append(f.X, float64(2*s))
	}
	l.progress.StartPhase("TPI sweep", int64(4*len(l.P.SizesKW)))
	defer l.progress.Finish()
	for depth := 0; depth <= maxDelaySlots; depth++ {
		var ys []float64
		for _, side := range l.P.SizesKW {
			pt, err := l.TPI(ctx, q, DesignPoint{B: depth, L: depth, ISizeKW: side, DSizeKW: side, Scheme: scheme})
			if err != nil {
				return nil, err
			}
			ys = append(ys, pt.TPINs)
			l.progress.Step(1)
		}
		f.Labels = append(f.Labels, fmt.Sprintf("b=l=%d", depth))
		f.Y = append(f.Y, ys)
	}
	return f, nil
}

// Figure12 is the TPI sweep at the default (10-cycle-class) miss service.
func (l *Lab) Figure12() (*FigureResult, error) {
	return l.Figure12Context(context.Background())
}

// Figure12Context is Figure12 with cooperative cancellation.
func (l *Lab) Figure12Context(ctx context.Context) (*FigureResult, error) {
	f, err := l.TPISweep(ctx, l.Query(), cpisim.LoadStatic)
	if err != nil {
		return nil, err
	}
	f.Title = "Figure 12: " + f.Title
	return f, nil
}

// Figure13 is the TPI sweep at a reduced miss service (the paper's 6-cycle
// penalty: 21 ns at the 3.5 ns cycle).
func (l *Lab) Figure13() (*FigureResult, error) {
	return l.Figure13Context(context.Background())
}

// Figure13Context is Figure13 with cooperative cancellation.
func (l *Lab) Figure13Context(ctx context.Context) (*FigureResult, error) {
	f, err := l.TPISweep(ctx, l.queryAt(l.P.L2TimeNs*0.6), cpisim.LoadStatic)
	if err != nil {
		return nil, err
	}
	f.Title = "Figure 13: " + f.Title
	return f, nil
}

// Optimum is the best design found by a sweep.
type Optimum struct {
	Best      TPIPoint
	Evaluated int
}

// BestCandidate reports whether dp is a candidate of the optimization Best
// runs for scheme: a point of that load scheme, restricted when symmetric
// to b = l with an equal split. Walking DesignSpace through it yields
// Best's candidates in Best's order, which is how the coordinator's merged
// /v1/best reproduces a single node's answer.
func BestCandidate(dp DesignPoint, scheme cpisim.LoadScheme, symmetric bool) bool {
	return dp.Scheme == scheme && (!symmetric || (dp.B == dp.L && dp.ISizeKW == dp.DSizeKW))
}

// Best searches the design space for the minimum-TPI point among the
// BestCandidate points. ctx is checked at every point. The candidates
// are independent (the memoized passes behind them are single-flighted),
// so they are evaluated on the lab's bounded worker pool; the minimum is
// then reduced serially in enumeration order, which preserves the serial
// sweep's earliest-wins tie-break at every worker count.
func (l *Lab) Best(ctx context.Context, q Query, scheme cpisim.LoadScheme, symmetric bool) (*Optimum, error) {
	var cands []DesignPoint
	for _, dp := range DesignSpace(l.P) {
		if BestCandidate(dp, scheme, symmetric) {
			cands = append(cands, dp)
		}
	}
	l.progress.StartPhase("design-space sweep", int64(len(cands)))
	defer l.progress.Finish()
	best, err := l.minTPI(ctx, q, cands)
	if err != nil {
		return nil, err
	}
	return &Optimum{Best: best, Evaluated: len(cands)}, nil
}

// minTPI evaluates cands on the lab's worker pool and returns the first
// point of minimum TPI in cands order.
func (l *Lab) minTPI(ctx context.Context, q Query, cands []DesignPoint) (TPIPoint, error) {
	pts := make([]TPIPoint, len(cands))
	err := l.forEach(ctx, len(cands), func(ctx context.Context, i int) error {
		pt, err := l.TPI(ctx, q, cands[i])
		if err != nil {
			return err
		}
		pts[i] = pt
		l.progress.Step(1)
		return nil
	})
	if err != nil {
		return TPIPoint{}, err
	}
	best := TPIPoint{TPINs: math.Inf(1)}
	for _, pt := range pts {
		if pt.TPINs < best.TPINs {
			best = pt
		}
	}
	return best, nil
}

// BestDesign is Best at the lab's policy without cancellation. It remains
// only because the end-to-end benchmark (perfbench/study.go) calls it;
// delete it at the next change to the benchmark.
func (l *Lab) BestDesign(l2TimeNs float64, scheme cpisim.LoadScheme, symmetric bool) (*Optimum, error) {
	return l.Best(context.Background(), l.queryAt(l2TimeNs), scheme, symmetric)
}

// BestDesignContext is Best at the lab's policy. It remains only because
// the end-to-end benchmark (perfbench/layers.go) calls it; delete it at
// the next change to the benchmark.
func (l *Lab) BestDesignContext(ctx context.Context, l2TimeNs float64, scheme cpisim.LoadScheme, symmetric bool) (*Optimum, error) {
	return l.Best(ctx, l.queryAt(l2TimeNs), scheme, symmetric)
}

// DynamicBreakEven returns how much tCPU could grow (as a fraction) before
// dynamic out-of-order load issue loses to static scheduling at the given
// design point — the paper's ~10% figure.
func (l *Lab) DynamicBreakEven(b, ld, iSizeKW, dSizeKW int, l2TimeNs float64) (float64, error) {
	ctx, q := context.Background(), l.queryAt(l2TimeNs)
	dp := DesignPoint{B: b, L: ld, ISizeKW: iSizeKW, DSizeKW: dSizeKW, Scheme: cpisim.LoadStatic}
	st, err := l.TPI(ctx, q, dp)
	if err != nil {
		return 0, err
	}
	dp.Scheme = cpisim.LoadDynamic
	dy, err := l.TPI(ctx, q, dp)
	if err != nil {
		return 0, err
	}
	if dy.TPINs <= 0 {
		return 0, fmt.Errorf("core: degenerate dynamic TPI")
	}
	return st.TPINs/dy.TPINs - 1, nil
}

// SummaryTable renders a set of TPI points.
func SummaryTable(title string, pts []TPIPoint) string {
	t := tablefmt.New(title, "b", "l", "L1-I", "L1-D", "loads", "tCPU (ns)", "P (cyc)", "CPI", "TPI (ns)")
	for _, p := range pts {
		t.Row(p.B, p.L,
			fmt.Sprintf("%dKW", p.ISizeKW), fmt.Sprintf("%dKW", p.DSizeKW),
			p.LoadScheme.String(),
			fmt.Sprintf("%.2f", p.TCPUNs), p.PenCycles,
			fmt.Sprintf("%.3f", p.CPI), fmt.Sprintf("%.2f", p.TPINs))
	}
	return t.String()
}

// DepthMatrixResult is the best TPI over the size bank for every (b, l)
// pair. The paper observes that with an equally split L1, "performance is
// maximized when the number of branch delay slots is equal to the number
// of load delay slots": pipelining one side deeper than the other wastes
// CPI without shortening the system cycle.
type DepthMatrixResult struct {
	Depths []int
	// BestTPI[i][j] is the best TPI with b = Depths[i], l = Depths[j].
	BestTPI [][]float64
	// BestSize[i][j] is the per-side size (KW) achieving it.
	BestSize [][]int
}

// DepthMatrix evaluates every (b, l) pair over equally split sizes.
func (l *Lab) DepthMatrix(l2TimeNs float64) (*DepthMatrixResult, error) {
	depths := []int{0, 1, 2, 3}
	l.progress.StartPhase("depth matrix", int64(len(depths)*len(depths)*len(l.P.SizesKW)))
	defer l.progress.Finish()
	res := &DepthMatrixResult{Depths: depths}
	q := l.queryAt(l2TimeNs)
	for _, b := range depths {
		rowT := make([]float64, len(depths))
		rowS := make([]int, len(depths))
		for j, ld := range depths {
			best := math.Inf(1)
			bestSize := 0
			for _, side := range l.P.SizesKW {
				pt, err := l.TPI(context.Background(), q,
					DesignPoint{B: b, L: ld, ISizeKW: side, DSizeKW: side, Scheme: cpisim.LoadStatic})
				if err != nil {
					return nil, err
				}
				l.progress.Step(1)
				if pt.TPINs < best {
					best = pt.TPINs
					bestSize = side
				}
			}
			rowT[j] = best
			rowS[j] = bestSize
		}
		res.BestTPI = append(res.BestTPI, rowT)
		res.BestSize = append(res.BestSize, rowS)
	}
	return res, nil
}

// DiagonalOptimal reports whether, for every row and column, the minimum
// lies on (or ties with) the b = l diagonal.
func (r *DepthMatrixResult) DiagonalOptimal(tol float64) bool {
	n := len(r.Depths)
	for i := 0; i < n; i++ {
		diag := r.BestTPI[i][i]
		for j := 0; j < n; j++ {
			// Any off-diagonal entry in row i or column i beating both
			// adjacent diagonal points by more than tol breaks the rule.
			if j == i {
				continue
			}
			other := r.BestTPI[j][j]
			ref := math.Min(diag, other)
			if r.BestTPI[i][j] < ref-tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix.
func (r *DepthMatrixResult) String() string {
	headers := []string{"b \\ l"}
	for _, d := range r.Depths {
		headers = append(headers, fmt.Sprintf("l=%d", d))
	}
	t := tablefmt.New("Best TPI (ns) per (branch depth, load depth), equal split", headers...)
	for i, b := range r.Depths {
		cells := []any{fmt.Sprintf("b=%d", b)}
		for j := range r.Depths {
			cells = append(cells, fmt.Sprintf("%.2f@%dKW", r.BestTPI[i][j], r.BestSize[i][j]))
		}
		t.Row(cells...)
	}
	return t.String()
}

// AsymmetryRow is one configuration class of the asymmetric-split study.
type AsymmetryRow struct {
	Class string
	Best  TPIPoint
}

// AsymmetryStudyResult compares symmetric designs against I-heavy and
// D-heavy splits. The paper's Figure 13 observation: with small refill
// penalties it pays to make the instruction cache larger and pipeline it
// more deeply than the data cache, "because increasing the number of
// branch delay slots increases CPI less than a comparable increase in load
// delay slots".
type AsymmetryStudyResult struct {
	L2TimeNs float64
	Rows     []AsymmetryRow
}

// AsymmetryStudy finds the best design in each class: symmetric (b = l,
// equal sizes), I-heavy (b >= l, I side at least as large), and D-heavy
// (the mirror image).
func (l *Lab) AsymmetryStudy(l2TimeNs float64) (*AsymmetryStudyResult, error) {
	classes := []struct {
		name string
		ok   func(b, ld, iSize, dSize int) bool
	}{
		{"symmetric", func(b, ld, i, d int) bool { return b == ld && i == d }},
		{"I-heavy", func(b, ld, i, d int) bool { return b >= ld && i >= d && (b > ld || i > d) }},
		{"D-heavy", func(b, ld, i, d int) bool { return ld >= b && d >= i && (ld > b || d > i) }},
	}
	// Collect every class's candidates first so the progress phase has a
	// total.
	cands := make([][]DesignPoint, len(classes))
	var total int64
	for _, dp := range DesignSpace(l.P) {
		if dp.Scheme != cpisim.LoadStatic {
			continue
		}
		for c, cl := range classes {
			if cl.ok(dp.B, dp.L, dp.ISizeKW, dp.DSizeKW) {
				cands[c] = append(cands[c], dp)
				total++
			}
		}
	}
	l.progress.StartPhase("asymmetry study", total)
	defer l.progress.Finish()
	res := &AsymmetryStudyResult{L2TimeNs: l2TimeNs}
	for c, cl := range classes {
		best, err := l.minTPI(context.Background(), l.queryAt(l2TimeNs), cands[c])
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, AsymmetryRow{Class: cl.name, Best: best})
	}
	return res, nil
}

// Best returns the named class's winner.
func (r *AsymmetryStudyResult) Best(class string) (TPIPoint, bool) {
	for _, row := range r.Rows {
		if row.Class == class {
			return row.Best, true
		}
	}
	return TPIPoint{}, false
}

// String renders the study.
func (r *AsymmetryStudyResult) String() string {
	t := tablefmt.New(
		fmt.Sprintf("Asymmetric L1 splits (%.0fns miss service)", r.L2TimeNs),
		"Class", "Best design")
	for _, row := range r.Rows {
		t.Row(row.Class, row.Best.String())
	}
	return t.String()
}
