package core

import (
	"context"
	"fmt"
	"math"

	"pipecache/internal/cache"
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
	if err := ValidateL2TimeNs(q.L2TimeNs); err != nil {
		return TPIPoint{}, err
	}
	tab, err := l.staticTable(ctx, dp.B, q.Policy)
	if err != nil {
		return TPIPoint{}, err
	}
	l.obs.Counter("lab.tpi_points").Inc()
	c := l.candidate(dp)
	return tpi(tab, q, &c)
}

// cpiAt is the one point evaluator under TPI, EvalPoint and every sweep:
// c's refill penalty at q's miss service and its CPI read from its pass's
// CPI table. The point's TPI is cpi x c.tcpu. The caller has validated q
// and counts the point in lab.tpi_points.
func cpiAt(tab *cpisim.CPITable, q Query, c *candidate) (pen int, cpi float64, err error) {
	if c.err != nil {
		return 0, 0, c.err
	}
	pen = penaltyCyclesFor(q.L2TimeNs, c.tcpu)
	cpi, err = tab.CPIFor(c.dp.L, c.dp.Scheme, c.iIdx, c.dIdx, pen, pen)
	return pen, cpi, err
}

// tpi is c's TPIPoint over its pass's CPI table (cpiAt).
func tpi(tab *cpisim.CPITable, q Query, c *candidate) (TPIPoint, error) {
	pen, cpi, err := cpiAt(tab, q, c)
	if err != nil {
		return TPIPoint{}, err
	}
	return c.point(pen, cpi), nil
}

// tcpuSplit is P.Model.TCPUSplit read from the lab's tCPU table: the
// larger of the two sides' entries, so the bits (and any error) are the
// model's. A side the table does not hold (a size outside the bank, a
// depth outside 0..maxDelaySlots) asks the model for the whole split.
func (l *Lab) tcpuSplit(iSizeKW, iDepth, dSizeKW, dDepth int) (float64, error) {
	ti, td := l.tcpuCell(iSizeKW, iDepth), l.tcpuCell(dSizeKW, dDepth)
	if ti == nil || td == nil {
		return l.P.Model.TCPUSplit(iSizeKW, iDepth, dSizeKW, dDepth)
	}
	if ti.err != nil {
		return 0, ti.err
	}
	if td.err != nil {
		return 0, td.err
	}
	return math.Max(ti.ns, td.ns), nil
}

// tcpuCell returns the table entry of one cache side, or nil when the
// table does not hold it.
func (l *Lab) tcpuCell(sizeKW, depth int) *tcpuCell {
	if depth < 0 || depth > maxDelaySlots {
		return nil
	}
	for i, s := range l.P.SizesKW {
		if s == sizeKW {
			return &l.tcpu[i][depth]
		}
	}
	return nil
}

// depthTables holds the CPI tables of a sweep's resolved static passes,
// indexed by depth.
type depthTables [maxDelaySlots + 1]*cpisim.CPITable

// sweepPasses resolves the StaticPass under pol of each of depths, one
// depth per sweep item, before a sweep evaluates its points: each point
// then reads its pass's CPI table from the array instead of taking the
// memo lock once per point, and lab.pass_requests counts once per depth
// per sweep.
// Resolving the passes first also keeps a cold sweep from parking every
// worker on one pass at a time, as a point sweep in enumeration order (b
// outermost) would. Only a sweep with a pass still to run uses the pool;
// when every pass is memoized, the lookups run on the calling goroutine,
// so a warm sweep starts and wakes no worker. Every depth must lie in
// 0..maxDelaySlots.
func (l *Lab) sweepPasses(ctx context.Context, pol cache.Policy, depths []int) (depthTables, error) {
	var passes depthTables
	resolve := func(ctx context.Context, i int) error {
		tab, err := l.staticTable(ctx, depths[i], pol)
		passes[depths[i]] = tab
		return err
	}
	for _, d := range depths {
		if !l.memoized(passKey{b: d, scheme: cpisim.BranchStatic, policy: pol}) {
			return passes, l.forEach(ctx, len(depths), resolve)
		}
	}
	return passes, eachSerial(ctx, len(depths), resolve)
}

// depthsOf returns the distinct branch depths of cands in first-seen
// order.
func depthsOf(cands []candidate) []int {
	var seen [maxDelaySlots + 1]bool
	var depths []int
	for _, c := range cands {
		if b := c.dp.B; !seen[b] {
			seen[b] = true
			depths = append(depths, b)
		}
	}
	return depths
}

// TPISweep evaluates TPI for symmetric designs (b = l, equal split) over
// the size bank: the curves of Figures 12 and 13. ctx is checked at every
// design point.
func (l *Lab) TPISweep(ctx context.Context, q Query, scheme cpisim.LoadScheme) (*FigureResult, error) {
	if err := ValidateL2TimeNs(q.L2TimeNs); err != nil {
		return nil, err
	}
	f := &FigureResult{
		Title:  fmt.Sprintf("TPI vs total L1 size (split equally, b=l, %s loads, %.0fns miss service)", scheme, q.L2TimeNs),
		XLabel: "total L1 size (KW)",
		YLabel: "TPI (ns)",
	}
	for _, s := range l.P.SizesKW {
		f.X = append(f.X, float64(2*s))
	}
	depths := everyDepth()
	l.progress.StartPhase("TPI sweep", int64(len(depths)*len(l.P.SizesKW)))
	defer l.progress.Finish()
	passes, err := l.sweepPasses(ctx, q.Policy, depths)
	if err != nil {
		return nil, err
	}
	points := l.obs.Counter("lab.tpi_points")
	for _, depth := range depths {
		var ys []float64
		for _, side := range l.P.SizesKW {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			points.Inc()
			c := l.candidate(DesignPoint{B: depth, L: depth, ISizeKW: side, DSizeKW: side, Scheme: scheme})
			pt, err := tpi(passes[depth], q, &c)
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

// Best searches the design space for the minimum-TPI point among the
// points of scheme, restricted when symmetric to b = l with an equal
// split. ctx is checked at every point. The passes behind the candidates
// run first, on the lab's bounded worker pool when any is cold; the
// points are then table arithmetic, evaluated in enumeration order on the
// calling goroutine, and the first minimum wins ties, so the answer is
// the same at every worker count.
func (l *Lab) Best(ctx context.Context, q Query, scheme cpisim.LoadScheme, symmetric bool) (*Optimum, error) {
	if err := ValidateL2TimeNs(q.L2TimeNs); err != nil {
		return nil, err
	}
	cands := l.cands[candKey{scheme: scheme, symmetric: symmetric}]
	l.progress.StartPhase("design-space sweep", int64(len(cands)))
	defer l.progress.Finish()
	best, err := l.minTPI(ctx, q, cands)
	if err != nil {
		return nil, err
	}
	return &Optimum{Best: best, Evaluated: len(cands)}, nil
}

// minTPI resolves the passes of cands, then evaluates the points in cands
// order on the calling goroutine and returns the first point of minimum
// TPI (TPINs +Inf when no point has a TPI below it). Only the running
// minimum becomes a TPIPoint. The caller has validated q.
func (l *Lab) minTPI(ctx context.Context, q Query, cands []candidate) (TPIPoint, error) {
	passes, err := l.sweepPasses(ctx, q.Policy, depthsOf(cands))
	if err != nil {
		return TPIPoint{}, err
	}
	points := l.obs.Counter("lab.tpi_points")
	var (
		best             *candidate
		bestPen          int
		bestCPI, bestTPI = 0.0, math.Inf(1)
	)
	err = eachSerial(ctx, len(cands), func(ctx context.Context, i int) error {
		points.Inc()
		c := &cands[i]
		pen, cpi, err := cpiAt(passes[c.dp.B], q, c)
		if err != nil {
			return err
		}
		if t := cpi * c.tcpu; t < bestTPI {
			best, bestPen, bestCPI, bestTPI = c, pen, cpi, t
		}
		l.progress.Step(1)
		return nil
	})
	if err != nil {
		return TPIPoint{}, err
	}
	if best == nil {
		return TPIPoint{TPINs: math.Inf(1)}, nil
	}
	return best.point(bestPen, bestCPI), nil
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
	if err := ValidateL2TimeNs(l2TimeNs); err != nil {
		return nil, err
	}
	depths := everyDepth()
	l.progress.StartPhase("depth matrix", int64(len(depths)*len(depths)*len(l.P.SizesKW)))
	defer l.progress.Finish()
	res := &DepthMatrixResult{Depths: depths}
	q := l.queryAt(l2TimeNs)
	passes, err := l.sweepPasses(context.Background(), q.Policy, depths)
	if err != nil {
		return nil, err
	}
	points := l.obs.Counter("lab.tpi_points")
	for _, b := range depths {
		rowT := make([]float64, len(depths))
		rowS := make([]int, len(depths))
		for j, ld := range depths {
			best := math.Inf(1)
			bestSize := 0
			for _, side := range l.P.SizesKW {
				points.Inc()
				c := l.candidate(DesignPoint{B: b, L: ld, ISizeKW: side, DSizeKW: side, Scheme: cpisim.LoadStatic})
				pt, err := tpi(passes[b], q, &c)
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
	if err := ValidateL2TimeNs(l2TimeNs); err != nil {
		return nil, err
	}
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
	cands := make([][]candidate, len(classes))
	var total int64
	for _, dp := range DesignSpace(l.P) {
		if dp.Scheme != cpisim.LoadStatic {
			continue
		}
		for c, cl := range classes {
			if cl.ok(dp.B, dp.L, dp.ISizeKW, dp.DSizeKW) {
				cands[c] = append(cands[c], l.candidate(dp))
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
