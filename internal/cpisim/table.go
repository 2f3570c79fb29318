package cpisim

import (
	"math"
	"sync/atomic"
)

// tableDepths is the number of load-delay depths a CPITable holds: l =
// 0..3, the depths the design space studies.
const tableDepths = 4

// The memo window: a CPITable memoizes CPIFor at equal penalties pen =
// memoMinPen .. memoMinPen+memoPens-1 cycles. memoMinPen is the floor of
// every design point's refill penalty (core.penaltyCyclesFor); 64
// penalties reach past 200 ns of miss service at the default model's
// fastest cycle, 3.5 ns. The window is fixed so the memo is one slab,
// sized with the table and indexed without a map or a lock.
const (
	memoMinPen = 2
	memoPens   = 64
)

// CPITable is a finished Result laid out for design-space sweeps: every
// per-benchmark term of CPIFor that does not depend on the penalties is
// derived once, in columns contiguous across the benchmarks, so a design
// point's CPI is one pass of multiply-adds and the harmonic reduction
// instead of a re-walk of the epsilon histograms per benchmark per point,
// and a design point asked for again at a penalty it was asked for before
// reads the memoized answer. The table also stores the suite aggregates a
// point's breakdown needs, each computed once by its Result method. Every
// read returns the same bits and errors as the Result method it stands
// for. A table is safe for concurrent use; the Result must not change
// after NewCPITable.
type CPITable struct {
	res    *Result
	insts  []float64 // float64(Insts)
	weight []float64
	// base[l][s] is Insts+BranchStall+FillStall+LoadStallFor(l, scheme),
	// s = 1 for LoadDynamic and 0 for every other scheme (LoadStallFor's
	// choice of histogram).
	base  [tableDepths][2][]int64
	imiss [][]int64 // imiss[i] is IMisses[i]
	dmiss [][]int64 // dmiss[d] is DReadMisses[d]+DWriteMisses[d]
	// zero stands in for the miss column of a side evaluated without
	// misses (index -1), at penalty 0.
	zero []int64

	// memo holds CPIFor(l, scheme, i, d, pen, pen) as float64 bits at
	// (((l*2+s)*ni+i)*nd+d)*memoPens + pen-memoMinPen, s as in base, 0
	// until a read fills it. A cell is filled by the reduction it stands
	// for, and only on success, so concurrent fills store the same bits
	// and no error is ever kept.
	memo []atomic.Uint64

	// The suite aggregates, each computed by the Result method of that
	// name: BranchCPIComponent(), LoadCPIComponentFor(l, scheme) at s as
	// in base, and IMissRatio(i) and DMissRatio(d) per cache index.
	branch   float64
	load     [tableDepths][2]float64
	imr, dmr []float64
}

// NewCPITable builds r's table. It holds as many cache indices per side as
// the benchmark with the fewest entries has; CPIFor panics on an index
// past them, as Result.CPIFor does.
func NewCPITable(r *Result) *CPITable {
	n := len(r.Benches)
	ni, nd := -1, -1
	for i := range r.Benches {
		b := &r.Benches[i]
		if ni < 0 || len(b.IMisses) < ni {
			ni = len(b.IMisses)
		}
		if nd < 0 || len(b.DReadMisses) < nd {
			nd = len(b.DReadMisses)
		}
		if len(b.DWriteMisses) < nd {
			nd = len(b.DWriteMisses)
		}
	}
	ni, nd = max(ni, 0), max(nd, 0)
	slab := make([]int64, n*(tableDepths*2+ni+nd+1))
	col := func() []int64 {
		c := slab[:n:n]
		slab = slab[n:]
		return c
	}
	t := &CPITable{
		res:    r,
		insts:  make([]float64, n),
		weight: make([]float64, n),
		memo:   make([]atomic.Uint64, tableDepths*2*ni*nd*memoPens),
		branch: r.BranchCPIComponent(),
		imr:    make([]float64, ni),
		dmr:    make([]float64, nd),
	}
	for l := range t.base {
		for s, scheme := range [2]LoadScheme{LoadStatic, LoadDynamic} {
			c := col()
			for k := range r.Benches {
				b := &r.Benches[k]
				c[k] = b.Insts + b.BranchStall + b.FillStall + b.LoadStallFor(l, scheme)
			}
			t.base[l][s] = c
			t.load[l][s] = r.LoadCPIComponentFor(l, scheme)
		}
	}
	t.imiss = make([][]int64, ni)
	for i := range t.imiss {
		c := col()
		for k := range r.Benches {
			c[k] = r.Benches[k].IMisses[i]
		}
		t.imiss[i] = c
		t.imr[i] = r.IMissRatio(i)
	}
	t.dmiss = make([][]int64, nd)
	for d := range t.dmiss {
		c := col()
		for k := range r.Benches {
			c[k] = r.Benches[k].DReadMisses[d] + r.Benches[k].DWriteMisses[d]
		}
		t.dmiss[d] = c
		t.dmr[d] = r.DMissRatio(d)
	}
	t.zero = col()
	for k := range r.Benches {
		t.insts[k] = float64(r.Benches[k].Insts)
		t.weight[k] = r.Benches[k].Weight
	}
	return t
}

// Result returns the Result the table was built from.
func (t *CPITable) Result() *Result { return t.res }

// schemeCol is the column of scheme in base and load: 1 for LoadDynamic,
// 0 for every other scheme (LoadStallFor's choice of histogram).
func schemeCol(scheme LoadScheme) int {
	if scheme == LoadDynamic {
		return 1
	}
	return 0
}

// CPIFor is Result.CPIFor read from the table: the weighted harmonic mean
// CPI at load depth l under scheme, with the indexed caches (-1 for a side
// without misses) at the given penalties. A depth outside 0..3 and an
// empty result go to Result.CPIFor. Equal penalties inside the memo
// window at two cache indices the table holds read the memo, which the
// first such read fills.
func (t *CPITable) CPIFor(l int, scheme LoadScheme, icfg, dcfg, ipen, dpen int) (float64, error) {
	if l < 0 || l >= tableDepths || len(t.insts) == 0 {
		return t.res.CPIFor(l, scheme, icfg, dcfg, ipen, dpen)
	}
	s := schemeCol(scheme)
	pen := ipen - memoMinPen
	if ipen != dpen || uint(pen) >= memoPens || uint(icfg) >= uint(len(t.imiss)) || uint(dcfg) >= uint(len(t.dmiss)) {
		return t.reduce(l, s, icfg, dcfg, ipen, dpen)
	}
	cell := &t.memo[(((l*2+s)*len(t.imiss)+icfg)*len(t.dmiss)+dcfg)*memoPens+pen]
	if bits := cell.Load(); bits != 0 {
		return math.Float64frombits(bits), nil
	}
	cpi, err := t.reduce(l, s, icfg, dcfg, ipen, dpen)
	if err == nil {
		// A CPI of +0 stores the empty cell's bits: it is recomputed at
		// every read, with the same answer.
		cell.Store(math.Float64bits(cpi))
	}
	return cpi, err
}

// reduce is CPIFor computed from the columns, at depth l in 0..3 and
// scheme column s.
func (t *CPITable) reduce(l, s, icfg, dcfg, ipen, dpen int) (float64, error) {
	base := t.base[l][s]
	im, ip := t.zero, int64(0)
	if icfg >= 0 {
		im, ip = t.imiss[icfg], int64(ipen)
	}
	dm, dp := t.zero, int64(0)
	if dcfg >= 0 {
		dm, dp = t.dmiss[dcfg], int64(dpen)
	}
	n := len(base)
	im, dm, insts, weight := im[:n], dm[:n], t.insts[:n], t.weight[:n]
	var h harmonic
	for k, c := range base {
		if v, w := perInst(c+im[k]*ip+dm[k]*dp, insts[k]), weight[k]; !h.add(v, w) {
			return 0, harmonicErr(k, v, w)
		}
	}
	return h.mean()
}

// BranchCPIComponent is Result.BranchCPIComponent, computed once.
func (t *CPITable) BranchCPIComponent() float64 { return t.branch }

// LoadCPIComponentFor is Result.LoadCPIComponentFor read from the table; a
// depth outside 0..3 asks the Result.
func (t *CPITable) LoadCPIComponentFor(l int, scheme LoadScheme) float64 {
	if l < 0 || l >= tableDepths {
		return t.res.LoadCPIComponentFor(l, scheme)
	}
	return t.load[l][schemeCol(scheme)]
}

// IMissRatio is Result.IMissRatio read from the table; an index the
// table does not hold asks the Result.
func (t *CPITable) IMissRatio(icfg int) float64 {
	if uint(icfg) < uint(len(t.imr)) {
		return t.imr[icfg]
	}
	return t.res.IMissRatio(icfg)
}

// DMissRatio is Result.DMissRatio read from the table; an index the
// table does not hold asks the Result.
func (t *CPITable) DMissRatio(dcfg int) float64 {
	if uint(dcfg) < uint(len(t.dmr)) {
		return t.dmr[dcfg]
	}
	return t.res.DMissRatio(dcfg)
}
