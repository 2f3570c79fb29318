package cpisim

// tableDepths is the number of load-delay depths a CPITable holds: l =
// 0..3, the depths the design space studies.
const tableDepths = 4

// CPITable is a finished Result laid out for design-space sweeps: every
// per-benchmark term of CPIFor that does not depend on the penalties is
// derived once, in columns contiguous across the benchmarks, so a design
// point's CPI is one pass of multiply-adds and the harmonic reduction
// instead of a re-walk of the epsilon histograms per benchmark per point.
// CPIFor reads the same bits and errors as Result.CPIFor. A table is
// immutable and safe for concurrent use; the Result must not change after
// NewCPITable.
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
	t := &CPITable{res: r, insts: make([]float64, n), weight: make([]float64, n)}
	for l := range t.base {
		for s, scheme := range [2]LoadScheme{LoadStatic, LoadDynamic} {
			c := col()
			for k := range r.Benches {
				b := &r.Benches[k]
				c[k] = b.Insts + b.BranchStall + b.FillStall + b.LoadStallFor(l, scheme)
			}
			t.base[l][s] = c
		}
	}
	t.imiss = make([][]int64, ni)
	for i := range t.imiss {
		c := col()
		for k := range r.Benches {
			c[k] = r.Benches[k].IMisses[i]
		}
		t.imiss[i] = c
	}
	t.dmiss = make([][]int64, nd)
	for d := range t.dmiss {
		c := col()
		for k := range r.Benches {
			c[k] = r.Benches[k].DReadMisses[d] + r.Benches[k].DWriteMisses[d]
		}
		t.dmiss[d] = c
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

// CPIFor is Result.CPIFor read from the table: the weighted harmonic mean
// CPI at load depth l under scheme, with the indexed caches (-1 for a side
// without misses) at the given penalties. A depth outside 0..3 and an
// empty result go to Result.CPIFor.
func (t *CPITable) CPIFor(l int, scheme LoadScheme, icfg, dcfg, ipen, dpen int) (float64, error) {
	if l < 0 || l >= tableDepths || len(t.insts) == 0 {
		return t.res.CPIFor(l, scheme, icfg, dcfg, ipen, dpen)
	}
	s := 0
	if scheme == LoadDynamic {
		s = 1
	}
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
