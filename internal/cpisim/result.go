package cpisim

import (
	"fmt"

	"pipecache/internal/stats"
)

// BenchResult is the cycle decomposition of one benchmark in the
// multiprogrammed mix. All stall counts are in cycles; Insts is the useful
// instruction count of the zero-delay architecture, which is the CPI
// denominator throughout the paper.
type BenchResult struct {
	Name   string
	Weight float64
	Insts  int64

	// Control transfer accounting.
	CTIs        int64
	BranchStall int64 // squashed slots, indirect-jump noops, pad noops
	FillStall   int64 // BTB one-cycle update stalls

	// Static prediction accounting (Table 3).
	PredTaken         int64 // CTIs statically predicted taken
	PredTakenRight    int64
	PredNotTaken      int64
	PredNotTakenRight int64

	// BTB accounting (Table 4), indexed by btb.Outcome.
	BTBOutcomes [5]int64

	// Load delay accounting (Table 5). LoadStall is for the configured
	// LoadSlots/LoadScheme; the epsilon histograms allow computing the
	// stall for any other depth or scheme from the same pass
	// (LoadStallFor).
	Loads     int64 // executed loads
	LoadUses  int64 // loads whose values were consumed
	LoadStall int64
	Eps       *stats.Hist // unrestricted dynamic epsilon (Figure 6)
	EpsBlock  *stats.Hist // block-restricted epsilon (Figure 7)

	// Cache accounting, indexed by the config banks.
	IFetches     int64
	IMisses      []int64
	DReads       int64
	DWrites      int64
	DReadMisses  []int64
	DWriteMisses []int64

	// L2 holds second-level accounting when Config.L2 is enabled.
	L2 *L2Result
}

// CyclesAt returns the total cycles for the given cache-bank indexes and
// refill penalties. An index of -1 skips that side's miss cycles (a perfect
// cache). Write misses pay the same penalty as read misses (write-allocate
// write-back, the configuration of the study).
func (b *BenchResult) CyclesAt(icfg, dcfg, ipen, dpen int) int64 {
	cycles := b.Insts + b.BranchStall + b.FillStall + b.LoadStall
	if icfg >= 0 {
		cycles += b.IMisses[icfg] * int64(ipen)
	}
	if dcfg >= 0 {
		cycles += (b.DReadMisses[dcfg] + b.DWriteMisses[dcfg]) * int64(dpen)
	}
	return cycles
}

// CPI returns cycles per useful instruction for the given cache
// configuration indexes and penalties.
func (b *BenchResult) CPI(icfg, dcfg, ipen, dpen int) float64 {
	return perInst(b.CyclesAt(icfg, dcfg, ipen, dpen), float64(b.Insts))
}

// perInst is cycles per useful instruction, 0 for a benchmark that ran
// none: the per-benchmark value under every suite CPI.
func perInst(cycles int64, insts float64) float64 {
	if insts == 0 {
		return 0
	}
	return float64(cycles) / insts
}

// IMissRatio returns instruction-fetch misses per fetch for the indexed
// I-cache.
func (b *BenchResult) IMissRatio(icfg int) float64 {
	if b.IFetches == 0 {
		return 0
	}
	return float64(b.IMisses[icfg]) / float64(b.IFetches)
}

// DMissRatio returns data misses per data access for the indexed D-cache.
func (b *BenchResult) DMissRatio(dcfg int) float64 {
	total := b.DReads + b.DWrites
	if total == 0 {
		return 0
	}
	return float64(b.DReadMisses[dcfg]+b.DWriteMisses[dcfg]) / float64(total)
}

// BranchStallPerCTI returns stall cycles per executed CTI (Tables 3 and 4
// report 1 + this as "cycles per CTI", before cache effects).
func (b *BenchResult) BranchStallPerCTI() float64 {
	if b.CTIs == 0 {
		return 0
	}
	return float64(b.BranchStall+b.FillStall) / float64(b.CTIs)
}

// LoadStallPerLoad returns the delay cycles per executed load (Table 5).
func (b *BenchResult) LoadStallPerLoad() float64 {
	if b.Loads == 0 {
		return 0
	}
	return float64(b.LoadStall) / float64(b.Loads)
}

// LoadStallFor returns the total load stall cycles this benchmark would
// incur with l load delay slots under the given scheme, computed from the
// recorded epsilon distributions.
func (b *BenchResult) LoadStallFor(l int, scheme LoadScheme) int64 {
	h := b.EpsBlock
	if scheme == LoadDynamic {
		h = b.Eps
	}
	if h == nil || l <= 0 {
		return 0
	}
	var stall int64
	for e := 0; e < l && e < h.Bins(); e++ {
		stall += int64(h.Count(e)) * int64(l-e)
	}
	return stall
}

// CyclesFor returns total cycles like CyclesAt but with the load stall
// recomputed for an arbitrary load-delay depth and scheme.
func (b *BenchResult) CyclesFor(l int, scheme LoadScheme, icfg, dcfg, ipen, dpen int) int64 {
	cycles := b.Insts + b.BranchStall + b.FillStall + b.LoadStallFor(l, scheme)
	if icfg >= 0 {
		cycles += b.IMisses[icfg] * int64(ipen)
	}
	if dcfg >= 0 {
		cycles += (b.DReadMisses[dcfg] + b.DWriteMisses[dcfg]) * int64(dpen)
	}
	return cycles
}

// CPIFor returns CPI with the load stall recomputed for depth l under the
// given scheme.
func (b *BenchResult) CPIFor(l int, scheme LoadScheme, icfg, dcfg, ipen, dpen int) float64 {
	return perInst(b.CyclesFor(l, scheme, icfg, dcfg, ipen, dpen), float64(b.Insts))
}

// Result is a full multiprogrammed run.
type Result struct {
	Config  Config
	Benches []BenchResult
}

// CPI returns the weighted harmonic mean CPI across the benchmarks, the
// paper's summary metric, for the given cache indexes and penalties.
func (r *Result) CPI(icfg, dcfg, ipen, dpen int) (float64, error) {
	return r.harmonicCPI(func(b *BenchResult) float64 { return b.CPI(icfg, dcfg, ipen, dpen) })
}

// harmonicCPI is the weighted harmonic mean of cpi over the benchmarks,
// weighted by their mix weights (see harmonic).
func (r *Result) harmonicCPI(cpi func(b *BenchResult) float64) (float64, error) {
	if len(r.Benches) == 0 {
		return 0, fmt.Errorf("cpisim: empty result")
	}
	var h harmonic
	for i := range r.Benches {
		if v, w := cpi(&r.Benches[i]), r.Benches[i].Weight; !h.add(v, w) {
			return 0, harmonicErr(i, v, w)
		}
	}
	return h.mean()
}

// harmonic is stats.WeightedHarmonicMean reduced in place, one value at a
// time: the same operations in the same order with the same error texts,
// without the two slices the stats call needs. It sits under every design
// point's CPI (harmonicCPI and CPITable.CPIFor), so it must not allocate.
type harmonic struct{ wsum, inv float64 }

// add folds in value v of weight w, or reports false, folding in nothing,
// when either fails its check (harmonicErr says which).
func (h *harmonic) add(v, w float64) bool {
	if v <= 0 || w < 0 {
		return false
	}
	h.wsum += w
	h.inv += w / v
	return true
}

// harmonicErr is the error of a value v of weight w at index k that add
// refused: the value's check comes first.
func harmonicErr(k int, v, w float64) error {
	if v <= 0 {
		return fmt.Errorf("stats: non-positive value %g at index %d", v, k)
	}
	return fmt.Errorf("stats: negative weight %g at index %d", w, k)
}

// mean is the reduction's result.
func (h *harmonic) mean() (float64, error) {
	if h.wsum <= 0 {
		return 0, fmt.Errorf("stats: weights sum to zero")
	}
	return h.wsum / h.inv, nil
}

// Agg sums a per-benchmark counter over the suite.
func (r *Result) agg(f func(*BenchResult) int64) int64 {
	var s int64
	for i := range r.Benches {
		s += f(&r.Benches[i])
	}
	return s
}

// BranchStallPerCTI returns the suite-level stall cycles per CTI.
func (r *Result) BranchStallPerCTI() float64 {
	ctis := r.agg(func(b *BenchResult) int64 { return b.CTIs })
	if ctis == 0 {
		return 0
	}
	stall := r.agg(func(b *BenchResult) int64 { return b.BranchStall + b.FillStall })
	return float64(stall) / float64(ctis)
}

// LoadStallPerLoad returns the suite-level delay cycles per load.
func (r *Result) LoadStallPerLoad() float64 {
	loads := r.agg(func(b *BenchResult) int64 { return b.Loads })
	if loads == 0 {
		return 0
	}
	return float64(r.agg(func(b *BenchResult) int64 { return b.LoadStall })) / float64(loads)
}

// BranchCPIComponent returns suite branch-stall cycles per instruction
// (the "additional CPI" of Tables 3 and 4).
func (r *Result) BranchCPIComponent() float64 {
	insts := r.agg(func(b *BenchResult) int64 { return b.Insts })
	if insts == 0 {
		return 0
	}
	stall := r.agg(func(b *BenchResult) int64 { return b.BranchStall + b.FillStall })
	return float64(stall) / float64(insts)
}

// LoadCPIComponent returns suite load-stall cycles per instruction
// (Table 5's "CPI" column).
func (r *Result) LoadCPIComponent() float64 {
	insts := r.agg(func(b *BenchResult) int64 { return b.Insts })
	if insts == 0 {
		return 0
	}
	return float64(r.agg(func(b *BenchResult) int64 { return b.LoadStall })) / float64(insts)
}

// IMissRatio returns the suite instruction miss ratio for the indexed
// I-cache.
func (r *Result) IMissRatio(icfg int) float64 {
	f := r.agg(func(b *BenchResult) int64 { return b.IFetches })
	if f == 0 {
		return 0
	}
	m := r.agg(func(b *BenchResult) int64 { return b.IMisses[icfg] })
	return float64(m) / float64(f)
}

// DMissRatio returns the suite data miss ratio for the indexed D-cache.
func (r *Result) DMissRatio(dcfg int) float64 {
	a := r.agg(func(b *BenchResult) int64 { return b.DReads + b.DWrites })
	if a == 0 {
		return 0
	}
	m := r.agg(func(b *BenchResult) int64 { return b.DReadMisses[dcfg] + b.DWriteMisses[dcfg] })
	return float64(m) / float64(a)
}

// CPIFor returns the weighted harmonic mean CPI with load stalls
// recomputed for depth l under the given scheme.
func (r *Result) CPIFor(l int, scheme LoadScheme, icfg, dcfg, ipen, dpen int) (float64, error) {
	return r.harmonicCPI(func(b *BenchResult) float64 { return b.CPIFor(l, scheme, icfg, dcfg, ipen, dpen) })
}

// LoadStallPerLoadFor returns the suite delay cycles per load at depth l
// under the given scheme (Table 5's rows).
func (r *Result) LoadStallPerLoadFor(l int, scheme LoadScheme) float64 {
	loads := r.agg(func(b *BenchResult) int64 { return b.Loads })
	if loads == 0 {
		return 0
	}
	stall := r.agg(func(b *BenchResult) int64 { return b.LoadStallFor(l, scheme) })
	return float64(stall) / float64(loads)
}

// LoadCPIComponentFor returns suite load-stall cycles per instruction at
// depth l under the given scheme.
func (r *Result) LoadCPIComponentFor(l int, scheme LoadScheme) float64 {
	insts := r.agg(func(b *BenchResult) int64 { return b.Insts })
	if insts == 0 {
		return 0
	}
	stall := r.agg(func(b *BenchResult) int64 { return b.LoadStallFor(l, scheme) })
	return float64(stall) / float64(insts)
}

// EpsHist returns the suite-level epsilon histogram: unrestricted
// (Figure 6) when dynamic is true, block-restricted (Figure 7) otherwise.
func (r *Result) EpsHist(dynamic bool) *stats.Hist {
	h := stats.NewHist(epsBins)
	for i := range r.Benches {
		src := r.Benches[i].EpsBlock
		if dynamic {
			src = r.Benches[i].Eps
		}
		if src != nil {
			// Same bin count by construction.
			_ = h.Merge(src)
		}
	}
	return h
}

// btbPenalized returns the count of CTIs that pay the full delay plus the
// BTB fill stall: wrong direction, wrong target, or taken misses
// (outcomes 1-3).
func (r *Result) btbPenalized() int64 {
	return r.agg(func(b *BenchResult) int64 {
		return b.BTBOutcomes[1] + b.BTBOutcomes[2] + b.BTBOutcomes[3]
	})
}

// BTBStallPerCTIFor returns the BTB scheme's stall cycles per CTI for an
// architecture with d branch delay cycles: each penalized CTI costs the
// full delay plus the one-cycle fill stall, so one simulation pass covers
// every depth (Table 4's rows).
func (r *Result) BTBStallPerCTIFor(d int) float64 {
	ctis := r.agg(func(b *BenchResult) int64 { return b.CTIs })
	if ctis == 0 {
		return 0
	}
	bad := r.btbPenalized()
	return float64(bad*int64(d)+bad) / float64(ctis)
}

// BTBCPIComponentFor returns the BTB scheme's stall cycles per instruction
// for d branch delay cycles (Table 4's "CPI" column).
func (r *Result) BTBCPIComponentFor(d int) float64 {
	insts := r.agg(func(b *BenchResult) int64 { return b.Insts })
	if insts == 0 {
		return 0
	}
	bad := r.btbPenalized()
	return float64(bad*int64(d)+bad) / float64(insts)
}

// PredTakenFrac returns the fraction of executed CTIs statically predicted
// taken, and the accuracy within that class (Table 3).
func (r *Result) PredTakenFrac() (frac, accuracy float64) {
	ctis := r.agg(func(b *BenchResult) int64 { return b.CTIs })
	taken := r.agg(func(b *BenchResult) int64 { return b.PredTaken })
	right := r.agg(func(b *BenchResult) int64 { return b.PredTakenRight })
	if ctis == 0 || taken == 0 {
		return 0, 0
	}
	return float64(taken) / float64(ctis), float64(right) / float64(taken)
}

// PredNotTakenFrac mirrors PredTakenFrac for the not-taken class.
func (r *Result) PredNotTakenFrac() (frac, accuracy float64) {
	ctis := r.agg(func(b *BenchResult) int64 { return b.CTIs })
	nt := r.agg(func(b *BenchResult) int64 { return b.PredNotTaken })
	right := r.agg(func(b *BenchResult) int64 { return b.PredNotTakenRight })
	if ctis == 0 || nt == 0 {
		return 0, 0
	}
	return float64(nt) / float64(ctis), float64(right) / float64(nt)
}
