package cpisim

import (
	"fmt"

	"pipecache/internal/cache"
)

// Two-level hierarchy support. The paper's main experiments treat the L1
// miss penalty as a constant (the L2 always hits); the block diagram of
// Figure 1, however, shows a unified second-level cache between L1 and
// main memory. L2Config enables that substrate: L1 misses of a designated
// L1 pair probe a bank of unified L2 configurations, so one pass yields
// the L1+L2 cycle decomposition for every L2 size at once.
type L2Config struct {
	// Caches is the bank of unified L2 configurations to evaluate.
	Caches []cache.Config
	// IIndex and DIndex designate which L1 configurations feed the L2
	// (the L2 reference stream is the union of those two caches' misses).
	IIndex int
	DIndex int
}

// Enabled reports whether a two-level hierarchy was requested.
func (l L2Config) Enabled() bool { return len(l.Caches) > 0 }

// Validate checks the configuration against the L1 banks.
func (l L2Config) Validate(c Config) error {
	if !l.Enabled() {
		return nil
	}
	for _, cc := range l.Caches {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("cpisim: l2: %w", err)
		}
	}
	if l.IIndex < 0 || l.IIndex >= len(c.ICaches) {
		return fmt.Errorf("cpisim: l2 feeds missing icache %d", l.IIndex)
	}
	if l.DIndex < 0 || l.DIndex >= len(c.DCaches) {
		return fmt.Errorf("cpisim: l2 feeds missing dcache %d", l.DIndex)
	}
	return nil
}

// L2Result is the per-benchmark second-level accounting, indexed like the
// L2 bank.
type L2Result struct {
	Accesses int64
	Misses   []int64
}

// L2MissRatio returns local misses per L2 access for the indexed L2.
func (r *L2Result) L2MissRatio(idx int) float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses[idx]) / float64(r.Accesses)
}

// CPITwoLevel returns CPI for the designated L1 pair backed by the indexed
// L2: every L1 miss pays l2Hit cycles, and L2 misses pay a further mem
// cycles.
func (b *BenchResult) CPITwoLevel(l2idx int, cfg Config, l2Hit, mem int) float64 {
	if b.Insts == 0 || b.L2 == nil {
		return 0
	}
	cycles := b.Insts + b.BranchStall + b.FillStall + b.LoadStall
	l1Misses := b.IMisses[cfg.L2.IIndex] +
		b.DReadMisses[cfg.L2.DIndex] + b.DWriteMisses[cfg.L2.DIndex]
	cycles += l1Misses * int64(l2Hit)
	cycles += b.L2.Misses[l2idx] * int64(mem)
	return float64(cycles) / float64(b.Insts)
}

// CPITwoLevel returns the weighted harmonic mean CPI of the suite for the
// designated L1 pair backed by the indexed L2.
func (r *Result) CPITwoLevel(l2idx, l2Hit, mem int) (float64, error) {
	return r.harmonicCPI(func(b *BenchResult) float64 { return b.CPITwoLevel(l2idx, r.Config, l2Hit, mem) })
}

// L2MissRatio returns the suite-level local L2 miss ratio for the indexed
// L2 configuration.
func (r *Result) L2MissRatio(idx int) float64 {
	var acc, miss int64
	for i := range r.Benches {
		if l2 := r.Benches[i].L2; l2 != nil {
			acc += l2.Accesses
			miss += l2.Misses[idx]
		}
	}
	if acc == 0 {
		return 0
	}
	return float64(miss) / float64(acc)
}
