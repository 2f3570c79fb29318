package interp

import (
	"pipecache/internal/isa"
	"pipecache/internal/program"
	"pipecache/internal/stats"
)

// Collector is an EventSink that accumulates the workload statistics the
// paper reports: the dynamic instruction mix (Table 1), CTI kind and
// outcome counts, and the epsilon distributions of Figures 6 and 7.
type Collector struct {
	Insts  int64
	Loads  int64
	Stores int64
	CTIs   int64

	CondBranches int64
	CondTaken    int64
	Jumps        int64 // direct jumps and calls
	IndirectCTIs int64 // register-indirect jumps (returns, dispatch)
	Syscalls     int64

	// Eps and EpsBlock are the dynamic distributions of epsilon = c + d
	// per executed-and-consumed load, unrestricted (Figure 6) and
	// truncated at basic-block boundaries (Figure 7). Bin i counts loads
	// with epsilon == i; the overflow bin is ">= bins".
	Eps      *stats.Hist
	EpsBlock *stats.Hist

	prog *program.Program // resolves block IDs for the syscall and CTI kinds
}

// NewCollector returns a Collector for p's event stream with epsilon
// histograms of the given bin count (the paper plots 0..7+).
func NewCollector(p *program.Program, epsBins int) *Collector {
	return &Collector{
		Eps:      stats.NewHist(epsBins),
		EpsBlock: stats.NewHist(epsBins),
		prog:     p,
	}
}

// Events implements EventSink.
func (c *Collector) Events(kind []uint8, a, b []uint32) {
	a = a[:len(kind)]
	b = b[:len(kind)]
	for i := range kind {
		switch EventKind(kind[i]) {
		case EvBlock:
			c.Insts += int64(b[i])
			blk := c.prog.Blocks[a[i]]
			for j := range blk.Insts {
				if blk.Insts[j].Op.Class() == isa.ClassSyscall {
					c.Syscalls++
				}
			}
		case EvLoadUse:
			c.Eps.Add(int(a[i]))
			c.EpsBlock.Add(int(b[i]))
		case EvMemLoad:
			c.Loads++
		case EvMemStore:
			c.Stores++
		case EvCTITaken, EvCTINotTaken:
			c.cti(c.prog.Blocks[a[i]], EventKind(kind[i]) == EvCTITaken)
		}
	}
}

func (c *Collector) cti(b *program.Block, taken bool) {
	c.CTIs++
	term, _ := b.Terminator()
	switch term.Op.Class() {
	case isa.ClassBranch:
		c.CondBranches++
		if taken {
			c.CondTaken++
		}
	case isa.ClassJump:
		c.Jumps++
	case isa.ClassJumpReg:
		c.IndirectCTIs++
	}
}

// LoadFrac returns the dynamic load fraction.
func (c *Collector) LoadFrac() float64 { return frac(c.Loads, c.Insts) }

// StoreFrac returns the dynamic store fraction.
func (c *Collector) StoreFrac() float64 { return frac(c.Stores, c.Insts) }

// CTIFrac returns the dynamic control-transfer fraction.
func (c *Collector) CTIFrac() float64 { return frac(c.CTIs, c.Insts) }

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
