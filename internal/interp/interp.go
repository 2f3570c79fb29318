// Package interp executes synthesized programs and produces the dynamic
// event stream that drives the trace-driven cache and pipeline simulation.
//
// The interpreter walks the control-flow graph, resolves branch outcomes
// from each block's behavioural model, generates concrete data addresses
// from the program's data layout, and measures the dynamic register
// dependency distances around loads (the c and d of Section 3.2) both
// unrestricted (Figure 6) and truncated at basic-block boundaries
// (Figure 7).
//
// Instruction fetch is reported at block granularity; consumers that model
// rescheduled code (delay slots, squashing) translate block entries into
// fetch address streams using the translation tables from the sched
// package, exactly as the paper's translation files were applied to its
// traces.
//
// Run is the one execution loop. It delivers the stream to an EventSink in
// batches of parallel kind/A/B columns (events.go), the encoding the trace
// package stores, so live and replayed streams reach every consumer in the
// same shape.
package interp

import (
	"fmt"

	"pipecache/internal/isa"
	"pipecache/internal/program"
	"pipecache/internal/stats"
)

// EpsCap is the ceiling applied to reported dependency distances; distances
// at least EpsCap behave identically for every pipeline depth under study
// (the paper's histograms top out at ">= 3").
const EpsCap = 64

// Interp executes one program.
type Interp struct {
	prog *program.Program
	rng  *stats.RNG

	cur     int   // current block ID
	icount  int64 // executed instructions
	curProc int
	stack   []frame
	cursors []uint32 // per-region array walk positions

	// meta is the static per-block decode, built lazily by the first Run.
	meta []blockMeta
	// kind, a and b are the batch columns Run fills and hands to its sink,
	// allocated by the first Run.
	kind []uint8
	a, b []uint32

	lastDef [isa.NumRegs]int64
	pending [isa.NumRegs]loadRec
	// nPending counts active records in pending; most instructions execute
	// with none in flight, and the count lets them skip the source-register
	// resolution scan entirely.
	nPending  int
	heapDrift uint32
}

type frame struct {
	returnBlock int
	proc        int
}

type loadRec struct {
	active bool
	at     int64
	c      int // dynamic distance to the address register's definition
	maxC   int // block-restricted ceiling on c
	maxD   int // block-restricted ceiling on d
}

// New returns an interpreter for the program. The seed fixes branch
// outcomes and heap addresses; the same (program, seed) pair always
// produces the same stream.
func New(p *program.Program, seed uint64) (*Interp, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	if err := p.ValidateData(); err != nil {
		return nil, fmt.Errorf("interp: %w", err)
	}
	it := &Interp{
		prog:    p,
		rng:     stats.NewRNG(seed),
		curProc: p.Entry,
		cur:     p.Procs[p.Entry].Entry,
		cursors: make([]uint32, len(p.Data.Regions)),
	}
	for i := range it.lastDef {
		it.lastDef[i] = -(1 << 40)
	}
	return it, nil
}

// Executed returns the number of instructions executed so far.
func (it *Interp) Executed() int64 { return it.icount }

func capEps(e int) int {
	if e > EpsCap {
		return EpsCap
	}
	return e
}

// dataAddr turns a memory instruction's behaviour into a word address.
func (it *Interp) dataAddr(in *program.Inst) uint32 {
	d := &it.prog.Data
	switch in.Mem.Kind {
	case program.MemGP:
		return d.GPBase + uint32(in.Mem.Offset)%d.GPSize
	case program.MemStack:
		fid := uint32(it.prog.Procs[it.curProc].FrameID)
		return d.StackBase + fid*d.FrameSize + uint32(in.Mem.Offset)%d.FrameSize
	case program.MemArray:
		r := &d.Regions[in.Mem.Region]
		it.cursors[in.Mem.Region] += uint32(in.Mem.Stride)
		return r.Base + (it.cursors[in.Mem.Region]+uint32(in.Mem.Offset))%r.Size
	case program.MemHeap:
		// Heap references cluster: most hit a hot window that drifts
		// slowly through the region (allocation locality), the rest
		// scatter (pointer chasing).
		r := &d.Regions[in.Mem.Region]
		if it.rng.Bool(0.9) {
			window := r.Size / 16
			if window < 64 {
				window = r.Size
			}
			it.heapDrift++
			base := (it.heapDrift / 4096 * (window / 2)) % r.Size
			return r.Base + (base+uint32(it.rng.Intn(int(window))))%r.Size
		}
		return r.Base + uint32(it.rng.Intn(int(r.Size)))
	default:
		// Validation prevents this.
		panic(fmt.Sprintf("interp: memory op %q without behaviour", in.Inst))
	}
}
