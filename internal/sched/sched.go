// Package sched implements the paper's object-code post-processor for
// delayed branches with optional squashing (Section 3.1).
//
// For an architecture with b branch delay slots, each control transfer
// instruction (CTI) is followed by b delay slots. The post-processor fills
// them in three ways, mirroring the paper's four-step procedure:
//
//  1. r slots are filled by hoisting the CTI over the r independent
//     instructions that precede it in its basic block (always useful, never
//     squashed);
//  2. the remaining s = b - r slots are filled from the predicted path:
//     instructions replicated from the branch target for CTIs statically
//     predicted taken (code expansion!), or the fall-through instructions
//     for CTIs predicted not-taken (no replication needed);
//  3. for register-indirect jumps the target is unknown at compile time, so
//     the s slots hold noops.
//
// Static prediction follows the paper: backward conditional branches and
// all direct jumps/calls are predicted taken, forward conditional branches
// not-taken.
//
// The result is a Translation: the per-block address mapping, delay-slot
// bookkeeping, and static code expansion that the trace-driven simulator
// applies to the instruction fetch stream — the in-memory equivalent of the
// paper's translation files.
package sched

import (
	"fmt"

	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// BlockXlat is the translation record for one basic block.
type BlockXlat struct {
	// NewAddr is the block's entry address in the translated layout.
	NewAddr uint32
	// NewLen is the block's translated instruction count, including
	// replicated delay-slot instructions and noops.
	NewLen int
	// HasCTI reports whether the block ends in a CTI.
	HasCTI bool
	// R is the number of delay slots filled by hoisting the CTI (useful on
	// both paths).
	R int
	// S is the number of delay slots filled from the predicted path and
	// squashed on a misprediction.
	S int
	// Noops is the number of delay slots filled with noops
	// (register-indirect jumps only); they are always wasted.
	Noops int
	// PredTaken is the static prediction of the terminating CTI.
	PredTaken bool
	// Indirect marks register-indirect CTIs.
	Indirect bool
	// CTIAddr is the translated address of the CTI itself.
	CTIAddr uint32

	// The fetch consequences of a taken outcome, the translation-file rule
	// every consumer of the fetch stream applies. SquashN words from
	// SquashAddr are fetched and squashed when a CTI predicted not taken is
	// taken: the s delay slots hold the first fall-through instructions
	// (clipped to the fall-through block's length). Skip is how many
	// leading target instructions a correctly predicted taken direct CTI
	// already executed in its delay slots; Fetches drops them from the
	// target's fetches.
	SquashAddr uint32
	SquashN    int
	Skip       int
}

// Translation maps a program onto an architecture with B branch delay
// slots.
type Translation struct {
	B      int
	Blocks []BlockXlat // indexed by block ID

	// OrigWords and NewWords are the static code sizes before and after
	// delay-slot insertion.
	OrigWords int
	NewWords  int
}

// Expansion returns the fractional static code size increase, the quantity
// of Table 2.
func (t *Translation) Expansion() float64 {
	if t.OrigWords == 0 {
		return 0
	}
	return float64(t.NewWords-t.OrigWords) / float64(t.OrigWords)
}

// xlatKey memoizes heuristic translations per program (see Translate).
type xlatKey struct{ b int }

// Translate builds the translation of p for an architecture with b branch
// delay slots with optional squashing. b = 0 returns the identity
// translation. The program must be validated and laid out.
//
// The result is memoized on the program: a Translation is a pure function
// of (program, slot count) and read-only after construction, so sweeps
// that build one simulator per pass share a single translation per slot
// count instead of re-running the post-processor. Profiled translations
// (TranslateProfiled) are rebuilt per call, as they depend on the profile
// and edit the translation in place.
func Translate(p *program.Program, b int) (*Translation, error) {
	if b < 0 {
		return nil, fmt.Errorf("sched: negative delay slots %d", b)
	}
	v, err := p.Memo(xlatKey{b}, func() (any, error) { return translate(p, b) })
	if err != nil {
		return nil, err
	}
	return v.(*Translation), nil
}

// translate is the uncached post-processor; TranslateProfiled starts from
// it so the copy it mutates is private.
func translate(p *program.Program, b int) (*Translation, error) {
	t := &Translation{
		B:      b,
		Blocks: make([]BlockXlat, len(p.Blocks)),
	}

	// Pass 1: per-block slot allocation and lengths.
	for id, blk := range p.Blocks {
		x := &t.Blocks[id]
		x.NewLen = len(blk.Insts)
		t.OrigWords += len(blk.Insts)

		term, ok := blk.Terminator()
		if !ok {
			continue
		}
		x.HasCTI = true
		x.R = program.CTIMovable(blk)
		if x.R > b {
			x.R = b
		}
		rest := b - x.R

		switch term.Op.Class() {
		case isa.ClassBranch:
			// Backward branches predicted taken, forward not-taken.
			x.PredTaken = p.Block(blk.Taken) != nil && p.Block(blk.Taken).Addr <= blk.Addr
			x.S = rest
			if x.PredTaken {
				// Replicated target instructions extend the block.
				x.NewLen += x.S
			}
			// Not-taken prediction: the s slots are the fall-through
			// instructions already laid out after the block; no growth.
		case isa.ClassJump:
			// Direct jumps and calls always go to the target: predicted
			// taken, slots replicated from the target.
			x.PredTaken = true
			x.S = rest
			x.NewLen += x.S
		case isa.ClassJumpReg:
			// Target unknown at compile time: noops.
			x.Indirect = true
			x.PredTaken = true // they always transfer control
			x.Noops = rest
			x.NewLen += x.Noops
		}
	}
	t.layout(p)
	return t, nil
}

// layout places the translated blocks in the original procedure order and
// derives everything that depends on the placement: the block and CTI
// addresses, the static code size, and each CTI's taken-path fetch
// consequences. It runs once the per-block lengths and predictions are
// final.
func (t *Translation) layout(p *program.Program) {
	addr := p.Base
	for _, proc := range p.Procs {
		for _, id := range proc.Blocks {
			x := &t.Blocks[id]
			x.NewAddr = addr
			if x.HasCTI {
				// Hoisting by R moves the CTI to position origLen-1-R,
				// followed by the R hoisted instructions and then the
				// S/noop slots.
				origLen := len(p.Blocks[id].Insts)
				x.CTIAddr = addr + uint32(origLen-1-x.R)
			}
			addr += uint32(x.NewLen)
		}
	}
	t.NewWords = 0
	for id := range t.Blocks {
		x := &t.Blocks[id]
		t.NewWords += x.NewLen
		x.SquashAddr, x.SquashN, x.Skip = 0, 0, 0
		switch {
		case !x.HasCTI:
		case !x.PredTaken:
			if ft := p.Blocks[id].Fallthrough; ft != program.None {
				fx := &t.Blocks[ft]
				x.SquashAddr = fx.NewAddr
				x.SquashN = min(x.S, fx.NewLen)
			}
		case !x.Indirect:
			x.Skip = x.S
		}
	}
}

// WastedSlots returns the delay cycles wasted by the CTI of block id given
// the actual outcome: squashed slots on a misprediction, the noop slots of
// an indirect jump, or zero when the prediction was right.
func (t *Translation) WastedSlots(id int, taken bool) int {
	x := &t.Blocks[id]
	if !x.HasCTI {
		return 0
	}
	if x.Indirect {
		return x.Noops
	}
	if x.PredTaken != taken {
		return x.S
	}
	return 0
}

// Fetches returns how many instruction fetches entering block id produces
// and from which translated address, given how many of its leading
// instructions already executed in the delay slots of a correctly
// predicted-taken CTI (skip). If skip exceeds the block length the paper
// pads with noops, so no fetches remain.
func (t *Translation) Fetches(id, skip int) (addr uint32, n int) {
	x := &t.Blocks[id]
	if skip >= x.NewLen {
		return x.NewAddr + uint32(x.NewLen), 0
	}
	return x.NewAddr + uint32(skip), x.NewLen - skip
}
