package sched

import (
	"fmt"

	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// Apply writes the delay-slot schedule out as actual code: it returns a
// transformed copy of the program in which every CTI has been hoisted over
// its r independent predecessors and followed by its delay-slot
// instructions — replicas of the predicted path for predicted-taken CTIs,
// explicit noops for register-indirect jumps. Predicted-not-taken CTIs get
// no written-out slots (their delay slots are the sequential instructions
// already laid out after them).
//
// The translation tables (Translate) describe this transformation without
// performing it; Apply performs it, and the static-equivalence tests check
// the two against each other. The transformed program is also what the
// disassembler shows when inspecting a scheduled binary.
//
// The returned program is laid out but is not a valid simulation input:
// delay-slot replicas duplicate control-flow-reachable instructions, so
// Validate would reject CTIs in non-terminal positions if the CTI moved.
// Use it for inspection and size accounting.
func Apply(p *program.Program, b int) (*program.Program, *Translation, error) {
	t, err := Translate(p, b)
	if err != nil {
		return nil, nil, err
	}
	q := p.Clone()
	for id, blk := range q.Blocks {
		x := &t.Blocks[id]
		if !x.HasCTI {
			continue
		}
		n := len(blk.Insts)
		cti := blk.Insts[n-1]

		// Hoist the CTI over its r movable predecessors: the CTI moves up
		// by R positions and the hoisted instructions shift down into its
		// delay slots.
		pos := n - 1 - x.R
		copy(blk.Insts[pos+1:], blk.Insts[pos:n-1])
		blk.Insts[pos] = cti

		switch {
		case x.Indirect && x.Noops > 0:
			// Register-indirect: pad with noops.
			for i := 0; i < x.Noops; i++ {
				blk.Insts = append(blk.Insts, program.Inst{Inst: isa.Nop()})
			}
		case x.PredTaken && x.S > 0:
			// Predicted taken: replicate the first S instructions of the
			// target path as the ORIGINAL program laid them out (padding
			// with noops past the target block or where the target path
			// itself transfers control).
			target := p.Block(targetBlock(p, id))
			for i := 0; i < x.S; i++ {
				if target != nil && i < len(target.Insts) && !target.Insts[i].IsCTI() {
					blk.Insts = append(blk.Insts, target.Insts[i])
				} else {
					blk.Insts = append(blk.Insts, program.Inst{Inst: isa.Nop()})
				}
			}
		}
		if len(blk.Insts) != x.NewLen {
			return nil, nil, fmt.Errorf("sched: block %d rewritten to %d words, translation says %d",
				id, len(blk.Insts), x.NewLen)
		}
	}
	if err := q.Layout(); err != nil {
		return nil, nil, err
	}
	return q, t, nil
}

// targetBlock resolves where a block's CTI transfers when taken.
func targetBlock(p *program.Program, id int) int {
	blk := p.Block(id)
	term, ok := blk.Terminator()
	if !ok {
		return program.None
	}
	switch term.Op.Class() {
	case isa.ClassBranch:
		return blk.Taken
	case isa.ClassJump:
		if term.Op == isa.JAL {
			if blk.CallProc >= 0 && blk.CallProc < len(p.Procs) {
				return p.Procs[blk.CallProc].Entry
			}
			return program.None
		}
		return blk.Taken
	default:
		return blk.Taken
	}
}
