package program

import (
	"fmt"
	"io"

	"pipecache/internal/isa"
)

// Disassemble writes an assembly listing of the program: procedure labels,
// block labels with entry addresses, and one instruction per line.
func Disassemble(p *Program, w io.Writer) error {
	for pi, proc := range p.Procs {
		if _, err := fmt.Fprintf(w, "%s:  # proc %d, frame %d\n", proc.Name, pi, proc.FrameID); err != nil {
			return err
		}
		for _, id := range proc.Blocks {
			b := p.Block(id)
			if _, err := fmt.Fprintf(w, ".L%d:  # 0x%x", id, b.Addr); err != nil {
				return err
			}
			if t, ok := b.Terminator(); ok && t.Op.Class() == isa.ClassBranch {
				fmt.Fprintf(w, "  (taken p=%.2f -> .L%d)", b.TakenProb, b.Taken)
			}
			fmt.Fprintln(w)
			for i, in := range b.Insts {
				if _, err := fmt.Fprintf(w, "  %6x:  %s", b.Addr+uint32(i), in.Inst); err != nil {
					return err
				}
				if in.Mem.Kind != MemNone {
					fmt.Fprintf(w, "  # %s", in.Mem.Kind)
				}
				fmt.Fprintln(w)
			}
		}
	}
	return nil
}
