package program

import (
	"strings"
	"testing"

	"pipecache/internal/isa"
)

func buildLoopProgramForListing(t *testing.T) *Program {
	t.Helper()
	bd := NewBuilder("listing", 0x400)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	b1 := bd.NewBlock()
	helper := bd.StartProc("helper")
	h0 := bd.NewBlock()

	bd.Append(b0, Inst{Inst: isa.Inst{Op: isa.ADDIU, Rd: isa.SP, Rs: isa.SP, Imm: -64}})
	bd.Load(b0, isa.T0, isa.GP, 12, MemBehavior{Kind: MemGP, Offset: 12})
	bd.Store(b0, isa.T0, isa.SP, 4, MemBehavior{Kind: MemStack, Offset: 4})
	bd.Call(b0, helper, b1)

	bd.ALU(b1, isa.SLT, isa.T9, isa.T0, isa.A0)
	bd.Branch(b1, isa.BNE, isa.T9, isa.Zero, b0, b1, 0.5)

	bd.ALU(h0, isa.ADDU, isa.V0, isa.A0, isa.A1)
	bd.Return(h0)

	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = DataLayout{GPBase: 0x10000, GPSize: 64, StackBase: 0x20000, FrameSize: 64}
	return p
}

func TestDisassembleListing(t *testing.T) {
	p := buildLoopProgramForListing(t)
	var sb strings.Builder
	if err := Disassemble(p, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"main:", "helper:", ".L0:", "lw $t0, 12($gp)", "jr $ra", "# gp", "taken p=0.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("listing missing %q:\n%s", want, out)
		}
	}
}
