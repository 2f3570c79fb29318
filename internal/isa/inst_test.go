package isa

import (
	"strings"
	"testing"
)

func TestDefsUses(t *testing.T) {
	cases := []struct {
		in   Inst
		defs []Reg
		uses []Reg
	}{
		{Inst{Op: LW, Rd: T0, Rs: SP, Imm: 4}, []Reg{T0}, []Reg{SP}},
		{Inst{Op: SW, Rt: T0, Rs: SP, Imm: 4}, nil, []Reg{SP, T0}},
		{Inst{Op: ADDU, Rd: V0, Rs: A0, Rt: A1}, []Reg{V0}, []Reg{A0, A1}},
		{Inst{Op: ADDIU, Rd: V0, Rs: A0, Imm: 1}, []Reg{V0}, []Reg{A0}},
		{Inst{Op: LUI, Rd: T0, Imm: 100}, []Reg{T0}, nil},
		{Inst{Op: SLL, Rd: T1, Rt: T0, Imm: 2}, []Reg{T1}, []Reg{T0}},
		{Inst{Op: BEQ, Rs: A0, Rt: A1, Target: 8}, nil, []Reg{A0, A1}},
		{Inst{Op: BLEZ, Rs: A0, Target: 8}, nil, []Reg{A0}},
		{Inst{Op: J, Target: 8}, nil, nil},
		{Inst{Op: JAL, Target: 8}, []Reg{RA}, nil},
		{Inst{Op: JR, Rs: RA}, nil, []Reg{RA}},
		{Inst{Op: JALR, Rd: RA, Rs: T9}, []Reg{RA}, []Reg{T9}},
		{Nop(), nil, nil},
		{Inst{Op: MULT, Rs: A0, Rt: A1}, nil, []Reg{A0, A1}},
		{Inst{Op: MFLO, Rd: V0}, []Reg{V0}, nil},
		{Inst{Op: ADDD, Rd: F(2), Rs: F(4), Rt: F(6)}, []Reg{F(2)}, []Reg{F(4), F(6)}},
	}
	for _, c := range cases {
		if got := c.in.Defs(); !regSetEqual(got, c.defs) {
			t.Errorf("%v: Defs = %v, want %v", c.in, got, c.defs)
		}
		if got := c.in.Uses(); !regSetEqual(got, c.uses) {
			t.Errorf("%v: Uses = %v, want %v", c.in, got, c.uses)
		}
	}
}

func regSetEqual(a, b []Reg) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[Reg]bool{}
	for _, r := range a {
		m[r] = true
	}
	for _, r := range b {
		if !m[r] {
			return false
		}
	}
	return true
}

func TestZeroRegisterNeverDefined(t *testing.T) {
	in := Inst{Op: ADDU, Rd: Zero, Rs: A0, Rt: A1}
	if len(in.Defs()) != 0 {
		t.Fatal("write to $zero reported as def")
	}
}

func TestZeroRegisterNeverUsed(t *testing.T) {
	in := Inst{Op: ADDU, Rd: V0, Rs: Zero, Rt: Zero}
	if len(in.Uses()) != 0 {
		t.Fatal("read of $zero reported as use")
	}
}

func TestUsesDeduplicated(t *testing.T) {
	in := Inst{Op: BEQ, Rs: A0, Rt: A0, Target: 4}
	if got := in.Uses(); len(got) != 1 {
		t.Fatalf("Uses = %v, want one entry", got)
	}
}

func TestAddrReg(t *testing.T) {
	if r, ok := (Inst{Op: LW, Rd: T0, Rs: GP}).AddrReg(); !ok || r != GP {
		t.Fatalf("load AddrReg = %v, %v", r, ok)
	}
	if r, ok := (Inst{Op: SW, Rt: T0, Rs: SP}).AddrReg(); !ok || r != SP {
		t.Fatalf("store AddrReg = %v, %v", r, ok)
	}
	if _, ok := (Inst{Op: ADDU}).AddrReg(); ok {
		t.Fatal("ALU op reported an address register")
	}
}

func TestDependsOn(t *testing.T) {
	def := Inst{Op: ADDU, Rd: T0, Rs: A0, Rt: A1}
	use := Inst{Op: LW, Rd: T1, Rs: T0}
	indep := Inst{Op: LW, Rd: T2, Rs: SP}
	if !use.DependsOn(def) {
		t.Fatal("true dependency missed")
	}
	if indep.DependsOn(def) {
		t.Fatal("false dependency reported")
	}
}

func TestInstString(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: LW, Rd: T0, Rs: SP, Imm: 4}, "lw $t0, 4($sp)"},
		{Inst{Op: SW, Rt: T0, Rs: GP, Imm: -8}, "sw $t0, -8($gp)"},
		{Inst{Op: ADDU, Rd: V0, Rs: A0, Rt: A1}, "addu $v0, $a0, $a1"},
		{Inst{Op: ADDIU, Rd: V0, Rs: A0, Imm: 1}, "addiu $v0, $a0, 1"},
		{Inst{Op: BEQ, Rs: A0, Rt: A1, Target: 0x40}, "beq $a0, $a1, 0x40"},
		{Inst{Op: J, Target: 0x100}, "j 0x100"},
		{Inst{Op: JR, Rs: RA}, "jr $ra"},
		{Nop(), "nop"},
		{Inst{Op: SYSCALL}, "syscall"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestInstStringCoversAllOps(t *testing.T) {
	// Every op should render something without panicking and include its
	// mnemonic.
	for o := Op(0); o < numOps; o++ {
		in := Inst{Op: o, Rd: T0, Rs: T1, Rt: T2, Imm: 4, Target: 0x10}
		s := in.String()
		if o != NOP && !strings.Contains(s, o.String()) {
			t.Errorf("%v: disassembly %q missing mnemonic", o, s)
		}
	}
}
