package isa

import "testing"

func TestEveryOpHasNameAndClass(t *testing.T) {
	for o := Op(0); o < numOps; o++ {
		if !o.Valid() {
			t.Errorf("op %d has no table entry", o)
		}
		if o != NOP && o.String() == "nop" {
			t.Errorf("op %d shares the nop mnemonic", o)
		}
	}
}

func TestOpClassification(t *testing.T) {
	cases := []struct {
		op    Op
		class Class
		cti   bool
		load  bool
		store bool
	}{
		{NOP, ClassNop, false, false, false},
		{LW, ClassLoad, false, true, false},
		{LWC1, ClassLoad, false, true, false},
		{SW, ClassStore, false, false, true},
		{ADDU, ClassALU, false, false, false},
		{LUI, ClassALU, false, false, false},
		{MULD, ClassALU, false, false, false},
		{BEQ, ClassBranch, true, false, false},
		{BGEZ, ClassBranch, true, false, false},
		{J, ClassJump, true, false, false},
		{JAL, ClassJump, true, false, false},
		{JR, ClassJumpReg, true, false, false},
		{JALR, ClassJumpReg, true, false, false},
		{SYSCALL, ClassSyscall, false, false, false},
	}
	for _, c := range cases {
		if c.op.Class() != c.class {
			t.Errorf("%v: class = %v, want %v", c.op, c.op.Class(), c.class)
		}
		if c.op.IsCTI() != c.cti {
			t.Errorf("%v: IsCTI = %v, want %v", c.op, c.op.IsCTI(), c.cti)
		}
		if c.op.IsLoad() != c.load {
			t.Errorf("%v: IsLoad = %v", c.op, c.op.IsLoad())
		}
		if c.op.IsStore() != c.store {
			t.Errorf("%v: IsStore = %v", c.op, c.op.IsStore())
		}
	}
}

func TestIsMem(t *testing.T) {
	if !LW.IsMem() || !SW.IsMem() || ADDU.IsMem() || BEQ.IsMem() {
		t.Fatal("IsMem misclassifies")
	}
}

func TestOpStringUnknown(t *testing.T) {
	bad := Op(200)
	if bad.Valid() {
		t.Fatal("op 200 should be invalid")
	}
	if got := bad.String(); got != "op(200)" {
		t.Fatalf("String = %q", got)
	}
}

func TestClassString(t *testing.T) {
	names := map[Class]string{
		ClassNop: "nop", ClassALU: "alu", ClassLoad: "load", ClassStore: "store",
		ClassBranch: "branch", ClassJump: "jump", ClassJumpReg: "jumpreg", ClassSyscall: "syscall",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestRegNames(t *testing.T) {
	cases := map[Reg]string{
		Zero: "$zero", GP: "$gp", SP: "$sp", RA: "$ra", V0: "$v0",
		F(0): "$f0", F(31): "$f31",
	}
	for r, want := range cases {
		if r.String() != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
}

func TestRegFP(t *testing.T) {
	if Zero.IsFP() || SP.IsFP() {
		t.Fatal("integer registers classified FP")
	}
	if !F(3).IsFP() {
		t.Fatal("F(3) not FP")
	}
	if !F(0).Valid() || Reg(64).Valid() {
		t.Fatal("validity check wrong")
	}
}

func TestFPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("F(32) did not panic")
		}
	}()
	F(32)
}
