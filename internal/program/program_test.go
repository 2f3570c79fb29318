package program

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"pipecache/internal/isa"
)

// buildLoopProgram builds a tiny two-procedure program:
//
//	main:  b0: addiu; call helper -> b1
//	       b1: loop body (load, add, store); branch back to b1 / fall to b2
//	       b2: return
//	helper: h0: load; return
func buildLoopProgram(t *testing.T) *Program {
	t.Helper()
	bd := NewBuilder("loop", 0x1000)
	mainIdx := bd.StartProc("main")
	b0 := bd.NewBlock()
	b1 := bd.NewBlock()
	b2 := bd.NewBlock()
	helperIdx := bd.StartProc("helper")
	h0 := bd.NewBlock()

	stackMem := MemBehavior{Kind: MemStack, Offset: 4}
	gpMem := MemBehavior{Kind: MemGP, Offset: 100}

	bd.ALU(b0, isa.ADDIU, isa.T0, isa.Zero, isa.Zero)
	bd.Call(b0, helperIdx, b1)

	bd.Load(b1, isa.T1, isa.SP, 4, stackMem)
	bd.ALU(b1, isa.ADDU, isa.T2, isa.T1, isa.T0)
	bd.Store(b1, isa.T2, isa.SP, 8, MemBehavior{Kind: MemStack, Offset: 8})
	bd.Branch(b1, isa.BNE, isa.T2, isa.Zero, b1, b2, 0.9)

	bd.Return(b2)

	bd.Load(h0, isa.V0, isa.GP, 100, gpMem)
	bd.Return(h0)

	bd.SetEntry(mainIdx)
	p, err := bd.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func TestBuilderProducesValidProgram(t *testing.T) {
	p := buildLoopProgram(t)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumInsts() != 9 {
		t.Fatalf("NumInsts = %d, want 9", p.NumInsts())
	}
}

func TestLayoutAddressesContiguous(t *testing.T) {
	p := buildLoopProgram(t)
	want := p.Base
	for _, proc := range p.Procs {
		for _, id := range proc.Blocks {
			b := p.Block(id)
			if b.Addr != want {
				t.Fatalf("block %d at 0x%x, want 0x%x", id, b.Addr, want)
			}
			want += uint32(len(b.Insts))
		}
	}
}

func TestLayoutSetsBranchTargets(t *testing.T) {
	p := buildLoopProgram(t)
	b1 := p.Block(1)
	term, ok := b1.Terminator()
	if !ok {
		t.Fatal("block 1 lost its terminator")
	}
	if term.Target != b1.Addr {
		t.Fatalf("loop branch target 0x%x, want self 0x%x", term.Target, b1.Addr)
	}
	// JAL target points at helper entry.
	b0 := p.Block(0)
	call, _ := b0.Terminator()
	helperEntry := p.Block(p.Procs[1].Entry)
	if call.Target != helperEntry.Addr {
		t.Fatalf("call target 0x%x, want 0x%x", call.Target, helperEntry.Addr)
	}
}

func TestLayoutAfterInsertingInstructions(t *testing.T) {
	p := buildLoopProgram(t)
	// Insert two noops into block 0 and re-lay out; downstream addresses
	// and targets must shift.
	before := p.Block(1).Addr
	p.Blocks[0].Insts = append([]Inst{{Inst: isa.Nop()}, {Inst: isa.Nop()}}, p.Blocks[0].Insts...)
	if err := p.Layout(); err != nil {
		t.Fatal(err)
	}
	if got := p.Block(1).Addr; got != before+2 {
		t.Fatalf("block 1 addr = 0x%x, want 0x%x", got, before+2)
	}
	term, _ := p.Block(1).Terminator()
	if term.Target != p.Block(1).Addr {
		t.Fatalf("branch target not re-resolved: 0x%x vs 0x%x", term.Target, p.Block(1).Addr)
	}
}

func TestValidateCatchesCTIInMiddle(t *testing.T) {
	p := buildLoopProgram(t)
	b := p.Blocks[1]
	// Force a CTI into the middle.
	b.Insts[0] = Inst{Inst: isa.Inst{Op: isa.J}}
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Fatal("mid-block CTI not caught")
	}
}

func TestValidateCatchesMissingMemBehavior(t *testing.T) {
	p := buildLoopProgram(t)
	b := p.Blocks[1]
	b.Insts[0].Mem = MemBehavior{}
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Fatal("load without memory behaviour not caught")
	}
}

func TestValidateCatchesMemBehaviorOnALU(t *testing.T) {
	p := buildLoopProgram(t)
	p.Blocks[0].Insts[0].Mem = MemBehavior{Kind: MemGP}
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Fatal("memory behaviour on ALU op not caught")
	}
}

func TestValidateCatchesBadProbability(t *testing.T) {
	p := buildLoopProgram(t)
	p.Blocks[1].TakenProb = 1.5
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Fatal("bad probability not caught")
	}
}

func TestValidateCatchesEmptyBlock(t *testing.T) {
	p := buildLoopProgram(t)
	p.Blocks[2].Insts = nil
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Fatal("empty block not caught")
	}
}

// TestValidateBlockLengthCap: a block of MaxBlockInsts instructions
// validates, and one more is rejected with an error naming the block.
func TestValidateBlockLengthCap(t *testing.T) {
	for _, n := range []int{MaxBlockInsts, MaxBlockInsts + 1} {
		p := buildLoopProgram(t)
		b := p.Blocks[2] // the return block of main
		pad := make([]Inst, n-len(b.Insts), n)
		for i := range pad {
			pad[i] = Inst{Inst: isa.Inst{Op: isa.ADDU, Rd: isa.T0}}
		}
		b.Insts = append(pad, b.Insts...)
		p.Invalidate()
		err := p.Validate()
		if n <= MaxBlockInsts {
			if err != nil {
				t.Errorf("%d-instruction block rejected: %v", n, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "block 2 has 256 instructions") {
			t.Errorf("%d-instruction block: error %v, want one naming block 2", n, err)
		}
	}
}

func TestValidateCatchesMissingFallthrough(t *testing.T) {
	p := buildLoopProgram(t)
	// Strip the terminator from block 2 leaving no successor.
	p.Blocks[2].Insts = []Inst{{Inst: isa.Inst{Op: isa.ADDU, Rd: isa.T0}}}
	p.Blocks[2].IsReturn = false
	p.Invalidate()
	if err := p.Validate(); err == nil {
		t.Fatal("straight-line block without fallthrough not caught")
	}
}

func TestBuilderRejectsDoubleTermination(t *testing.T) {
	bd := NewBuilder("x", 0)
	bd.StartProc("main")
	b := bd.NewBlock()
	bd.Return(b)
	bd.Return(b)
	if _, err := bd.Finish(); err == nil {
		t.Fatal("double termination not caught")
	}
}

func TestBuilderRejectsAppendCTI(t *testing.T) {
	bd := NewBuilder("x", 0)
	bd.StartProc("main")
	b := bd.NewBlock()
	bd.Append(b, Inst{Inst: isa.Inst{Op: isa.J}})
	if _, err := bd.Finish(); err == nil {
		t.Fatal("raw CTI append not caught")
	}
}

func TestBuilderRejectsBlockBeforeProc(t *testing.T) {
	bd := NewBuilder("x", 0)
	bd.NewBlock()
	if _, err := bd.Finish(); err == nil {
		t.Fatal("block before proc not caught")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := buildLoopProgram(t)
	q := p.Clone()
	q.Blocks[0].Insts[0].Inst.Op = isa.SUBU
	q.Procs[0].Blocks[0] = 99
	if p.Blocks[0].Insts[0].Inst.Op == isa.SUBU {
		t.Fatal("clone shares instruction storage")
	}
	if p.Procs[0].Blocks[0] == 99 {
		t.Fatal("clone shares proc block lists")
	}
}

func TestTerminator(t *testing.T) {
	p := buildLoopProgram(t)
	if _, ok := p.Blocks[1].Terminator(); !ok {
		t.Fatal("branch terminator not found")
	}
	b := &Block{Insts: []Inst{{Inst: isa.Inst{Op: isa.ADDU}}}}
	if _, ok := b.Terminator(); ok {
		t.Fatal("ALU op treated as terminator")
	}
}

func TestMemKindString(t *testing.T) {
	kinds := map[MemKind]string{
		MemNone: "none", MemGP: "gp", MemStack: "stack", MemArray: "array", MemHeap: "heap",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("MemKind(%d) = %q, want %q", k, k.String(), want)
		}
	}
}

func TestBuilderEdgeErrors(t *testing.T) {
	// SetEntry out of range.
	bd := NewBuilder("x", 0)
	bd.SetEntry(3)
	if _, err := bd.Finish(); err == nil {
		t.Fatal("bad entry accepted")
	}
	// Jump/Fallthrough/IndirectJump on missing blocks.
	bd2 := NewBuilder("x", 0)
	bd2.StartProc("main")
	bd2.Jump(42, 0)
	if _, err := bd2.Finish(); err == nil {
		t.Fatal("jump on missing block accepted")
	}
	bd3 := NewBuilder("x", 0)
	bd3.StartProc("main")
	bd3.Fallthrough(42, 0)
	if _, err := bd3.Finish(); err == nil {
		t.Fatal("fallthrough on missing block accepted")
	}
	bd4 := NewBuilder("x", 0)
	bd4.StartProc("main")
	bd4.IndirectJump(42, 0, isa.AT)
	if _, err := bd4.Finish(); err == nil {
		t.Fatal("indirect jump on missing block accepted")
	}
	// Branch with a non-branch op.
	bd5 := NewBuilder("x", 0)
	bd5.StartProc("main")
	b := bd5.NewBlock()
	bd5.Branch(b, isa.ADDU, isa.T0, isa.T1, 0, 0, 0.5)
	if _, err := bd5.Finish(); err == nil {
		t.Fatal("non-branch op accepted by Branch")
	}
}

func TestBuilderIndirectJumpDispatch(t *testing.T) {
	bd := NewBuilder("disp", 0)
	main := bd.StartProc("main")
	d := bd.NewBlock()
	c := bd.NewBlock()
	bd.ALU(d, isa.ADDU, isa.AT, isa.T0, isa.Zero)
	bd.IndirectJump(d, c, isa.AT)
	bd.ALU(c, isa.ADDU, isa.T1, isa.T0, isa.T2)
	bd.Jump(c, d)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	term, ok := p.Blocks[0].Terminator()
	if !ok || term.Op != isa.JR || p.Blocks[0].IsReturn {
		t.Fatalf("dispatch terminator wrong: %+v", term)
	}
	if p.Blocks[0].Taken != 1 {
		t.Fatalf("dispatch target %d", p.Blocks[0].Taken)
	}
}

func TestBlockLenHelper(t *testing.T) {
	bd := NewBuilder("x", 0)
	bd.StartProc("main")
	b := bd.NewBlock()
	if bd.BlockLen(b) != 0 {
		t.Fatal("empty block length")
	}
	bd.ALU(b, isa.ADDU, isa.T0, isa.T1, isa.T2)
	if bd.BlockLen(b) != 1 {
		t.Fatal("length after append")
	}
	if bd.BlockLen(99) != 0 {
		t.Fatal("missing block length")
	}
}

func TestDataLayoutValidate(t *testing.T) {
	p := buildLoopProgram(t)
	good := DataLayout{GPBase: 1, GPSize: 64, StackBase: 2, FrameSize: 64}
	if err := good.Validate(p); err != nil {
		t.Fatal(err)
	}
	noGP := DataLayout{FrameSize: 64}
	if err := noGP.Validate(p); err == nil {
		t.Fatal("zero gp area accepted")
	}
	noFrame := DataLayout{GPSize: 64}
	if err := noFrame.Validate(p); err == nil {
		t.Fatal("zero frame accepted")
	}
	// A program with an array reference needs the region present.
	bd := NewBuilder("arr", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	bd.Load(b0, isa.T0, isa.T8, 0, MemBehavior{Kind: MemArray, Region: 2, Stride: 1})
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	q, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Validate(q); err == nil {
		t.Fatal("missing region accepted")
	}
	withRegion := good
	withRegion.Regions = []DataRegion{{Name: "a", Base: 10, Size: 4}, {Name: "b", Base: 20, Size: 4}, {Name: "c", Base: 30, Size: 0}}
	if err := withRegion.Validate(q); err == nil {
		t.Fatal("empty region accepted")
	}
	withRegion.Regions[2].Size = 8
	if err := withRegion.Validate(q); err != nil {
		t.Fatal(err)
	}
}

// TestMemoConcurrent races goroutines on one key: every caller must get
// the one stored value whichever build ran, a failed build must not be
// memoized, and Invalidate must drop the stored value.
func TestMemoConcurrent(t *testing.T) {
	p := buildLoopProgram(t)
	type key struct{}
	errBuild := errors.New("build failed")
	if _, err := p.Memo(key{}, func() (any, error) { return nil, errBuild }); !errors.Is(err, errBuild) {
		t.Fatalf("failed build returned %v", err)
	}

	const n = 8
	got := make([]*int, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := p.Memo(key{}, func() (any, error) { return new(int), nil })
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = v.(*int)
		}()
	}
	wg.Wait()
	for i, v := range got {
		if v == nil || v != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p: want one value", i, v, got[0])
		}
	}

	p.Invalidate()
	v, err := p.Memo(key{}, func() (any, error) { return new(int), nil })
	if err != nil {
		t.Fatal(err)
	}
	if v.(*int) == got[0] {
		t.Fatal("Invalidate kept the memoized value")
	}
}
