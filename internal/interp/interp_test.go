package interp

import (
	"testing"

	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// eventLog records everything for fine-grained assertions.
type eventLog struct {
	blocks   []int
	memAddrs []uint32
	stores   []bool
	ctis     []struct {
		block int
		taken bool
	}
	eps      []int
	epsBlock []int
}

// Events implements EventSink, decoding each row into the log's fields.
func (l *eventLog) Events(kind []uint8, a []uint32, b []uint8) {
	for i, k := range kind {
		switch EventKind(k) {
		case EvBlock:
			l.blocks = append(l.blocks, int(a[i]))
		case EvMemLoad, EvMemStore:
			l.memAddrs = append(l.memAddrs, a[i])
			l.stores = append(l.stores, EventKind(k) == EvMemStore)
		case EvCTITaken, EvCTINotTaken:
			l.ctis = append(l.ctis, struct {
				block int
				taken bool
			}{int(a[i]), EventKind(k) == EvCTITaken})
		case EvLoadUse:
			l.eps = append(l.eps, int(a[i]))
			l.epsBlock = append(l.epsBlock, int(b[i]))
		}
	}
}

// buildTestProgram constructs a program with a counted loop and a call.
func buildTestProgram(t *testing.T, loopProb float64) *program.Program {
	t.Helper()
	bd := program.NewBuilder("t", 0x1000)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	loop := bd.NewBlock()
	exit := bd.NewBlock()
	helper := bd.StartProc("helper")
	h0 := bd.NewBlock()

	bd.ALU(b0, isa.ADDIU, isa.SP, isa.SP, isa.Zero)
	bd.Call(b0, helper, loop)

	bd.Load(loop, isa.T1, isa.GP, 8, program.MemBehavior{Kind: program.MemGP, Offset: 8})
	bd.ALU(loop, isa.ADDU, isa.T2, isa.T1, isa.T0)
	bd.ALU(loop, isa.SLT, isa.T9, isa.T2, isa.T0)
	bd.Branch(loop, isa.BNE, isa.T9, isa.Zero, loop, exit, loopProb)

	bd.Jump(exit, b0)

	bd.Load(h0, isa.V0, isa.SP, 4, program.MemBehavior{Kind: program.MemStack, Offset: 4})
	bd.Return(h0)

	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{
		GPBase: 0x100000, GPSize: 1024,
		StackBase: 0x200000, FrameSize: 64,
		Regions: []program.DataRegion{{Name: "a", Base: 0x300000, Size: 256}},
	}
	return p
}

func TestRunFollowsCallsAndReturns(t *testing.T) {
	p := buildTestProgram(t, 0)
	it, err := New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	var log eventLog
	it.Run(9, &log)
	// Execution: b0 (2 insts, call) -> h0 (2, return) -> loop (4, not
	// taken) -> exit (jump) -> b0 ...
	want := []int{0, 3, 1, 2}
	for i, w := range want {
		if i >= len(log.blocks) || log.blocks[i] != w {
			t.Fatalf("block order %v, want prefix %v", log.blocks, want)
		}
	}
}

func TestRunLoopRepeatsBlock(t *testing.T) {
	p := buildTestProgram(t, 0.99)
	it, err := New(p, 7)
	if err != nil {
		t.Fatal(err)
	}
	var log eventLog
	it.Run(200, &log)
	loops := 0
	for _, b := range log.blocks {
		if b == 1 {
			loops++
		}
	}
	if loops < 20 {
		t.Fatalf("loop block executed %d times, expected many", loops)
	}
}

func TestRunDeterministic(t *testing.T) {
	p := buildTestProgram(t, 0.7)
	a, _ := New(p, 42)
	b, _ := New(p, 42)
	var la, lb eventLog
	a.Run(500, &la)
	b.Run(500, &lb)
	if len(la.blocks) != len(lb.blocks) {
		t.Fatalf("different block counts: %d vs %d", len(la.blocks), len(lb.blocks))
	}
	for i := range la.blocks {
		if la.blocks[i] != lb.blocks[i] {
			t.Fatalf("diverged at block %d", i)
		}
	}
	for i := range la.memAddrs {
		if la.memAddrs[i] != lb.memAddrs[i] {
			t.Fatalf("addresses diverged at %d", i)
		}
	}
}

func TestSeedChangesOutcomes(t *testing.T) {
	p := buildTestProgram(t, 0.5)
	a, _ := New(p, 1)
	b, _ := New(p, 2)
	var la, lb eventLog
	a.Run(500, &la)
	b.Run(500, &lb)
	same := len(la.blocks) == len(lb.blocks)
	if same {
		for i := range la.blocks {
			if la.blocks[i] != lb.blocks[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical block streams")
	}
}

func TestDataAddresses(t *testing.T) {
	p := buildTestProgram(t, 0.5)
	it, _ := New(p, 3)
	var log eventLog
	it.Run(300, &log)
	if len(log.memAddrs) == 0 {
		t.Fatal("no memory references")
	}
	for _, a := range log.memAddrs {
		gp := a >= 0x100000 && a < 0x100000+1024
		stack := a >= 0x200000 && a < 0x200000+64*64
		if !gp && !stack {
			t.Fatalf("address 0x%x outside gp and stack areas", a)
		}
	}
	// The gp load must hit exactly GPBase+8.
	foundGP := false
	for _, a := range log.memAddrs {
		if a == 0x100008 {
			foundGP = true
		}
	}
	if !foundGP {
		t.Fatal("gp-area load address not seen")
	}
}

func TestStackAddressUsesFrame(t *testing.T) {
	p := buildTestProgram(t, 0.5)
	it, _ := New(p, 3)
	var log eventLog
	it.Run(100, &log)
	// helper has FrameID 1, so its stack load hits StackBase + 64 + 4.
	want := uint32(0x200000 + 64 + 4)
	found := false
	for _, a := range log.memAddrs {
		if a == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("helper stack address 0x%x not seen in %v", want, log.memAddrs[:min(8, len(log.memAddrs))])
	}
}

func TestEpsilonMeasurement(t *testing.T) {
	// Build: addiu t0 (def addr reg); alu; lw t1,0(t0); alu; alu; use t1.
	// Dynamic c = 1, d = 2, eps = 3. In-block truncation identical here.
	bd := program.NewBuilder("eps", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	bd.ALU(b0, isa.ADDIU, isa.T0, isa.SP, isa.Zero)
	bd.ALU(b0, isa.ADDU, isa.T2, isa.A0, isa.A1)
	bd.Load(b0, isa.T1, isa.T0, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.ALU(b0, isa.ADDU, isa.T3, isa.A0, isa.A2)
	bd.ALU(b0, isa.ADDU, isa.T4, isa.A1, isa.A2)
	bd.ALU(b0, isa.ADDU, isa.T5, isa.T1, isa.A0)
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64}

	it, _ := New(p, 1)
	var log eventLog
	it.Run(7, &log)
	if len(log.eps) != 1 {
		t.Fatalf("got %d load uses, want 1", len(log.eps))
	}
	if log.eps[0] != 3 || log.epsBlock[0] != 3 {
		t.Fatalf("eps = %d/%d, want 3/3", log.eps[0], log.epsBlock[0])
	}
}

func TestEpsilonCrossBlockTruncation(t *testing.T) {
	// Load at the end of one block, use at the start of the next-but-one
	// instruction stream: unrestricted eps grows, block-restricted D
	// clamps to the instructions remaining in the load's block (0 here).
	bd := program.NewBuilder("eps2", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	b1 := bd.NewBlock()
	bd.ALU(b0, isa.ADDU, isa.T2, isa.A0, isa.A1)
	bd.Load(b0, isa.T1, isa.GP, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.Fallthrough(b0, b1)
	bd.ALU(b1, isa.ADDU, isa.T3, isa.A0, isa.A2)
	bd.ALU(b1, isa.ADDU, isa.T5, isa.T1, isa.A0) // first use of t1
	bd.Jump(b1, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64}

	it, _ := New(p, 1)
	var log eventLog
	it.Run(5, &log)
	if len(log.eps) < 1 {
		t.Fatal("no load use recorded")
	}
	// c is huge (gp never defined) so both are capped by different limits:
	// unrestricted eps caps at EpsCap; block-restricted c caps at the
	// load's in-block position (1) and d at 0 -> epsBlock = 1.
	if log.eps[0] != EpsCap {
		t.Fatalf("eps = %d, want cap %d", log.eps[0], EpsCap)
	}
	if log.epsBlock[0] != 1 {
		t.Fatalf("epsBlock = %d, want 1", log.epsBlock[0])
	}
}

func TestDeadLoadNotReported(t *testing.T) {
	// t1 loaded then overwritten without use: no LoadUse event.
	bd := program.NewBuilder("dead", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	bd.Load(b0, isa.T1, isa.GP, 0, program.MemBehavior{Kind: program.MemGP, Offset: 0})
	bd.ALU(b0, isa.ADDU, isa.T1, isa.A0, isa.A1)
	bd.ALU(b0, isa.ADDU, isa.T2, isa.T1, isa.A0)
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64}
	it, _ := New(p, 1)
	var log eventLog
	it.Run(4, &log)
	if len(log.eps) != 0 {
		t.Fatalf("dead load reported: %v", log.eps)
	}
}

func TestCollectorCounts(t *testing.T) {
	p := buildTestProgram(t, 0.5)
	it, _ := New(p, 5)
	c := NewCollector(p, 8)
	n := it.Run(1000, c)
	if n < 1000 {
		t.Fatalf("Run executed %d", n)
	}
	if c.Insts != it.Executed() {
		t.Fatalf("collector insts %d != executed %d", c.Insts, it.Executed())
	}
	if c.CTIs == 0 || c.CondBranches == 0 || c.Jumps == 0 || c.IndirectCTIs == 0 {
		t.Fatalf("CTI kinds missing: %+v", c)
	}
	if c.Loads == 0 {
		t.Fatal("no loads")
	}
}

func TestNewRejectsInvalidProgram(t *testing.T) {
	p := &program.Program{Name: "bad"}
	if _, err := New(p, 1); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFPLoadEpsilonTracked(t *testing.T) {
	// lwc1 into an FP register consumed by an FP add must resolve like an
	// integer load.
	bd := program.NewBuilder("fp", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	bd.Append(b0, program.Inst{
		Inst: isa.Inst{Op: isa.LWC1, Rd: isa.F(2), Rs: isa.GP, Imm: 0},
		Mem:  program.MemBehavior{Kind: program.MemGP, Offset: 0},
	})
	bd.ALU(b0, isa.ADDU, isa.T2, isa.A0, isa.A1)
	bd.ALU(b0, isa.ADDD, isa.F(4), isa.F(2), isa.F(6)) // consumes f2 at distance 1
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64}
	it, _ := New(p, 1)
	var log eventLog
	it.Run(8, &log)
	if len(log.eps) < 1 {
		t.Fatal("FP load use not resolved")
	}
	if log.epsBlock[0] != 1 {
		t.Fatalf("FP epsBlock = %d, want 1 (c=0 capped at pos, d=1)", log.epsBlock[0])
	}
}

func TestPendingLoadSurvivesAcrossRunCalls(t *testing.T) {
	// A load at the end of one Run call resolved at the start of the next
	// must still be reported (quantum boundaries must not lose state).
	p := buildTestProgram(t, 0.5)
	it, _ := New(p, 11)
	var a, b eventLog
	// Tiny quanta force many boundaries.
	for i := 0; i < 50; i++ {
		it.Run(7, &a)
	}
	it2, _ := New(p, 11)
	it2.Run(int64(it.Executed()), &b)
	if len(a.eps) != len(b.eps) {
		t.Fatalf("quantum boundaries changed load-use count: %d vs %d", len(a.eps), len(b.eps))
	}
	for i := range a.eps {
		if a.eps[i] != b.eps[i] || a.epsBlock[i] != b.epsBlock[i] {
			t.Fatalf("load-use %d differs across quantum splits", i)
		}
	}
}

func TestHeapAddressesStayInRegion(t *testing.T) {
	bd := program.NewBuilder("heap", 0)
	main := bd.StartProc("main")
	b0 := bd.NewBlock()
	bd.Append(b0, program.Inst{
		Inst: isa.Inst{Op: isa.LW, Rd: isa.T1, Rs: isa.AT},
		Mem:  program.MemBehavior{Kind: program.MemHeap, Region: 0},
	})
	bd.ALU(b0, isa.ADDU, isa.T2, isa.T1, isa.A0)
	bd.Jump(b0, b0)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	p.Data = program.DataLayout{
		GPBase: 0x1000, GPSize: 64, StackBase: 0x2000, FrameSize: 64,
		Regions: []program.DataRegion{{Name: "h", Base: 0x4000, Size: 512}},
	}
	it, _ := New(p, 5)
	var log eventLog
	it.Run(3000, &log)
	for _, a := range log.memAddrs {
		if a < 0x4000 || a >= 0x4000+512 {
			t.Fatalf("heap address 0x%x outside region", a)
		}
	}
	// The drifting hot window must still cover a spread of the region.
	lo, hi := log.memAddrs[0], log.memAddrs[0]
	for _, a := range log.memAddrs {
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi-lo < 64 {
		t.Fatalf("heap accesses too narrow: [0x%x, 0x%x]", lo, hi)
	}
}
