// Package program represents executable programs as control-flow graphs of
// basic blocks, in the role of the MIPS object code of the paper.
//
// A program is a set of procedures, each a list of basic blocks. Every
// block carries its instructions plus the behavioural metadata the
// trace-driven simulator needs: branch bias (how often the terminating CTI
// is taken) and, per memory instruction, the address-stream behaviour
// (gp-area scalar, stack scalar, sequential array walk, or heap access).
//
// The package also provides the static analyses the paper's object-code
// post-processor performs: address layout, the movable distance r of each
// CTI (how many preceding instructions can be hoisted into its delay
// slots), and the per-load dependency distances used for load-delay
// scheduling.
package program

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pipecache/internal/isa"
)

// MemKind classifies the address behaviour of a memory instruction.
type MemKind uint8

const (
	// MemNone marks non-memory instructions.
	MemNone MemKind = iota
	// MemGP is a global scalar addressed off the global pointer; the
	// address is a fixed word in the 64 KB gp area (paper Section 3.2).
	MemGP
	// MemStack is a local scalar addressed off the stack pointer; the
	// address is a fixed offset in the current frame.
	MemStack
	// MemArray walks an array region sequentially with a fixed word
	// stride, wrapping at the region size.
	MemArray
	// MemHeap touches a pseudo-random word within a heap working set
	// (pointer-chasing behaviour).
	MemHeap
)

func (k MemKind) String() string {
	switch k {
	case MemNone:
		return "none"
	case MemGP:
		return "gp"
	case MemStack:
		return "stack"
	case MemArray:
		return "array"
	case MemHeap:
		return "heap"
	}
	return fmt.Sprintf("memkind(%d)", uint8(k))
}

// MemBehavior describes how a memory instruction generates addresses.
type MemBehavior struct {
	Kind   MemKind
	Region int   // index of the array/heap region (for MemArray, MemHeap)
	Stride int32 // words advanced per access (MemArray)
	Offset int32 // fixed word offset (MemGP, MemStack, and base for MemArray)
}

// Inst is one program instruction: the architectural instruction plus the
// simulator's behavioural metadata. The metadata travels with the
// instruction when schedulers rearrange code.
type Inst struct {
	isa.Inst
	Mem MemBehavior
}

// Block is a basic block: straight-line code ending in at most one CTI
// (which, when present, is the last instruction).
type Block struct {
	ID    int
	Insts []Inst

	// Control-flow successors. An ID of None means the edge does not
	// exist. For conditional branches both edges exist; for unconditional
	// jumps only Taken; for call blocks (terminated by JAL) Fallthrough is
	// the return point and CallProc names the callee; for return blocks
	// (terminated by JR $ra) the successor is determined by the call
	// stack.
	Fallthrough int
	Taken       int
	CallProc    int // callee procedure index, or None
	IsReturn    bool

	// TakenProb is the probability the terminating conditional branch is
	// taken on a given execution (loop back-edges are close to 1).
	TakenProb float64

	// Addr is the word address of the first instruction, assigned by
	// Layout.
	Addr uint32
}

// None marks an absent block/procedure reference.
const None = -1

// Proc is a procedure: a contiguous sequence of blocks with a single entry.
type Proc struct {
	Name   string
	Entry  int   // block ID of the entry block
	Blocks []int // block IDs in layout order; Blocks[0] == Entry
	// FrameID distinguishes stack frames for address generation: calls to
	// the same procedure reuse the same frame window, which is what the
	// MIPS compiler's sp-relative addressing produces for a non-recursive
	// call tree.
	FrameID int
}

// Program is a whole benchmark image.
type Program struct {
	Name   string
	Blocks []*Block // indexed by Block.ID
	Procs  []*Proc
	Entry  int // index into Procs

	// Base is the word address of the first instruction (text segment
	// base). Distinct programs in a multiprogrammed trace use distinct
	// bases.
	Base uint32

	// Data fixes where the program's data lives.
	Data DataLayout

	// validated caches one successful Validate. Sweeps build an
	// interpreter per pass over the same immutable program, and each
	// build revalidates; the cached result turns those repeats into a
	// load. Clone does not copy it, so transformed copies revalidate.
	validated atomic.Bool

	// dataValidated caches one successful ValidateData under the same
	// contract.
	dataValidated atomic.Bool

	// memo caches derived artifacts (delay-slot translations and the
	// like) that are pure functions of the immutable program, keyed by a
	// comparable key chosen by the owning package. Values are opaque here
	// to avoid import cycles. Invalidate clears it.
	memo sync.Map
}

// Terminator returns the block's CTI and true, or a zero Inst and false if
// the block ends in straight-line code.
func (b *Block) Terminator() (Inst, bool) {
	if len(b.Insts) == 0 {
		return Inst{}, false
	}
	last := b.Insts[len(b.Insts)-1]
	if last.IsCTI() {
		return last, true
	}
	return Inst{}, false
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return len(b.Insts) }

// NumInsts returns the static instruction count of the program.
func (p *Program) NumInsts() int {
	n := 0
	for _, b := range p.Blocks {
		n += len(b.Insts)
	}
	return n
}

// Block returns the block with the given ID, or nil if out of range.
func (p *Program) Block(id int) *Block {
	if id < 0 || id >= len(p.Blocks) {
		return nil
	}
	return p.Blocks[id]
}

// Layout assigns word addresses to every block: procedures in order, blocks
// in procedure order, starting at p.Base; then rewrites every CTI target to
// the laid-out address of its destination. It must be called after any
// transformation that changes block sizes. JAL targets point at the entry
// block of CallProc; conditional branch and J targets point at the Taken
// block. A target the MIPS-I CTI could not encode is an error: a branch
// displacement (target − pc − 1 words) outside int16, or a J/JAL whose
// target leaves the 2^26-word region of its own address.
func (p *Program) Layout() error {
	addr := p.Base
	for _, proc := range p.Procs {
		for _, id := range proc.Blocks {
			b := p.Block(id)
			if b == nil {
				return fmt.Errorf("program %s: proc %s references missing block %d", p.Name, proc.Name, id)
			}
			b.Addr = addr
			addr += uint32(len(b.Insts))
		}
	}
	for _, b := range p.Blocks {
		term, ok := b.Terminator()
		if !ok {
			continue
		}
		last := len(b.Insts) - 1
		switch term.Op.Class() {
		case isa.ClassBranch:
			if p.Block(b.Taken) == nil {
				return fmt.Errorf("program %s: block %d branch to missing block %d", p.Name, b.ID, b.Taken)
			}
			b.Insts[last].Target = p.Block(b.Taken).Addr
		case isa.ClassJump:
			if term.Op == isa.JAL {
				if b.CallProc < 0 || b.CallProc >= len(p.Procs) {
					return fmt.Errorf("program %s: block %d calls missing proc %d", p.Name, b.ID, b.CallProc)
				}
				callee := p.Procs[b.CallProc]
				b.Insts[last].Target = p.Block(callee.Entry).Addr
			} else {
				if p.Block(b.Taken) == nil {
					return fmt.Errorf("program %s: block %d jump to missing block %d", p.Name, b.ID, b.Taken)
				}
				b.Insts[last].Target = p.Block(b.Taken).Addr
			}
		case isa.ClassJumpReg:
			// Target resolved at run time (return address or jump table).
			continue
		}
		if err := targetFits(b.Insts[last].Inst, b.Addr+uint32(last)); err != nil {
			return fmt.Errorf("program %s: block %d inst %d (%q): %w", p.Name, b.ID, last, b.Insts[last].Inst, err)
		}
	}
	return nil
}

// targetFits reports whether the CTI at word address pc reaches its target
// within its MIPS-I field: a 16-bit signed word displacement from the next
// instruction for branches, and the 26-bit pseudo-absolute target for J
// and JAL, which keep the top bits of the PC.
func targetFits(in isa.Inst, pc uint32) error {
	if in.Op.Class() == isa.ClassBranch {
		if off := int64(in.Target) - int64(pc) - 1; off < math.MinInt16 || off > math.MaxInt16 {
			return fmt.Errorf("branch displacement %d words outside int16", off)
		}
	} else if in.Target>>26 != pc>>26 {
		return fmt.Errorf("jump target 0x%x outside the 2^26-word region of 0x%x", in.Target, pc)
	}
	return nil
}

// fieldsFit reports whether the instruction's immediate fits its MIPS-I
// field: int16 for loads, stores and the immediate ALU ops, 0–31 for a
// shift amount.
func fieldsFit(in isa.Inst) error {
	switch op := in.Op; {
	case op == isa.SLL || op == isa.SRL || op == isa.SRA:
		if in.Imm < 0 || in.Imm > 31 {
			return fmt.Errorf("shift amount %d outside 0-31", in.Imm)
		}
	case op.IsMem(), op == isa.ADDIU, op == isa.SLTI, op == isa.SLTIU, op == isa.ANDI,
		op == isa.ORI, op == isa.XORI, op == isa.LUI:
		if in.Imm < math.MinInt16 || in.Imm > math.MaxInt16 {
			return fmt.Errorf("immediate %d outside int16", in.Imm)
		}
	}
	return nil
}

// Invalidate drops the cached Validate/ValidateData results and every
// memoized derived artifact. Call it after mutating an already-validated
// program in place so the next Validate re-walks the CFG; transformations
// on a Clone need not bother (the copy starts unvalidated).
func (p *Program) Invalidate() {
	p.validated.Store(false)
	p.dataValidated.Store(false)
	p.memo.Range(func(k, _ any) bool {
		p.memo.Delete(k)
		return true
	})
}

// ValidateData checks the program's data layout, caching a successful
// result exactly as Validate does: programs are immutable once built, so
// sweeps that construct one interpreter per pass pay the instruction walk
// only once.
func (p *Program) ValidateData() error {
	if p.dataValidated.Load() {
		return nil
	}
	if err := p.Data.Validate(p); err != nil {
		return err
	}
	p.dataValidated.Store(true)
	return nil
}

// Memo returns the derived artifact cached under key, invoking build to
// produce it on the first call. Artifacts must be pure functions of the
// immutable program and read-only after construction, since every caller
// shares one value. Concurrent first calls may run build more than once;
// the first store wins, which is harmless for deterministic builders.
// Errors are not cached.
func (p *Program) Memo(key any, build func() (any, error)) (any, error) {
	if v, ok := p.memo.Load(key); ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	actual, _ := p.memo.LoadOrStore(key, v)
	return actual, nil
}

// MaxBlockInsts is the longest basic block Validate accepts. The event
// stream carries a block's instruction count in a one-byte column
// (interp.EventSink), so a longer block could not be streamed.
const MaxBlockInsts = 255

// Validate checks structural invariants: block IDs match positions, every
// block belongs to exactly one procedure, no block is empty or longer than
// MaxBlockInsts, CTIs appear only as terminators, every immediate and
// shift amount fits its MIPS-I field, successor edges are present exactly
// where the terminator requires them, and probabilities are in range. A
// successful result is cached until Invalidate; repeated calls on an
// unchanged program are free.
func (p *Program) Validate() error {
	if p.validated.Load() {
		return nil
	}
	if len(p.Procs) == 0 {
		return fmt.Errorf("program %s: no procedures", p.Name)
	}
	if p.Entry < 0 || p.Entry >= len(p.Procs) {
		return fmt.Errorf("program %s: entry proc %d out of range", p.Name, p.Entry)
	}
	owner := make([]int, len(p.Blocks))
	for i := range owner {
		owner[i] = None
	}
	for pi, proc := range p.Procs {
		if len(proc.Blocks) == 0 {
			return fmt.Errorf("program %s: proc %s has no blocks", p.Name, proc.Name)
		}
		if proc.Blocks[0] != proc.Entry {
			return fmt.Errorf("program %s: proc %s entry %d is not its first block %d", p.Name, proc.Name, proc.Entry, proc.Blocks[0])
		}
		for _, id := range proc.Blocks {
			if p.Block(id) == nil {
				return fmt.Errorf("program %s: proc %s references missing block %d", p.Name, proc.Name, id)
			}
			if owner[id] != None {
				return fmt.Errorf("program %s: block %d in both proc %d and %d", p.Name, id, owner[id], pi)
			}
			owner[id] = pi
		}
	}
	for i, b := range p.Blocks {
		if b.ID != i {
			return fmt.Errorf("program %s: block at index %d has ID %d", p.Name, i, b.ID)
		}
		if owner[i] == None {
			return fmt.Errorf("program %s: block %d not in any procedure", p.Name, i)
		}
		if len(b.Insts) == 0 {
			return fmt.Errorf("program %s: block %d is empty", p.Name, i)
		}
		if len(b.Insts) > MaxBlockInsts {
			return fmt.Errorf("program %s: block %d has %d instructions, more than %d", p.Name, i, len(b.Insts), MaxBlockInsts)
		}
		for j, in := range b.Insts {
			if in.IsCTI() && j != len(b.Insts)-1 {
				return fmt.Errorf("program %s: block %d has CTI %q at non-terminal position %d", p.Name, i, in.Inst, j)
			}
			if in.Op.IsMem() && in.Mem.Kind == MemNone {
				return fmt.Errorf("program %s: block %d inst %d (%q) has no memory behaviour", p.Name, i, j, in.Inst)
			}
			if !in.Op.IsMem() && in.Mem.Kind != MemNone {
				return fmt.Errorf("program %s: block %d inst %d (%q) is not a memory op but has memory behaviour", p.Name, i, j, in.Inst)
			}
			if err := fieldsFit(in.Inst); err != nil {
				return fmt.Errorf("program %s: block %d inst %d (%q): %w", p.Name, i, j, in.Inst, err)
			}
		}
		if b.TakenProb < 0 || b.TakenProb > 1 {
			return fmt.Errorf("program %s: block %d taken probability %g out of range", p.Name, i, b.TakenProb)
		}
		if err := p.validateEdges(b, owner); err != nil {
			return err
		}
	}
	p.validated.Store(true)
	return nil
}

func (p *Program) validateEdges(b *Block, owner []int) error {
	term, ok := b.Terminator()
	if !ok {
		if b.Fallthrough == None {
			return fmt.Errorf("program %s: straight-line block %d has no fallthrough", p.Name, b.ID)
		}
		if p.Block(b.Fallthrough) == nil {
			return fmt.Errorf("program %s: block %d falls through to missing block %d", p.Name, b.ID, b.Fallthrough)
		}
		return nil
	}
	switch term.Op.Class() {
	case isa.ClassBranch:
		if p.Block(b.Taken) == nil || p.Block(b.Fallthrough) == nil {
			return fmt.Errorf("program %s: branch block %d needs both successors (taken %d, fallthrough %d)", p.Name, b.ID, b.Taken, b.Fallthrough)
		}
		// Branches stay within their procedure.
		if owner[b.Taken] != owner[b.ID] || owner[b.Fallthrough] != owner[b.ID] {
			return fmt.Errorf("program %s: branch block %d crosses procedures", p.Name, b.ID)
		}
	case isa.ClassJump:
		if term.Op == isa.JAL {
			if b.CallProc < 0 || b.CallProc >= len(p.Procs) {
				return fmt.Errorf("program %s: call block %d has bad callee %d", p.Name, b.ID, b.CallProc)
			}
			if p.Block(b.Fallthrough) == nil {
				return fmt.Errorf("program %s: call block %d has no return point", p.Name, b.ID)
			}
		} else {
			if p.Block(b.Taken) == nil {
				return fmt.Errorf("program %s: jump block %d has no target", p.Name, b.ID)
			}
			if owner[b.Taken] != owner[b.ID] {
				return fmt.Errorf("program %s: jump block %d crosses procedures", p.Name, b.ID)
			}
		}
	case isa.ClassJumpReg:
		if !b.IsReturn && p.Block(b.Taken) == nil {
			return fmt.Errorf("program %s: indirect jump block %d is neither return nor has a target set", p.Name, b.ID)
		}
	}
	return nil
}

// Clone returns a deep copy of the program; schedulers transform the copy
// so the original remains usable as the zero-delay-slot reference.
func (p *Program) Clone() *Program {
	q := &Program{Name: p.Name, Entry: p.Entry, Base: p.Base, Data: p.Data.clone()}
	q.Blocks = make([]*Block, len(p.Blocks))
	for i, b := range p.Blocks {
		nb := *b
		nb.Insts = append([]Inst(nil), b.Insts...)
		q.Blocks[i] = &nb
	}
	q.Procs = make([]*Proc, len(p.Procs))
	for i, pr := range p.Procs {
		np := *pr
		np.Blocks = append([]int(nil), pr.Blocks...)
		q.Procs[i] = &np
	}
	return q
}
