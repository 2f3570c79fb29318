package interp

import (
	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// The event stream. Run encodes every dynamic event as one row of three
// parallel columns (kind, A, B) and hands the columns to its sink in
// batches, one indirect call per batch. Consumers decode a batch with a
// switch over the kind column and call their own concrete methods, so the
// per-event work inlines.
//
// Stream invariance contract: the event stream of one interpreter is a
// pure function of (program, seed, instruction budget). Delay-slot
// translations, branch-handling schemes, load schemes, cache geometry, and
// the multiprogramming quantum are all applied downstream by the consumer
// — the interpreter never sees them — so a stream captured once can be
// replayed under any of those without re-execution. The trace package's
// capture/replay tier and its differential tests rely on this contract;
// any change that makes the stream depend on consumer configuration must
// also invalidate trace.EventTrace keys.

// EventKind is the kind column's value. The meaning of A and B depends on
// it.
type EventKind uint8

const (
	// EvBlock: the instructions of block A are about to execute; B is the
	// block's instruction count (saving the consumer the block lookup), at
	// most program.MaxBlockInsts.
	EvBlock EventKind = iota
	// EvLoadUse: a load's value was first consumed; A is the unrestricted
	// epsilon = c + d (Figure 6), B the same truncated at basic-block
	// boundaries (Figure 7), both at most EpsCap. Loads whose values are
	// never consumed are not reported.
	EvLoadUse
	// EvMemLoad / EvMemStore: one data reference at word address A.
	EvMemLoad
	EvMemStore
	// EvCTITaken / EvCTINotTaken: block A's terminating control transfer
	// resolved taken or not taken (unconditional transfers are taken).
	EvCTITaken
	EvCTINotTaken
)

// EventSink consumes the event stream in program order, one batch of
// parallel columns per call: row i is the event (kind[i], a[i], b[i]).
// B is one byte wide: it only ever holds a block's instruction count,
// which program.Validate caps at program.MaxBlockInsts = 255, or a
// block-truncated epsilon, capped at EpsCap; every other kind leaves it 0.
// Batch boundaries carry no meaning. The columns are reused between calls;
// implementations must not retain them.
type EventSink interface {
	Events(kind []uint8, a []uint32, b []uint8)
}

// Both caps must fit the B column; these fail to compile otherwise.
var (
	_ uint8 = program.MaxBlockInsts
	_ uint8 = EpsCap
)

// instMeta is the per-instruction static decode: the class-derived flags,
// single def register and source registers that the loop would otherwise
// re-derive from opcode tables on every dynamic execution.
type instMeta struct {
	flags uint8
	def   isa.Reg
	nsrc  uint8
	src   [2]isa.Reg
}

const (
	metaIsMem uint8 = 1 << iota
	metaIsStore
	metaHasDef
)

// blockMeta caches one block's decode: its instructions and the class of
// its terminator (ClassNop when the block is straight-line code).
type blockMeta struct {
	insts []instMeta
	term  isa.Class
	isJAL bool
}

// decode builds the static decode table for the whole program. It runs
// once per interpreter, on the first Run call.
func (it *Interp) decode() {
	it.meta = make([]blockMeta, len(it.prog.Blocks))
	for i, b := range it.prog.Blocks {
		bm := &it.meta[i]
		bm.insts = make([]instMeta, len(b.Insts))
		for j := range b.Insts {
			in := &b.Insts[j]
			m := &bm.insts[j]
			s, n := in.SrcRegs()
			m.src = s
			m.nsrc = uint8(n)
			if d, ok := in.Def(); ok {
				m.def = d
				m.flags |= metaHasDef
			}
			if in.Op.IsMem() {
				m.flags |= metaIsMem
			}
			if in.Op.IsStore() {
				m.flags |= metaIsStore
			}
		}
		if term, ok := b.Terminator(); ok {
			bm.term = term.Op.Class()
			bm.isJAL = term.Op == isa.JAL
		} else {
			bm.term = isa.ClassNop
		}
	}
}

// batchEvents is the capacity of the batch columns.
const batchEvents = 4096

// Run executes at least n further instructions (stopping at the first
// block boundary at or past the target), delivering the event stream to
// sink in batches. It returns the number of instructions executed by this
// call.
func (it *Interp) Run(n int64, sink EventSink) int64 {
	if it.meta == nil {
		it.decode()
		it.grow(batchEvents)
	}
	start := it.icount
	target := start + n
	for it.icount < target {
		b := it.prog.Blocks[it.cur]
		// A block emits at most one Block, one CTI and three events per
		// instruction (two load-uses + one memory reference); flush ahead
		// of the block so the per-event appends never reallocate.
		need := 3*len(b.Insts) + 2
		if cap(it.kind)-len(it.kind) < need {
			it.flush(sink)
			if cap(it.kind) < need {
				it.grow(2 * need)
			}
		}
		it.step(b)
	}
	it.flush(sink)
	return it.icount - start
}

// grow replaces the batch columns with empty ones of capacity n.
func (it *Interp) grow(n int) {
	it.kind = make([]uint8, 0, n)
	it.a = make([]uint32, 0, n)
	it.b = make([]uint8, 0, n)
}

// flush hands the pending batch to sink and empties the columns.
func (it *Interp) flush(sink EventSink) {
	if len(it.kind) > 0 {
		sink.Events(it.kind, it.a, it.b)
		it.kind, it.a, it.b = it.kind[:0], it.a[:0], it.b[:0]
	}
}

// emit appends one event row to the batch columns.
func (it *Interp) emit(k EventKind, a uint32, b uint8) {
	it.kind = append(it.kind, uint8(k))
	it.a = append(it.a, a)
	it.b = append(it.b, b)
}

// step executes block b, appending its events to the batch columns, and
// advances to the successor, with the static per-instruction facts read
// from the decode table.
func (it *Interp) step(b *program.Block) {
	it.emit(EvBlock, uint32(b.ID), uint8(len(b.Insts)))
	bm := &it.meta[b.ID]
	blockLen := len(b.Insts)
	for idx := range bm.insts {
		m := &bm.insts[idx]
		it.icount++
		now := it.icount

		// Resolve pending loads on first use of their destinations.
		if it.nPending != 0 {
			for _, u := range m.src[:m.nsrc] {
				rec := &it.pending[u]
				if !rec.active {
					continue
				}
				rec.active = false
				it.nPending--
				d := int(now - rec.at - 1)
				if d > EpsCap {
					d = EpsCap
				}
				eps := capEps(rec.c + d)
				dBlk := d
				if dBlk > rec.maxD {
					dBlk = rec.maxD
				}
				cBlk := rec.c
				if cBlk > rec.maxC {
					cBlk = rec.maxC
				}
				it.emit(EvLoadUse, uint32(eps), uint8(capEps(cBlk+dBlk)))
			}
		}

		if m.flags&metaIsMem != 0 {
			in := &b.Insts[idx]
			addr := it.dataAddr(in)
			if m.flags&metaIsStore != 0 {
				it.emit(EvMemStore, addr, 0)
			} else {
				it.emit(EvMemLoad, addr, 0)
				if in.Rd != isa.Zero {
					c := int(now - it.lastDef[in.Rs] - 1)
					if c > EpsCap {
						c = EpsCap
					}
					if !it.pending[in.Rd].active {
						it.nPending++
					}
					it.pending[in.Rd] = loadRec{
						active: true,
						at:     now,
						c:      c,
						maxC:   idx,
						maxD:   blockLen - idx - 1,
					}
					it.lastDef[in.Rd] = now
					continue
				}
			}
		}

		// Record the definition; a redefinition kills an unconsumed load
		// (dead value, no interlock stall would occur).
		if m.flags&metaHasDef != 0 {
			d := m.def
			it.lastDef[d] = now
			if it.pending[d].active {
				it.pending[d].active = false
				it.nPending--
			}
		}
	}

	switch bm.term {
	case isa.ClassBranch:
		if it.rng.Bool(b.TakenProb) {
			it.emit(EvCTITaken, uint32(b.ID), 0)
			it.cur = b.Taken
		} else {
			it.emit(EvCTINotTaken, uint32(b.ID), 0)
			it.cur = b.Fallthrough
		}
	case isa.ClassJump:
		it.emit(EvCTITaken, uint32(b.ID), 0)
		if bm.isJAL {
			it.stack = append(it.stack, frame{returnBlock: b.Fallthrough, proc: it.curProc})
			it.curProc = b.CallProc
			it.cur = it.prog.Procs[b.CallProc].Entry
		} else {
			it.cur = b.Taken
		}
	case isa.ClassJumpReg:
		it.emit(EvCTITaken, uint32(b.ID), 0)
		if b.IsReturn {
			if len(it.stack) == 0 {
				// Returning from the entry procedure: restart it. The
				// generator's driver never returns, but hand-built
				// programs may.
				it.curProc = it.prog.Entry
				it.cur = it.prog.Procs[it.curProc].Entry
				return
			}
			f := it.stack[len(it.stack)-1]
			it.stack = it.stack[:len(it.stack)-1]
			it.curProc = f.proc
			it.cur = f.returnBlock
		} else {
			it.cur = b.Taken
		}
	default:
		it.cur = b.Fallthrough
	}
}
