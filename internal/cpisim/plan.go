package cpisim

import (
	"sync"

	"pipecache/internal/interp"
	"pipecache/internal/program"
	"pipecache/internal/sched"
	"pipecache/internal/stats"
)

// The compiled-chunk replay path. A trace chunk is immutable and replayed
// many times (a design-space sweep replays one capture at every ladder
// configuration), yet the event-at-a-time dispatch re-decodes the same
// columns on every pass. Under the plan conditions (static branch
// scheme, no BTB, no L2; see planOK) everything except the cache probes
// is a pure function of (chunk columns, translation): the instruction,
// fetch, CTI, and prediction counters, the epsilon histograms, and the
// delay-slot skip carried out of the chunk. buildChunkPlan evaluates that
// function once and stores the residue — counter deltas, histograms, and
// the resolved I-fetch stream — on the trace's Aux cache. Every later
// delivery of the same columns is a dozen counter additions, two
// histogram merges, and the probes: the fetch stream's, and one per load
// and store read straight from the columns.
//
// This is the only fast replay path. Everything it does not cover goes
// through the generic handlers shared with live runs (sim.go), which are
// also the oracle the plan path is tested against.

// blockMeta is the per-block working set of plan compilation: the
// translated fetch geometry plus the precomputed consequence of the
// block's CTI under the static scheme (zero for blocks without a CTI,
// which never emit CTI events). Entries are squeezed to 16 bytes — four
// per cache line — because the table is indexed by block id in trace
// order, an effectively random pattern: the narrow fields (lengths, slot
// counts, and skips are bounded by blockMetaFits's block-length cap,
// far below 16 bits) keep the footprint small. Addresses are offsets
// above the table's base, the form the plans' fetch runs store.
type blockMeta struct {
	newOff      uint32 // translated fetch address (Translation.NewAddr) - base
	squashOff   uint32 // fall-through fetch address on a taken mispredict - base
	newLen      uint16 // translated fetch length (Translation.NewLen)
	squashN     uint8  // squashed delay-slot fetches on a taken mispredict
	wastedTaken uint8  // WastedSlots(id, true)
	wastedNT    uint8  // WastedSlots(id, false)
	skip        uint8  // delay-slot skip handed to the next block when taken
	predTaken   bool
}

// blockTable is one translation's block table and the base its fetch
// offsets are measured from: the translation's lowest fetch address.
type blockTable struct {
	metas []blockMeta
	base  uint32
}

// blockMetaKey memoizes one block table on its program (Program.Memo):
// a sweep builds thousands of Sims over the same few workloads, and the
// table is a pure function of (program, slot budget, profile), so
// rebuilding it per Sim was a measurable slice of every replay iteration.
// Program.Invalidate drops it together with the translation it decodes.
type blockMetaKey struct {
	slots int
	prof  *sched.Profile
}

// cachedBlockTable returns the shared table for one translation identity,
// building it from xlat on first sight, or nil when the translation does
// not fit the plan encodings (blockMetaFits). Concurrent builders
// (parallel sweep passes over one workload) converge on one canonical
// table.
func cachedBlockTable(prog *program.Program, xlat *sched.Translation, slots int, prof *sched.Profile) *blockTable {
	v, _ := prog.Memo(blockMetaKey{slots: slots, prof: prof}, func() (any, error) {
		return newBlockTable(xlat), nil
	})
	return v.(*blockTable)
}

// The plans' fetch runs pack (addr - base)<<runWordBits | words into 32
// bits: a run is at most one translated block, so blockMetaFits bounds
// both fields.
const (
	runWordBits = 10
	runWordMask = 1<<runWordBits - 1
	runOffLimit = 1 << (32 - runWordBits)
)

// fetchBounds returns the lowest and highest word addresses any fetch of
// the translation touches (zeros when it fetches nothing): the blocks'
// translated images and the squashed fall-through slots. Every fetch run
// starts within them.
func fetchBounds(xlat *sched.Translation) (lo, hi uint32) {
	lo = ^uint32(0)
	span := func(addr uint32, n int) {
		if n > 0 {
			lo = min(lo, addr)
			hi = max(hi, addr+uint32(n)-1)
		}
	}
	for id := range xlat.Blocks {
		x := &xlat.Blocks[id]
		span(x.NewAddr, x.NewLen)
		span(x.SquashAddr, x.SquashN)
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// blockMetaFits reports whether the translation's fetch runs fit the
// plans' packed encoding: every translated block shorter than 2^10 words
// (a run is at most one block; squashed runs are bounded by the validated
// slot budget), and the span from the lowest to the highest fetched word
// below 2^22 words. Every workload the suite generates spans at most a
// few thousand words. A translation that does not fit (a hand-built one;
// no generated workload comes near) replays through the generic dispatch.
func blockMetaFits(xlat *sched.Translation) bool {
	for id := range xlat.Blocks {
		if xlat.Blocks[id].NewLen > runWordMask {
			return false
		}
	}
	lo, hi := fetchBounds(xlat)
	return hi-lo < runOffLimit
}

// newBlockTable tabulates every block's fetch geometry and static-scheme
// CTI consequences from one workload's translation, or returns nil when
// the translation does not fit the plan encodings.
func newBlockTable(xlat *sched.Translation) *blockTable {
	if !blockMetaFits(xlat) {
		return nil
	}
	base, _ := fetchBounds(xlat)
	ms := make([]blockMeta, len(xlat.Blocks))
	for id := range xlat.Blocks {
		x := &xlat.Blocks[id]
		m := &ms[id]
		m.newOff = x.NewAddr - base
		m.newLen = uint16(x.NewLen)
		m.squashOff = x.SquashAddr - base
		m.squashN = uint8(x.SquashN)
		m.skip = uint8(x.Skip)
		m.predTaken = x.PredTaken
		m.wastedTaken = uint8(xlat.WastedSlots(id, true))
		m.wastedNT = uint8(xlat.WastedSlots(id, false))
	}
	return &blockTable{metas: ms, base: base}
}

// planOK reports whether compiled chunk plans cover this configuration:
// the static branch scheme (no deferred BTB resolution) and no second
// level (no L1-miss forwarding).
func (s *Sim) planOK() bool {
	return s.cfg.BranchScheme == BranchStatic && s.btb == nil && s.l2bank == nil
}

// chunkPlan is one compiled chunk. Correctness hinges on the key
// (planKey). The plan is keyed by the column slice
// identity (base pointer and length — turns may deliver partial chunks,
// and a prefix is a different slice), by the translation identity
// (program, slot count, profile), and by the delay-slot skip carried
// into the delivery (a different quantum interleaves differently, so the
// same columns may arrive with a different pending skip; the skip is
// bounded by the slot budget, so the key space stays small).
// Configuration knobs the plan must NOT bake in are applied at delivery
// time instead: cache geometry through the probe loops, and the
// load-stall policy by weighting the stored epsilon histogram (stall =
// sum over hidden < l of (l - hidden) * count, exactly the per-event
// accumulation reordered).
type chunkPlan struct {
	insts       int64
	ifetches    int64
	branchStall int64
	ctis        int64
	predT       int64
	predTR      int64
	predNT      int64
	predNTR     int64
	dreads      int64
	dwrites     int64
	loadUses    int64
	eps         *stats.Hist
	epsBlock    *stats.Hist

	// fetches is the resolved I-fetch stream at its exact length, one
	// run per entry packed as (addr - base)<<runWordBits | words against
	// the block table's base. Skip consumption, noop padding, and
	// mispredict squash fetches are already folded in, so applying it is
	// pure probing.
	fetches []uint32
	skipOut int32 // delay-slot skip carried to the next delivery
}

// planKey identifies one compiled chunk: the exact column slice
// delivered, the translation it was decoded against, and the delay-slot
// skip carried into it.
type planKey struct {
	col    *uint8 // base of the delivered kind column
	n      int    // events in the delivery (a prefix is a distinct slice)
	prog   *program.Program
	slots  int
	prof   *sched.Profile
	skipIn int
}

// loadStall evaluates the configured load-delay policy against the
// plan's epsilon histograms: identical to summing the per-event stalls,
// reassociated into one pass over the first l bins.
func (p *chunkPlan) loadStall(l int, dynamic bool) int64 {
	if l == 0 {
		return 0
	}
	h := p.epsBlock
	if dynamic {
		h = p.eps
	}
	var stall int64
	for v := 0; v < l; v++ {
		stall += int64(l-v) * int64(h.Count(v))
	}
	return stall
}

// buildChunkPlan decodes one delivered column slice against the block
// table, starting from the carried delay-slot skip. The arithmetic is the
// generic handlers' (block, loadUse, mem, cti in sim.go), reordered into
// plan form. The fetch stream is decoded into the reused *scratch and
// copied out at its exact length.
func buildChunkPlan(metas []blockMeta, kinds []uint8, as []uint32, bvals []uint8, skipIn int, scratch *[]uint32) *chunkPlan {
	p := &chunkPlan{
		eps:      stats.NewHist(epsBins),
		epsBlock: stats.NewHist(epsBins),
	}
	fetches := (*scratch)[:0]
	as = as[:len(kinds)]
	bvals = bvals[:len(kinds)]
	skip := skipIn
	for i := range kinds {
		switch interp.EventKind(kinds[i]) {
		case interp.EvBlock:
			x := &metas[as[i]]
			off := x.newOff
			n := int(x.newLen)
			if skip != 0 {
				if pad := skip - n; pad > 0 {
					p.branchStall += int64(pad)
				}
				if skip >= n {
					n = 0
				} else {
					off += uint32(skip)
					n -= skip
				}
				skip = 0
			}
			p.ifetches += int64(n)
			if n > 0 {
				fetches = append(fetches, off<<runWordBits|uint32(n))
			}
			p.insts += int64(bvals[i])
		case interp.EvLoadUse:
			p.loadUses++
			p.eps.Add(int(as[i]))
			p.epsBlock.Add(int(bvals[i]))
		case interp.EvMemLoad:
			p.dreads++
		case interp.EvMemStore:
			p.dwrites++
		case interp.EvCTITaken:
			m := &metas[as[i]]
			p.ctis++
			if m.predTaken {
				p.predT++
				p.predTR++
				p.branchStall += int64(m.wastedTaken)
				skip = int(m.skip)
			} else {
				p.predNT++
				p.branchStall += int64(m.wastedTaken)
				if m.squashN > 0 {
					// The squashed slots were fetched from the fall-through
					// block before control transferred.
					p.ifetches += int64(m.squashN)
					fetches = append(fetches, m.squashOff<<runWordBits|uint32(m.squashN))
				}
			}
		case interp.EvCTINotTaken:
			m := &metas[as[i]]
			p.ctis++
			if m.predTaken {
				p.predT++
			} else {
				p.predNT++
				p.predNTR++
			}
			p.branchStall += int64(m.wastedNT)
		}
	}
	p.skipOut = int32(skip)
	p.fetches = make([]uint32, len(fetches))
	copy(p.fetches, fetches)
	*scratch = fetches
	return p
}

// planFor returns the compiled plan for a delivered column slice,
// building and caching it on first sight. LoadOrStore keeps one
// canonical instance when concurrent replays (parallel sweep passes
// share the trace's cache) compile the same chunk at once; the build is a
// pure function of the key, so either instance is identical; only the
// stored one counts in the pass's plan counters.
func (h *benchSink) planFor(aux *sync.Map, kinds []uint8, as []uint32, bvals []uint8) *chunkPlan {
	b := h.b
	key := planKey{col: &kinds[0], n: len(kinds), prog: b.prog, slots: b.slots, prof: b.prof, skipIn: b.skip}
	if v, ok := aux.Load(key); ok {
		return v.(*chunkPlan)
	}
	p := buildChunkPlan(b.tab.metas, kinds, as, bvals, b.skip, &h.scratch)
	v, loaded := aux.LoadOrStore(key, p)
	if !loaded {
		h.s.plansCompiled++
		h.s.planBytes += 4 * int64(cap(p.fetches))
	}
	return v.(*chunkPlan)
}

// applyPlan books one compiled chunk, delivered as the columns it was
// compiled from (the plan key is that slice): counter additions,
// histogram merges, the load-stall weighting, then the plan's fetches and
// the columns' loads and stores through the bank kernels, booking miss
// masks exactly as the per-event path does (fetchRange, mem).
func (h *benchSink) applyPlan(p *chunkPlan, kinds []uint8, as []uint32) {
	b := h.b
	res := &b.res
	res.Insts += p.insts
	res.IFetches += p.ifetches
	res.BranchStall += p.branchStall
	res.CTIs += p.ctis
	res.PredTaken += p.predT
	res.PredTakenRight += p.predTR
	res.PredNotTaken += p.predNT
	res.PredNotTakenRight += p.predNTR
	res.DReads += p.dreads
	res.DWrites += p.dwrites
	res.Loads += p.dreads
	res.LoadUses += p.loadUses
	res.Eps.Merge(p.eps)
	res.EpsBlock.Merge(p.epsBlock)
	res.LoadStall += p.loadStall(h.s.cfg.LoadSlots, h.s.cfg.LoadScheme == LoadDynamic)
	b.skip = int(p.skipOut)

	if ib := h.s.ibank; ib != nil {
		probe := ib.ProbeWords()
		probeM := probe - 1
		base := b.tab.base
		for _, f := range p.fetches {
			addr := base + f>>runWordBits
			n := int(f & runWordMask)
			for n > 0 {
				run := int(probe - addr&probeM)
				if run > n {
					run = n
				}
				if miss := ib.AccessRange(addr, run); miss != 0 {
					h.iMisses(addr, miss)
				}
				addr += uint32(run)
				n -= run
			}
		}
	}
	if db := h.s.dbank; db != nil {
		// Gather the positions branch-free: a per-event branch mispredicts.
		if cap(h.refs) < len(kinds) {
			h.refs = make([]uint32, len(kinds))
		}
		refs, n := h.refs[:len(kinds)], 0
		for i, k := range kinds {
			refs[n] = uint32(i)
			n += int(isMemRef[k])
		}
		for _, i := range refs[:n] {
			isStore := interp.EventKind(kinds[i]) == interp.EvMemStore
			if miss := db.Access(as[i], isStore); miss != 0 {
				h.dMisses(as[i], miss, isStore)
			}
		}
	}
}

var isMemRef = [256]uint8{interp.EvMemLoad: 1, interp.EvMemStore: 1} // kinds that probe the D bank
