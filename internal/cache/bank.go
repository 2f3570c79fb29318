package cache

import (
	"fmt"
	"math/bits"

	"pipecache/internal/mempool"
	"pipecache/internal/obs"
)

// MaxBankConfigs is the widest Bank: the miss mask carries one bit per
// configuration.
const MaxBankConfigs = 64

// bankMeta is the per-configuration geometry of the general (non-packed)
// kernel, hoisted out of the probe loop so the hot path is pure shifts
// and masks.
type bankMeta struct {
	blockBits uint32 // log2 block size in words
	tagShift  uint32 // log2 set count
	setMask   uint32
	assoc     int32
	base      int32 // offset of this configuration's lines in the shared arrays
	lines     int32 // number of lines (sets * assoc)
	ci        int32 // index of the configuration in the bank
	writeBack bool
	fifo      bool // a hit leaves the line's age alone (see probeGeneral)
	// Tree-PLRU only: offset of this configuration's per-set bit trees in
	// the shared plru slab, and log2 of the associativity (the tree depth).
	plruBase  int32
	assocBits uint32
}

// Bank simulates a whole ladder of cache configurations in one probe.
// Miss counts do not depend on miss penalties, so a single pass over the
// reference stream can evaluate every candidate size at once. Each probe
// returns a bitmask with bit i set when configuration i missed (the same
// condition as !Cache.Access().Hit), and the per-configuration Stats are
// bit-identical to running a separate Cache per configuration.
//
// Direct-mapped configurations sharing a block size and write policy are
// fused into lane-packed groups (see packed.go): one table lookup and one
// tag compare update every such configuration at once through uint64
// valid/dirty bitmask lanes. Configurations the packing cannot express
// (set-associative ones) fall back to the general structure-of-arrays
// kernel below.
//
// Bank is not safe for concurrent use.
type Bank struct {
	cfgs []Config

	// Lane-packed groups plus the general-kernel leftovers, routed at
	// construction to one of two probe kernels: the age kernel (LRU and
	// FIFO, which differ only in whether a hit refreshes the age) and the
	// Tree-PLRU kernel.
	packed   []*packedGroup
	meta     []bankMeta // general LRU and FIFO configurations
	metaPLRU []bankMeta // general Tree-PLRU configurations
	// wtDerived marks packed write-through lanes: every write probes every
	// lane, so Throughs is exactly the bank-level write count and is
	// derived in Stats instead of counted per probe.
	wtDerived []bool

	// solo is the single packed group when it covers every configuration
	// (a lone direct-mapped LRU configuration, or a ladder of them sharing
	// block size and write policy), nil otherwise: probe then collapses to
	// that group's flattened hit path.
	solo *packedGroup

	// Shared general-kernel line state, indexed [meta.base + set*assoc +
	// way]. A line's tag carries lineValid (bit 32) when the line holds
	// data: one 64-bit compare replaces the separate valid-byte and tag
	// loads, and the zero value can never match a real probe tag. Invalid
	// lines keep lru == 0, below every real tick, so LRU victim selection
	// prefers them exactly as an explicit empty-way scan would. dirty is
	// only ever set on resident lines.
	tags  []uint64
	dirty []bool
	lru   []uint64
	tick  uint64
	// plru holds one Tree-PLRU bit-tree word per set of every metaPLRU
	// configuration, indexed [meta.plruBase + set].
	plru []uint64

	stats []Stats
	// reads and writes are bank-level access counters: every probe touches
	// every configuration, so the Reads/Writes components of Stats are
	// identical across configurations and are accounted once per probe
	// here instead of once per configuration in the kernel. Stats folds
	// them back in.
	reads, writes uint64

	probeWords uint32 // smallest block size across configurations
}

// NewBank builds a fused bank over the configurations. At most
// MaxBankConfigs configurations fit in the miss mask.
func NewBank(cfgs []Config) (*Bank, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: empty bank")
	}
	if len(cfgs) > MaxBankConfigs {
		return nil, fmt.Errorf("cache: bank of %d configs exceeds %d", len(cfgs), MaxBankConfigs)
	}
	b := &Bank{
		cfgs:      append([]Config(nil), cfgs...),
		stats:     make([]Stats, len(cfgs)),
		wtDerived: make([]bool, len(cfgs)),
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		if b.probeWords == 0 || uint32(cfg.BlockWords) < b.probeWords {
			b.probeWords = uint32(cfg.BlockWords)
		}
	}

	// Partition: packable configurations group by (block size, write
	// policy) in chunks of at most maxPackedLanes, preserving config
	// order; the rest go to the general kernel.
	type groupKey struct {
		blockWords int
		writeBack  bool
	}
	groups := map[groupKey][]int{}
	var keys []groupKey
	var general []int
	for ci, cfg := range cfgs {
		if !packable(cfg) {
			general = append(general, ci)
			continue
		}
		k := groupKey{cfg.BlockWords, cfg.WriteBack}
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], ci)
	}
	for _, k := range keys {
		idx := groups[k]
		for len(idx) > 0 {
			n := len(idx)
			if n > maxPackedLanes {
				n = maxPackedLanes
			}
			g := newPackedGroup(b.cfgs, idx[:n])
			for l := range g.lanes {
				// b.stats never reallocates, so the per-lane counter pointer
				// stays valid for the bank's lifetime.
				g.lanes[l].st = &b.stats[g.lanes[l].ci]
			}
			b.packed = append(b.packed, g)
			if !k.writeBack {
				for _, ci := range idx[:n] {
					b.wtDerived[ci] = true
				}
			}
			idx = idx[n:]
		}
	}

	total := 0
	plruSets := 0
	for _, ci := range general {
		cfg := cfgs[ci]
		sets := cfg.SizeKW * 1024 / (cfg.BlockWords * cfg.Assoc)
		lines := sets * cfg.Assoc
		m := bankMeta{
			blockBits: uint32(bits.TrailingZeros32(uint32(cfg.BlockWords))),
			tagShift:  uint32(bits.TrailingZeros32(uint32(sets))),
			setMask:   uint32(sets - 1),
			assoc:     int32(cfg.Assoc),
			base:      int32(total),
			lines:     int32(lines),
			ci:        int32(ci),
			writeBack: cfg.WriteBack,
			fifo:      cfg.Policy == PolicyFIFO,
		}
		// Route each configuration to its policy's kernel once, here.
		if cfg.Policy == PolicyTreePLRU {
			m.plruBase = int32(plruSets)
			m.assocBits = uint32(bits.TrailingZeros32(uint32(cfg.Assoc)))
			plruSets += sets
			b.metaPLRU = append(b.metaPLRU, m)
		} else {
			b.meta = append(b.meta, m)
		}
		total += lines
	}
	if total > 0 {
		b.tags = mempool.Uint64s(total)
		b.dirty = mempool.Bools(total)
		b.lru = mempool.Uint64s(total)
	}
	if plruSets > 0 {
		b.plru = mempool.Uint64s(plruSets)
	}
	if b.AllPacked() && len(b.packed) == 1 {
		b.solo = b.packed[0]
	}
	return b, nil
}

// lineValid marks a resident line's tag word; probe tags are 32-bit, so a
// zeroed (invalid) line can never compare equal to a probe.
const lineValid = uint64(1) << 32

// Len returns the number of configurations in the bank.
func (b *Bank) Len() int { return len(b.cfgs) }

// Config returns the i'th configuration.
func (b *Bank) Config(i int) Config { return b.cfgs[i] }

// AllPacked reports whether every configuration is covered by lane-packed
// groups, with no general-kernel leftovers.
func (b *Bank) AllPacked() bool {
	return len(b.meta) == 0 && len(b.metaPLRU) == 0
}

// PackedGroups returns the number of lane-packed groups.
func (b *Bank) PackedGroups() int { return len(b.packed) }

// Release returns the bank's pooled slabs. The bank must not be used
// afterwards.
func (b *Bank) Release() {
	for _, g := range b.packed {
		g.release()
	}
	b.packed = nil
	if b.tags != nil {
		mempool.PutUint64s(b.tags)
		mempool.PutBools(b.dirty)
		mempool.PutUint64s(b.lru)
		b.tags, b.dirty, b.lru = nil, nil, nil
	}
	if b.plru != nil {
		mempool.PutUint64s(b.plru)
		b.plru = nil
	}
	b.meta, b.metaPLRU = nil, nil
}

// Stats returns a copy of the i'th configuration's statistics.
func (b *Bank) Stats(i int) Stats {
	st := b.stats[i]
	st.Reads += b.reads
	st.Writes += b.writes
	if b.wtDerived[i] {
		// Packed write-through lanes: every write probe forwards to the
		// next level whether it hits or misses, so Throughs is exactly
		// the bank-level write count.
		st.Throughs += b.writes
	}
	return st
}

// ResetStats clears all statistics without touching line state.
func (b *Bank) ResetStats() {
	for i := range b.stats {
		b.stats[i] = Stats{}
	}
	b.reads, b.writes = 0, 0
}

// ProbeWords returns the smallest block size in the bank, in words: the
// alignment grain for AccessRange (a range must not cross a boundary of
// this many words).
func (b *Bank) ProbeWords() uint32 { return b.probeWords }

// Access performs one read (write=false) or write (write=true) of the
// word at addr against every configuration and returns the miss mask
// (bit i set when configuration i did not hit).
func (b *Bank) Access(addr uint32, write bool) uint64 {
	return b.probe(addr, write, 1)
}

// AccessRange performs n consecutive word reads starting at addr with a
// single tag compare per configuration. The whole range must lie within
// one ProbeWords-sized block (and therefore within one block of every
// configuration), which makes the grouped probe bit-identical to n
// per-word reads: only the first word can miss, the remaining n-1 words
// hit the line it just filled. Reads is advanced by n per configuration
// so probe counters match the per-word model exactly.
func (b *Bank) AccessRange(addr uint32, n int) uint64 {
	return b.probe(addr, false, uint64(n))
}

func (b *Bank) probe(addr uint32, write bool, n uint64) uint64 {
	if write {
		b.writes += n
	} else {
		b.reads += n
	}
	if g := b.solo; g != nil {
		block := addr >> g.blockBits
		// g.probe's body, flattened here to drop one call from the probe
		// path (the dominant cost of a hit is the call overhead itself).
		s := block & g.maskMax
		t := uint64(block >> g.setBits)
		e := g.table[s]
		var miss uint64
		if e>>32 == t && e&g.allValid == g.allValid {
			if write && g.writeBack {
				g.table[s] = e | g.allValid<<16
			}
		} else {
			miss = g.probeSlow(s, t, e, write)
		}
		return miss
	}
	var miss uint64
	for _, g := range b.packed {
		miss |= g.probe(addr>>g.blockBits, write)
	}
	if len(b.meta) != 0 {
		miss |= b.probeGeneral(addr, write)
	}
	if len(b.metaPLRU) != 0 {
		miss |= b.probePLRU(addr, write)
	}
	return miss
}

// probeGeneral runs the structure-of-arrays kernel over the LRU and FIFO
// configurations the lane packing cannot express. The lru slab holds
// each line's age: the last-use tick under LRU, the fill tick under FIFO
// (whose hits leave it alone), so one strict-minimum victim scan serves
// both policies.
func (b *Bank) probeGeneral(addr uint32, write bool) uint64 {
	// One tick per probe (not per word): each probe touches at most one
	// line per configuration, so relative last-use (LRU) and fill (FIFO)
	// order is preserved exactly versus the per-access tick of Cache.
	b.tick++
	var miss uint64
	prevBits := uint32(0xffffffff)
	var block uint32
	for mi := range b.meta {
		m := &b.meta[mi]
		// The block number only depends on the block size; a ladder
		// sharing one block size recomputes it at most once per distinct
		// size rather than once per configuration.
		if m.blockBits != prevBits {
			block = addr >> m.blockBits
			prevBits = m.blockBits
		}
		set := block & m.setMask
		vtag := uint64(block>>m.tagShift) | lineValid
		ci := m.ci

		base := int(m.base) + int(set)*int(m.assoc)
		hit := false
		for w := 0; w < int(m.assoc); w++ {
			i := base + w
			if b.tags[i] == vtag {
				if w != 0 {
					// Move-to-front: temporal locality lands most hits on
					// the most recent line, so keeping it at way 0 makes
					// the common hit a single compare. Pure way
					// permutation within the set — the line's tag, dirty
					// bit, and age tick travel together, and age ties
					// arise only among invalid lines, which are
					// interchangeable (tag 0, clean, lru 0) — so every
					// observable (miss masks, stats) is unchanged.
					b.tags[i], b.tags[base] = b.tags[base], b.tags[i]
					b.dirty[i], b.dirty[base] = b.dirty[base], b.dirty[i]
					b.lru[i], b.lru[base] = b.lru[base], b.lru[i]
					i = base
				}
				if !m.fifo {
					b.lru[i] = b.tick
				}
				if write {
					if m.writeBack {
						b.dirty[i] = true
					} else {
						b.stats[ci].Throughs++
					}
				}
				hit = true
				break
			}
		}
		if hit {
			continue
		}
		miss |= 1 << uint(ci)
		st := &b.stats[ci]
		if write {
			st.WriteMisses++
			if !m.writeBack {
				st.Throughs++
				continue
			}
		} else {
			st.ReadMisses++
		}
		// Invalid ways hold lru == 0, strictly below every live tick, so
		// the strict-minimum scan lands on the first empty way when one
		// exists — the same choice as an explicit empty-way search.
		victim := base
		for w := 1; w < int(m.assoc); w++ {
			i := base + w
			if b.lru[i] < b.lru[victim] {
				victim = i
			}
		}
		if b.dirty[victim] {
			st.Writebacks++
		}
		// A write reaching the fill implies write-back (write-through
		// write misses do not allocate), so the filled line's dirty bit
		// is just the write flag.
		b.dirty[victim] = write
		b.tags[victim] = vtag
		b.lru[victim] = b.tick
	}
	return miss
}

// probePLRU runs the Tree-PLRU kernel. No move-to-front here: the bit
// tree addresses ways by position, so the permutation the LRU/FIFO
// kernel relies on would desynchronize tree and contents.
func (b *Bank) probePLRU(addr uint32, write bool) uint64 {
	var miss uint64
	prevBits := uint32(0xffffffff)
	var block uint32
	for mi := range b.metaPLRU {
		m := &b.metaPLRU[mi]
		if m.blockBits != prevBits {
			block = addr >> m.blockBits
			prevBits = m.blockBits
		}
		set := block & m.setMask
		vtag := uint64(block>>m.tagShift) | lineValid
		ci := m.ci

		base := int(m.base) + int(set)*int(m.assoc)
		tree := &b.plru[int(m.plruBase)+int(set)]
		hit := -1
		for w := 0; w < int(m.assoc); w++ {
			if b.tags[base+w] == vtag {
				hit = w
				break
			}
		}
		if hit >= 0 {
			*tree = plruTouch(*tree, uint32(hit), m.assocBits)
			if write {
				if m.writeBack {
					b.dirty[base+hit] = true
				} else {
					b.stats[ci].Throughs++
				}
			}
			continue
		}
		miss |= 1 << uint(ci)
		st := &b.stats[ci]
		if write {
			st.WriteMisses++
			if !m.writeBack {
				st.Throughs++
				continue
			}
		} else {
			st.ReadMisses++
		}
		// Fill the first empty way when one exists (every policy fills
		// empty ways first), otherwise the way the bit tree selects. An
		// invalid line's tag word is exactly 0 (resident tags carry
		// lineValid).
		victim := -1
		for w := 0; w < int(m.assoc); w++ {
			if b.tags[base+w] == 0 {
				victim = w
				break
			}
		}
		if victim < 0 {
			victim = int(plruVictim(*tree, m.assocBits))
		}
		i := base + victim
		if b.dirty[i] {
			st.Writebacks++
		}
		b.dirty[i] = write
		b.tags[i] = vtag
		*tree = plruTouch(*tree, uint32(victim), m.assocBits)
	}
	return miss
}

// Flush invalidates every line of every configuration, counting dirty
// lines as writebacks, and leaves the other statistics alone.
func (b *Bank) Flush() {
	for _, g := range b.packed {
		g.flush()
	}
	for _, metas := range [][]bankMeta{b.meta, b.metaPLRU} {
		for mi := range metas {
			m := &metas[mi]
			for i := int(m.base); i < int(m.base+m.lines); i++ {
				if b.dirty[i] {
					b.stats[m.ci].Writebacks++
				}
				b.tags[i] = 0
				b.dirty[i] = false
				// Flushed lines drop to tag 0, clean, lru 0 — exactly the
				// state of a never-filled line — so victim selection prefers
				// them again and post-flush move-to-front ties only ever
				// permute fully interchangeable ways (see probeGeneral).
				b.lru[i] = 0
			}
		}
	}
	// Reset the replacement trees too, matching a freshly built bank.
	for i := range b.plru {
		b.plru[i] = 0
	}
}

// Publish folds every configuration's statistics into reg, naming each
// configuration prefix + its Label().
func (b *Bank) Publish(reg *obs.Registry, prefix string) {
	for i, cfg := range b.cfgs {
		PublishStats(reg, prefix+cfg.Label(), b.Stats(i))
	}
}
