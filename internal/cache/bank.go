package cache

import (
	"fmt"
	"math/bits"

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
	base      int32 // offset of this configuration's lines in the shared slab
	lines     int32 // number of lines (sets * assoc)
	ci        int32 // index of the configuration in the bank
	writeBack bool
	fifo      bool // a hit leaves the set's order alone (see probeGeneral)
	// Tree-PLRU only: offset of this configuration's per-set words in the
	// shared plru slab (two per set: the bit tree and the last-touched
	// way), and log2 of the associativity (the tree depth).
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
// (set-associative ones) fall back to the general kernels below, one word
// per line. A last-block table in front of both answers a read of the
// block last probed in its set without visiting any configuration.
//
// Bank is not safe for concurrent use.
type Bank struct {
	cfgs []Config

	// Lane-packed groups plus the general-kernel leftovers, routed at
	// construction to one of two probe kernels: the ordered kernel (LRU
	// and FIFO, which differ only in whether a hit moves the line to the
	// front of its set) and the Tree-PLRU kernel.
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

	// Shared general-kernel line state, one word per line, indexed
	// [meta.base + set*assoc + way]: tag | lineValid | lineDirty. The
	// valid bit makes a hit test one compare (a zeroed line can never
	// match a probe tag), and dirty is only ever set on resident lines.
	// LRU and FIFO sets are kept in order, way 0 the newest line, so the
	// last way is always the victim and invalid lines sink to the tail.
	lines []uint64
	// plru holds two words per set of every metaPLRU configuration,
	// indexed [meta.plruBase + 2*set]: the Tree-PLRU bit tree, then the
	// way it last touched.
	plru []uint64

	// last is the last-block table (nil when the bank is not eligible; see
	// lastBlockSafe): one word per set of the configuration with the
	// fewest sets, holding the last block probed there | lineValid.
	last     []uint64
	lastBits uint32 // log2 of the shared block size
	lastMask uint32 // fewest sets - 1
	// filtered counts the reads the last-block table answered.
	filtered uint64

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
	plruWords := 0
	for _, ci := range general {
		cfg := cfgs[ci]
		sets := int(laneSets(cfg))
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
			m.plruBase = int32(plruWords)
			m.assocBits = uint32(bits.TrailingZeros32(uint32(cfg.Assoc)))
			plruWords += 2 * sets
			b.metaPLRU = append(b.metaPLRU, m)
		} else {
			b.meta = append(b.meta, m)
		}
		total += lines
	}
	if total > 0 {
		b.lines = make([]uint64, total)
	}
	if plruWords > 0 {
		b.plru = make([]uint64, plruWords)
	}
	if b.AllPacked() && len(b.packed) == 1 {
		b.solo = b.packed[0]
	} else if lastBlockSafe(cfgs) {
		minSets := uint32(0)
		for _, cfg := range cfgs {
			if s := laneSets(cfg); minSets == 0 || s < minSets {
				minSets = s
			}
		}
		b.last = make([]uint64, minSets)
		b.lastBits = uint32(bits.TrailingZeros32(uint32(cfgs[0].BlockWords)))
		b.lastMask = minSets - 1
	}
	return b, nil
}

// lastBlockSafe reports whether a bank over cfgs may answer a read from
// the last-block table. It needs one shared block size, so every
// configuration's set index refines that of the one with the fewest sets,
// and the block last probed in a set of that smallest configuration is
// also the last block accessed in its set of every configuration. It
// needs write-back everywhere, so every access allocates and that block
// is still resident in every configuration. Reading it again then changes
// no state under any policy: it is already the newest line of an LRU
// set, a FIFO hit moves nothing, a second Tree-PLRU touch of the way it
// last touched leaves the tree as it is, and a read leaves dirty bits
// alone.
func lastBlockSafe(cfgs []Config) bool {
	for _, cfg := range cfgs {
		if !cfg.WriteBack || cfg.BlockWords != cfgs[0].BlockWords {
			return false
		}
	}
	return true
}

// Line word flags: probe tags are 32-bit, so a zeroed (invalid) line can
// never compare equal to a probe's tag | lineValid.
const (
	lineValid = uint64(1) << 32
	lineDirty = uint64(1) << 33
)

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

// Release does nothing: a bank's slabs are ordinary garbage-collected
// memory. It remains only because the end-to-end benchmark
// (perfbench/layers.go) calls it; delete it at the next change to the
// benchmark.
func (b *Bank) Release() {}

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
	b.filtered = 0
}

// Filtered returns the number of reads the last-block table answered
// without visiting any configuration (always 0 for a bank without one).
func (b *Bank) Filtered() uint64 { return b.filtered }

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
	if b.last != nil {
		// A read of the block last probed in its set hits in every
		// configuration and changes no state (see lastBlockSafe).
		block := addr >> b.lastBits
		e := &b.last[block&b.lastMask]
		v := uint64(block) | lineValid
		if *e == v && !write {
			b.filtered++
			return 0
		}
		*e = v
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

// probeGeneral runs the ordered kernel over the LRU and FIFO
// configurations the lane packing cannot express. Each set is kept in
// order, way 0 the newest line: the most recently used under LRU, the
// most recently filled under FIFO. An LRU hit at way w rotates ways 0..w,
// a FIFO hit moves nothing, and a fill shifts every way down one and
// evicts the last. Invalid lines only ever leave the tail by a fill, so
// they stay behind every resident line, and the last way is an empty one
// whenever the set has one: the same choice as the oracle's first-empty
// way, then least recent use (LRU) or oldest fill (FIFO).
func (b *Bank) probeGeneral(addr uint32, write bool) uint64 {
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
		vtag := uint64(block>>m.tagShift) | lineValid
		base := int(m.base) + int(block&m.setMask)*int(m.assoc)
		ways := b.lines[base : base+int(m.assoc)]

		w := 0
		for w < len(ways) && ways[w]&^lineDirty != vtag {
			w++
		}
		if w < len(ways) {
			line := ways[w]
			if write {
				if m.writeBack {
					line |= lineDirty
				} else {
					b.stats[m.ci].Throughs++
				}
			}
			if !m.fifo {
				for ; w > 0; w-- {
					ways[w] = ways[w-1]
				}
			}
			ways[w] = line
			continue
		}
		miss |= 1 << uint(m.ci)
		st := &b.stats[m.ci]
		if write {
			st.WriteMisses++
			if !m.writeBack {
				st.Throughs++
				continue
			}
		} else {
			st.ReadMisses++
		}
		last := len(ways) - 1
		if ways[last]&lineDirty != 0 {
			st.Writebacks++
		}
		for w = last; w > 0; w-- {
			ways[w] = ways[w-1]
		}
		// A write reaching the fill implies write-back (write-through
		// write misses do not allocate), so the filled line is dirty
		// exactly when the probe is a write.
		if write {
			vtag |= lineDirty
		}
		ways[0] = vtag
	}
	return miss
}

// probePLRU runs the Tree-PLRU kernel. Its ways stay in place: the bit
// tree addresses them by position. The way the set touched last is
// compared first, as the ordered kernel's way 0 is, and a hit there skips
// the touch, which would rewrite the tree with the bits it holds.
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
		set := int(block & m.setMask)
		vtag := uint64(block>>m.tagShift) | lineValid
		base := int(m.base) + set*int(m.assoc)
		ways := b.lines[base : base+int(m.assoc)]
		// pw is the set's tree and last-touched way. The way starts at 0
		// and may hold no line, but then the compare fails: every resident
		// line was filled, and every fill touches.
		pw := b.plru[int(m.plruBase)+2*set:][:2]

		hit := int(pw[1])
		if ways[hit]&^lineDirty != vtag {
			hit = 0
			for hit < len(ways) && ways[hit]&^lineDirty != vtag {
				hit++
			}
			if hit < len(ways) {
				pw[0] = plruTouch(pw[0], uint32(hit), m.assocBits)
				pw[1] = uint64(hit)
			}
		}
		if hit < len(ways) {
			if write {
				if m.writeBack {
					ways[hit] |= lineDirty
				} else {
					b.stats[m.ci].Throughs++
				}
			}
			continue
		}
		miss |= 1 << uint(m.ci)
		st := &b.stats[m.ci]
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
		// invalid line's word is exactly 0.
		victim := 0
		for victim < len(ways) && ways[victim] != 0 {
			victim++
		}
		if victim == len(ways) {
			victim = int(plruVictim(pw[0], m.assocBits))
		}
		if ways[victim]&lineDirty != 0 {
			st.Writebacks++
		}
		if write {
			vtag |= lineDirty
		}
		ways[victim] = vtag
		pw[0] = plruTouch(pw[0], uint32(victim), m.assocBits)
		pw[1] = uint64(victim)
	}
	return miss
}

// Flush invalidates every line of every configuration, counting dirty
// lines as writebacks, and leaves the other statistics alone. The
// replacement trees and the last-block table return to their state in a
// freshly built bank.
func (b *Bank) Flush() {
	for _, g := range b.packed {
		g.flush()
	}
	for _, metas := range [][]bankMeta{b.meta, b.metaPLRU} {
		for mi := range metas {
			m := &metas[mi]
			for _, line := range b.lines[m.base : m.base+m.lines] {
				if line&lineDirty != 0 {
					b.stats[m.ci].Writebacks++
				}
			}
		}
	}
	clear(b.lines)
	clear(b.plru)
	clear(b.last)
}

// Publish folds every configuration's statistics into reg, naming each
// configuration prefix + its Label(), and the bank's last-block table
// answers into prefix + "filtered".
func (b *Bank) Publish(reg *obs.Registry, prefix string) {
	for i, cfg := range b.cfgs {
		PublishStats(reg, prefix+cfg.Label(), b.Stats(i))
	}
	reg.Counter(prefix + "filtered").Add(int64(b.filtered))
}
