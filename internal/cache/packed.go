package cache

import "math/bits"

// The lane-packed bank kernel. A ladder of direct-mapped configurations
// sharing one block size and one write policy satisfies the inclusion
// property: set classes nest (every set count is a power of two dividing
// the largest), so at any instant every configuration holding a block
// whose largest-ladder set index is s holds the *same* block — the most
// recently probed one of that class. The whole ladder therefore collapses
// into one table indexed by the largest configuration's set index, each
// entry packing the shared tag with per-configuration valid and dirty
// bitmask lanes:
//
//	entry = tag<<32 | dirty<<16 | valid
//
// One probe loads one entry; a full hit is a single 64-bit compare, and
// per-configuration miss counters fall out of bitmask popcount walks
// instead of a per-configuration inner loop. Configurations with fewer
// sets than the largest keep a holder map (lane class -> entry index)
// locating their current line among the entries of their class, so
// partial hits and evictions stay exact.
//
// maxPackedLanes bounds a group at the 16 valid/dirty mask bits.
const maxPackedLanes = 16

// packedLane is one configuration's view of a packed group.
type packedLane struct {
	cibit uint64 // 1 << ci: the configuration's bank-level miss-mask bit
	st    *Stats // the owning bank's counters for this configuration
	// holder maps a lane class to the entry currently holding the lane's
	// line (-1 when empty). nil for lanes spanning every entry (set count
	// equal to the group's), whose holder is the identity.
	holder []int32
	ci     int32  // index of the configuration in the bank
	mask   uint32 // set count - 1: projects an entry index to the lane's class
}

// packedGroup fuses the lanes of one (block size, write policy) ladder.
type packedGroup struct {
	blockBits uint32
	setBits   uint32 // log2 of the largest lane's set count (the tag shift)
	maskMax   uint32 // largest set count - 1 (the entry index mask)
	allValid  uint64 // mask of all lane bits
	writeBack bool
	table     []uint64
	lanes     []packedLane
}

// laneSets returns the set count of one config.
func laneSets(cfg Config) uint32 {
	return uint32(cfg.SizeKW * 1024 / (cfg.BlockWords * cfg.Assoc))
}

// packable reports whether a configuration can join a packed group. Only
// direct-mapped LRU lanes pack: at associativity 1 the policies are
// indistinguishable, but routing non-LRU configurations to the general
// kernels keeps every policy-labeled result answered by that policy's
// own code path until packed variants exist.
func packable(cfg Config) bool { return cfg.Assoc == 1 && cfg.Policy == PolicyLRU }

// newPackedGroup builds one group over the configs at the given bank
// indices (all packable, same block size and write policy).
func newPackedGroup(cfgs []Config, idx []int) *packedGroup {
	maxSets := uint32(0)
	for _, ci := range idx {
		if s := laneSets(cfgs[ci]); s > maxSets {
			maxSets = s
		}
	}
	g := &packedGroup{
		blockBits: uint32(bits.TrailingZeros32(uint32(cfgs[idx[0]].BlockWords))),
		setBits:   uint32(bits.TrailingZeros32(maxSets)),
		maskMax:   maxSets - 1,
		writeBack: cfgs[idx[0]].WriteBack,
		table:     make([]uint64, maxSets),
		lanes:     make([]packedLane, len(idx)),
	}
	for l, ci := range idx {
		sets := laneSets(cfgs[ci])
		lane := &g.lanes[l]
		lane.ci = int32(ci)
		lane.cibit = uint64(1) << uint(ci)
		lane.mask = sets - 1
		if sets < maxSets {
			lane.holder = make([]int32, sets)
			for i := range lane.holder {
				lane.holder[i] = -1
			}
		}
		g.allValid |= uint64(1) << uint(l)
	}
	return g
}

// probe sends one block access through every lane of the group and
// returns the bank-level miss mask contribution.
func (g *packedGroup) probe(block uint32, write bool) uint64 {
	s := block & g.maskMax
	t := uint64(block >> g.setBits)
	e := g.table[s]
	if e>>32 == t && e&g.allValid == g.allValid {
		// Every lane holds the block: the pure-hit fast path is one load
		// and one compare. A write-back write dirties every lane; a
		// write-through write only counts (Throughs is derived from the
		// bank-level write counter).
		if write && g.writeBack {
			g.table[s] = e | g.allValid<<16
		}
		return 0
	}
	return g.probeSlow(s, t, e, write)
}

func (g *packedGroup) probeSlow(s uint32, t, e uint64, write bool) uint64 {
	valid := e & 0xffff
	tagMatch := e>>32 == t && valid != 0
	var hit uint64
	if tagMatch {
		hit = valid
	}

	if write && !g.writeBack {
		// Write-through writes never allocate, so no line state changes:
		// count the per-lane write misses and return. Walking the missing
		// mask instead of every lane keeps the common partial hit — large
		// lanes resident, small lanes evicted — proportional to the
		// misses, not the ladder width.
		var miss uint64
		for ml := g.allValid &^ hit; ml != 0; ml &= ml - 1 {
			lane := &g.lanes[bits.TrailingZeros64(ml)]
			lane.st.WriteMisses++
			miss |= lane.cibit
		}
		return miss
	}

	// Allocating probe: a read under either policy, or a write-back write.
	dirty := (e >> 16) & 0xffff
	var miss uint64
	for ml := g.allValid &^ hit; ml != 0; ml &= ml - 1 {
		l := uint(bits.TrailingZeros64(ml))
		bit := uint64(1) << l
		lane := &g.lanes[l]
		st := lane.st
		if write {
			st.WriteMisses++
		} else {
			st.ReadMisses++
		}
		miss |= lane.cibit
		if lane.holder == nil {
			// The lane spans every entry, so its line (if any) is at s.
			if dirty&bit != 0 {
				st.Writebacks++
			}
			continue
		}
		c := s & lane.mask
		old := lane.holder[c]
		if old == int32(s) {
			// Tag mismatch with the lane's line at s itself: replaced in
			// place, writing back if dirty.
			if dirty&bit != 0 {
				st.Writebacks++
			}
			continue
		}
		if old >= 0 {
			// The lane's line lives at another entry of its class: evict
			// it there and move the holder here.
			oe := g.table[old]
			if oe&(bit<<16) != 0 {
				st.Writebacks++
			}
			g.table[old] = oe &^ (bit | bit<<16)
		}
		lane.holder[c] = int32(s)
	}

	// Install: after an allocating probe every lane holds the block. Hit
	// lanes keep their dirty bits on a read; a write-back write dirties
	// every lane; fills are clean.
	var nd uint64
	if write {
		nd = g.allValid
	} else if tagMatch {
		nd = dirty & hit
	}
	g.table[s] = t<<32 | nd<<16 | g.allValid
	return miss
}

// flush invalidates every entry, counting dirty lanes as writebacks.
func (g *packedGroup) flush() {
	for s, e := range g.table {
		for dl := (e >> 16) & 0xffff; dl != 0; dl &= dl - 1 {
			g.lanes[bits.TrailingZeros64(dl)].st.Writebacks++
		}
		g.table[s] = 0
	}
	for i := range g.lanes {
		if h := g.lanes[i].holder; h != nil {
			for c := range h {
				h[c] = -1
			}
		}
	}
}
