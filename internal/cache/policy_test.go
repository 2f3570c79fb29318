package cache

import (
	"testing"

	"pipecache/internal/stats"
)

var allPolicies = []Policy{PolicyLRU, PolicyFIFO, PolicyTreePLRU}

func TestPolicyParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"", PolicyLRU, true},
		{"lru", PolicyLRU, true},
		{"fifo", PolicyFIFO, true},
		{"plru", PolicyTreePLRU, true},
		{"tree-plru", PolicyTreePLRU, true},
		{"treeplru", PolicyTreePLRU, true},
		{"random", 0, false},
		{"LRU", 0, false}, // callers normalize case before parsing
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
	if PolicyLRU.String() != "lru" || PolicyFIFO.String() != "fifo" || PolicyTreePLRU.String() != "plru" {
		t.Errorf("policy names: %v %v %v", PolicyLRU, PolicyFIFO, PolicyTreePLRU)
	}
	if Policy(9).Valid() {
		t.Error("Policy(9) reported valid")
	}
	if err := (Config{SizeKW: 1, BlockWords: 4, Assoc: 1, Policy: Policy(9)}).Validate(); err == nil {
		t.Error("config with unknown policy validated")
	}
}

// TestPolicyConfigStrings pins that the default policy leaves every
// rendered identity byte-identical to the pre-policy code, and that
// non-default policies are visible in both renderings.
func TestPolicyConfigStrings(t *testing.T) {
	base := Config{SizeKW: 8, BlockWords: 4, Assoc: 2, WriteBack: true}
	if got := base.String(); got != "8KW/4W 2-way write-back" {
		t.Errorf("default String() = %q", got)
	}
	if got := base.Label(); got != "8kw-b4-a2-wb" {
		t.Errorf("default Label() = %q", got)
	}
	base.Policy = PolicyFIFO
	if got := base.String(); got != "8KW/4W 2-way write-back fifo" {
		t.Errorf("fifo String() = %q", got)
	}
	base.Policy = PolicyTreePLRU
	if got := base.Label(); got != "8kw-b4-a2-wb-plru" {
		t.Errorf("plru Label() = %q", got)
	}
}

// TestPLRUTree drives the bit-tree helpers through a known 4-way
// sequence: after touching ways 0,1,2,3 in order the victim walk must
// land on way 0 (the least recently touched path), and each touch must
// steer the victim away from the way just used.
func TestPLRUTree(t *testing.T) {
	const bits = 2 // assoc 4
	var tree uint64
	for _, w := range []uint32{0, 1, 2, 3} {
		tree = plruTouch(tree, w, bits)
		if v := plruVictim(tree, bits); v == w {
			t.Fatalf("victim %d equals the way just touched", v)
		}
	}
	if v := plruVictim(tree, bits); v != 0 {
		t.Fatalf("after touching 0..3 victim = %d, want 0", v)
	}
	// Re-touch way 0: victim must move into the other subtree (way 2 or 3).
	tree = plruTouch(tree, 0, bits)
	if v := plruVictim(tree, bits); v != 2 {
		t.Fatalf("after re-touch of 0 victim = %d, want 2", v)
	}
	// Associativity 1: an empty tree, both operations no-ops.
	if plruTouch(0, 0, 0) != 0 || plruVictim(0, 0) != 0 {
		t.Fatal("assoc-1 tree operations are not no-ops")
	}
}

// TestPLRUWidestTree pins the widest Tree-PLRU set, whose nodes 1..63
// fill the per-set word. In a one-set 64-way cache filled way by way,
// touching way 1, then way 0, then ways 2..63 leaves way 1 as the victim,
// in the tree helpers, the Cache and the Bank alike. At 128 ways nodes
// 64..127 would shift out of the word and the same sequence evicted way
// 0, so Validate rejects Tree-PLRU sets wider than 64 ways.
func TestPLRUWidestTree(t *testing.T) {
	const assoc = 64
	seq := []uint32{1, 0}
	for w := uint32(2); w < assoc; w++ {
		seq = append(seq, w)
	}
	var tree uint64
	for _, w := range seq {
		tree = plruTouch(tree, w, 6)
	}
	if v := plruVictim(tree, 6); v != 1 {
		t.Fatalf("64-way victim after touching 1, 0, 2..63 = %d, want 1", v)
	}

	// One set of 64 16-word blocks: block w fills way w.
	cfg := Config{SizeKW: 1, BlockWords: 16, Assoc: assoc, WriteBack: true, Policy: PolicyTreePLRU}
	c := mustNew(t, cfg)
	bank := mustBank(t, []Config{cfg})
	access := func(block uint32) (bankMiss, cacheHit bool) {
		return bank.Access(block*16, false) != 0, c.Access(block*16, false).Hit
	}
	for w := uint32(0); w < assoc; w++ {
		access(w)
	}
	for _, w := range seq {
		if bankMiss, cacheHit := access(w); bankMiss || !cacheHit {
			t.Fatalf("touch of resident way %d: bank miss=%v, cache hit=%v", w, bankMiss, cacheHit)
		}
	}
	access(assoc) // a new block evicts the victim
	for w := uint32(0); w < assoc; w++ {
		if got := c.Contains(w * 16); got != (w != 1) {
			t.Errorf("cache holds block %d = %v after the eviction, want only block 1 gone", w, got)
		}
	}
	if bankMiss, _ := access(0); bankMiss {
		t.Error("bank evicted way 0, want way 1")
	}
	if bankMiss, _ := access(1); !bankMiss {
		t.Error("bank kept way 1, the pseudo-LRU victim")
	}

	wide := Config{SizeKW: 2, BlockWords: 16, Assoc: 2 * assoc, WriteBack: true, Policy: PolicyTreePLRU}
	if err := wide.Validate(); err == nil {
		t.Error("128-way Tree-PLRU validated")
	}
	wide.Policy = PolicyLRU
	if err := wide.Validate(); err != nil {
		t.Errorf("128-way LRU rejected: %v", err)
	}
}

// TestBankPolicyDifferentialExhaustive is the policy edition of the
// exhaustive differential: for every policy, drive the fused bank and the
// naive per-config reference Cache with an identical stream over the full
// config ladder and demand bit-identical miss masks and final Stats.
func TestBankPolicyDifferentialExhaustive(t *testing.T) {
	sizes := []int{1, 2, 4, 8, 16, 32}
	for _, pol := range allPolicies {
		for _, block := range []int{4, 8, 16} {
			for _, assoc := range []int{1, 2, 4, 8} {
				for _, wb := range []bool{true, false} {
					var cfgs []Config
					for _, s := range sizes {
						cfgs = append(cfgs, Config{SizeKW: s, BlockWords: block, Assoc: assoc, WriteBack: wb, Policy: pol})
					}
					bank := mustBank(t, cfgs)
					refs := refCaches(t, cfgs)
					seed := uint64(int(pol)*1000 + block*100 + assoc*10)
					if wb {
						seed++
					}
					r := stats.NewRNG(seed)
					for i := 0; i < 15000; i++ {
						addr := uint32(r.Intn(200_000))
						write := r.Bool(0.3)
						mask := bank.Access(addr, write)
						for ci, c := range refs {
							res := c.Access(addr, write)
							if gotMiss := mask&(1<<uint(ci)) != 0; gotMiss == res.Hit {
								t.Fatalf("pol=%v block=%d assoc=%d wb=%v cfg=%v probe %d addr=%d write=%v: bank miss=%v, cache hit=%v",
									pol, block, assoc, wb, cfgs[ci], i, addr, write, gotMiss, res.Hit)
							}
						}
					}
					for ci := range cfgs {
						if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
							t.Fatalf("pol=%v cfg=%v: bank stats %+v, cache stats %+v", pol, cfgs[ci], got, want)
						}
					}
				}
			}
		}
	}
}

// TestBankMixedPolicies packs all three policies into one bank — packed
// LRU lanes, general LRU, FIFO and Tree-PLRU configurations side by side —
// which exercises the per-kernel dispatch and the shared slab offsets.
func TestBankMixedPolicies(t *testing.T) {
	var cfgs []Config
	for _, pol := range allPolicies {
		for _, s := range []int{1, 4, 16} {
			for _, assoc := range []int{1, 2, 4} {
				for _, wb := range []bool{true, false} {
					cfgs = append(cfgs, Config{SizeKW: s, BlockWords: 8, Assoc: assoc, WriteBack: wb, Policy: pol})
				}
			}
		}
	}
	if len(cfgs) > MaxBankConfigs {
		t.Fatalf("test bank too wide: %d", len(cfgs))
	}
	bank := mustBank(t, cfgs)
	refs := refCaches(t, cfgs)
	r := stats.NewRNG(4242)
	for i := 0; i < 30000; i++ {
		addr := uint32(r.Intn(150_000))
		write := r.Bool(0.25)
		mask := bank.Access(addr, write)
		for ci, c := range refs {
			res := c.Access(addr, write)
			if gotMiss := mask&(1<<uint(ci)) != 0; gotMiss == res.Hit {
				t.Fatalf("cfg=%v probe %d: bank miss=%v, cache hit=%v", cfgs[ci], i, gotMiss, res.Hit)
			}
		}
	}
	for ci := range cfgs {
		if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
			t.Fatalf("cfg=%v: bank stats %+v, cache stats %+v", cfgs[ci], got, want)
		}
	}
}

// TestBankPolicyFlushThenProbe pins the flush seam of the policy kernels:
// Flush drops every line word to 0 and every Tree-PLRU word and
// last-block entry to their fresh state, so the kernels must stay
// bit-identical to the reference ladder across a mid-stream flush (and a
// flush immediately followed by the probes that refill empty sets).
func TestBankPolicyFlushThenProbe(t *testing.T) {
	for _, pol := range allPolicies {
		cfgs := []Config{
			{SizeKW: 1, BlockWords: 4, Assoc: 2, WriteBack: true, Policy: pol},
			{SizeKW: 2, BlockWords: 8, Assoc: 4, WriteBack: true, Policy: pol},
			{SizeKW: 4, BlockWords: 4, Assoc: 4, WriteBack: false, Policy: pol},
			{SizeKW: 2, BlockWords: 4, Assoc: 1, WriteBack: true, Policy: pol},
		}
		bank := mustBank(t, cfgs)
		refs := refCaches(t, cfgs)
		r := stats.NewRNG(uint64(31 + int(pol)))
		step := func(n int) {
			for i := 0; i < n; i++ {
				addr := uint32(r.Intn(50_000))
				write := r.Bool(0.4)
				mask := bank.Access(addr, write)
				for ci, c := range refs {
					res := c.Access(addr, write)
					if gotMiss := mask&(1<<uint(ci)) != 0; gotMiss == res.Hit {
						t.Fatalf("pol=%v cfg=%v probe %d: bank miss=%v, cache hit=%v", pol, cfgs[ci], i, gotMiss, res.Hit)
					}
				}
			}
		}
		step(5000)
		bank.Flush()
		for _, c := range refs {
			c.Flush()
		}
		// The tie-sensitive window: the very first probes after the flush
		// fill ways of all-invalid sets, where any non-interchangeable
		// leftover state would permute into the wrong victim.
		step(5000)
		bank.Flush()
		for _, c := range refs {
			c.Flush()
		}
		// Revisit a small window so the same sets refill repeatedly.
		for i := 0; i < 2000; i++ {
			addr := uint32(r.Intn(4_096))
			write := r.Bool(0.5)
			mask := bank.Access(addr, write)
			for ci, c := range refs {
				res := c.Access(addr, write)
				if gotMiss := mask&(1<<uint(ci)) != 0; gotMiss == res.Hit {
					t.Fatalf("pol=%v cfg=%v post-flush probe %d: bank miss=%v, cache hit=%v", pol, cfgs[ci], i, gotMiss, res.Hit)
				}
			}
		}
		for ci := range cfgs {
			if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
				t.Fatalf("pol=%v cfg=%v: bank stats %+v, cache stats %+v", pol, cfgs[ci], got, want)
			}
		}
	}
}

// TestPolicyIdentityDirectMapped pins the documented property that at
// associativity 1 there is no replacement choice: all three policies
// produce bit-identical miss masks and statistics on the same stream,
// even though LRU routes through the lane-packed kernel and the others
// through their general kernels.
func TestPolicyIdentityDirectMapped(t *testing.T) {
	mkBank := func(pol Policy) *Bank {
		var cfgs []Config
		for _, s := range []int{1, 2, 4, 8} {
			cfgs = append(cfgs, Config{SizeKW: s, BlockWords: 4, Assoc: 1, WriteBack: true, Policy: pol})
		}
		return mustBank(t, cfgs)
	}
	banks := make([]*Bank, len(allPolicies))
	for i, pol := range allPolicies {
		banks[i] = mkBank(pol)
	}
	r := stats.NewRNG(17)
	for i := 0; i < 20000; i++ {
		addr := uint32(r.Intn(60_000))
		write := r.Bool(0.3)
		m0 := banks[0].Access(addr, write)
		for bi := 1; bi < len(banks); bi++ {
			if m := banks[bi].Access(addr, write); m != m0 {
				t.Fatalf("probe %d: %v mask %#x, lru mask %#x", i, allPolicies[bi], m, m0)
			}
		}
	}
	for ci := 0; ci < banks[0].Len(); ci++ {
		want := banks[0].Stats(ci)
		for bi := 1; bi < len(banks); bi++ {
			if got := banks[bi].Stats(ci); got != want {
				t.Fatalf("cfg %d: %v stats %+v, lru stats %+v", ci, allPolicies[bi], got, want)
			}
		}
	}
}

// TestPackedGatePolicies pins the lane-packing gate: only direct-mapped
// LRU configurations pack; FIFO and Tree-PLRU configurations go to the
// general kernels, even alone in a bank, so every policy-labeled result
// is answered by that policy's own code path (see packable).
func TestPackedGatePolicies(t *testing.T) {
	direct := func(pol Policy) []Config {
		var cfgs []Config
		for _, s := range []int{1, 2, 4} {
			cfgs = append(cfgs, Config{SizeKW: s, BlockWords: 4, Assoc: 1, WriteBack: true, Policy: pol})
		}
		return cfgs
	}
	lru := mustBank(t, direct(PolicyLRU))
	if !lru.AllPacked() || lru.PackedGroups() != 1 {
		t.Fatalf("direct LRU ladder not packed: allPacked=%v groups=%d", lru.AllPacked(), lru.PackedGroups())
	}
	for _, pol := range []Policy{PolicyFIFO, PolicyTreePLRU} {
		b := mustBank(t, direct(pol))
		if b.AllPacked() || b.PackedGroups() != 0 {
			t.Fatalf("%v ladder packed: allPacked=%v groups=%d", pol, b.AllPacked(), b.PackedGroups())
		}
		if single := mustBank(t, direct(pol)[:1]); single.AllPacked() {
			t.Fatalf("%v single-config bank packed", pol)
		}
	}
	if lruSingle := mustBank(t, direct(PolicyLRU)[:1]); !lruSingle.AllPacked() || lruSingle.PackedGroups() != 1 {
		t.Fatal("LRU single-config bank not packed")
	}
}

// TestPackedGateMixedLadders pins that heterogeneous ladders are split
// into coherent packed groups rather than silently mis-packed: mixed
// write policies land in separate groups, and mixed associativity sends
// only the direct-mapped members to the packed path.
func TestPackedGateMixedLadders(t *testing.T) {
	// Mixed write policy, same geometry: two packed groups, nothing general.
	b := mustBank(t, []Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 2, BlockWords: 4, Assoc: 1, WriteBack: false},
		{SizeKW: 4, BlockWords: 4, Assoc: 1, WriteBack: true},
	})
	if !b.AllPacked() || b.PackedGroups() != 2 {
		t.Fatalf("mixed write policies: allPacked=%v groups=%d, want 2 groups", b.AllPacked(), b.PackedGroups())
	}
	// Mixed block size: also separate groups (different entry geometry).
	b = mustBank(t, []Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 1, BlockWords: 8, Assoc: 1, WriteBack: true},
	})
	if !b.AllPacked() || b.PackedGroups() != 2 {
		t.Fatalf("mixed block sizes: allPacked=%v groups=%d, want 2 groups", b.AllPacked(), b.PackedGroups())
	}
	// Mixed associativity: the 2-way member must fall to the general
	// kernel, not join a packed group.
	b = mustBank(t, []Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 1, BlockWords: 4, Assoc: 2, WriteBack: true},
	})
	if b.AllPacked() || b.PackedGroups() != 1 {
		t.Fatalf("mixed associativity: allPacked=%v groups=%d, want 1 group + general", b.AllPacked(), b.PackedGroups())
	}
	// And the split ladders must still be correct, not just partitioned:
	// drive the mixed-everything bank differentially.
	cfgs := []Config{
		{SizeKW: 1, BlockWords: 4, Assoc: 1, WriteBack: true},
		{SizeKW: 2, BlockWords: 4, Assoc: 1, WriteBack: false},
		{SizeKW: 1, BlockWords: 8, Assoc: 1, WriteBack: true},
		{SizeKW: 2, BlockWords: 4, Assoc: 2, WriteBack: true},
		{SizeKW: 2, BlockWords: 4, Assoc: 1, WriteBack: true, Policy: PolicyFIFO},
		{SizeKW: 4, BlockWords: 8, Assoc: 4, WriteBack: false, Policy: PolicyTreePLRU},
	}
	bank := mustBank(t, cfgs)
	refs := refCaches(t, cfgs)
	r := stats.NewRNG(555)
	for i := 0; i < 20000; i++ {
		addr := uint32(r.Intn(80_000))
		write := r.Bool(0.3)
		mask := bank.Access(addr, write)
		for ci, c := range refs {
			res := c.Access(addr, write)
			if gotMiss := mask&(1<<uint(ci)) != 0; gotMiss == res.Hit {
				t.Fatalf("cfg=%v probe %d: bank miss=%v, cache hit=%v", cfgs[ci], i, gotMiss, res.Hit)
			}
		}
	}
	for ci := range cfgs {
		if got, want := bank.Stats(ci), refs[ci].Stats(); got != want {
			t.Fatalf("cfg=%v: bank stats %+v, cache stats %+v", cfgs[ci], got, want)
		}
	}
}
