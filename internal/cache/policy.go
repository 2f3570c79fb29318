package cache

import "fmt"

// Policy selects the replacement policy of a set-associative cache. The
// zero value is the paper's LRU, so existing configurations (and their
// labels, metric names, and content-addressed keys) are unchanged.
//
// Policy selection is resolved at construction — Bank routes each
// configuration to a policy-specific probe kernel and Cache picks its
// victim rule once — so the per-probe cost of the LRU paths (general,
// direct, lane-packed) is untouched by the existence of the other
// policies. At associativity 1 there is no replacement choice, so every
// policy produces bit-identical results there (a tested property); the
// policies only diverge on set-associative configurations.
type Policy uint8

const (
	// PolicyLRU evicts the least-recently-used way (the paper's policy).
	PolicyLRU Policy = iota
	// PolicyFIFO evicts the oldest-filled way; hits do not refresh age
	// (DEW's simulated policy).
	PolicyFIFO
	// PolicyTreePLRU evicts along a per-set binary bit tree (the
	// pseudo-LRU used by the sail-riscv pipeline model): each access
	// points its root path away from the touched way, and the victim
	// walk follows the bits.
	PolicyTreePLRU
)

// String renders the canonical lowercase name ("lru", "fifo", "plru") —
// the spelling the /v1/* request schema normalizes to.
func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyFIFO:
		return "fifo"
	case PolicyTreePLRU:
		return "plru"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// Valid reports whether p names a known policy.
func (p Policy) Valid() bool { return p <= PolicyTreePLRU }

// ParsePolicy parses a policy name. The empty string means the default
// (LRU), and "tree-plru"/"treeplru" are accepted aliases for "plru".
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "lru":
		return PolicyLRU, nil
	case "fifo":
		return PolicyFIFO, nil
	case "plru", "tree-plru", "treeplru":
		return PolicyTreePLRU, nil
	}
	return 0, fmt.Errorf("cache: unknown replacement policy %q (want lru, fifo, or plru)", s)
}

// The Tree-PLRU bit tree. Nodes are heap-indexed 1..assoc-1 within one
// uint64 word per set; node n's children are 2n and 2n+1, and a set bit
// means "the victim walk descends right". bits is log2(assoc), so an
// associativity-1 tree is empty and both operations are no-ops.

// maxPLRUAssoc is the widest Tree-PLRU set: its nodes 1..63 fill the
// word, and a wider tree's nodes 64 and up would shift out of it.
const maxPLRUAssoc = 64

// plruTouch points every node on way w's root path away from w: the way
// just used becomes the last the victim walk can reach.
func plruTouch(tree uint64, w, bits uint32) uint64 {
	node := uint32(1)
	for lvl := int(bits) - 1; lvl >= 0; lvl-- {
		right := (w >> uint(lvl)) & 1
		// Branch-free: the touched way's side is unpredictable.
		tree = tree&^(1<<node) | uint64(right^1)<<node
		node = node<<1 | right
	}
	return tree
}

// plruVictim follows the tree from the root to the way the bits select.
func plruVictim(tree uint64, bits uint32) uint32 {
	node := uint32(1)
	for i := uint32(0); i < bits; i++ {
		node = node<<1 | uint32((tree>>node)&1)
	}
	return node - 1<<bits
}
