package cluster

import (
	"sort"
)

// ringSeed pins the ring's hash function. Routing must be a pure function
// of (shard URL, request key) — never of process identity, map iteration
// order, or a boot-time random seed — so that a restarted coordinator (or a
// second coordinator in front of the same fleet) routes every key to the
// same shard and the per-shard result caches stay hot across deploys. The
// ring stability test pins a known key→shard assignment against this seed.
const ringSeed uint64 = 0x70697065636163 // "pipecac"

// ringReplicas is the number of virtual nodes per shard. More vnodes
// smooth the key distribution and shrink the slice of keys that moves when
// the shard set changes (the classic consistent-hashing bound: an added or
// removed shard moves ~1/N of the keys, not all of them). It is part of
// the placement: changing it moves keys, and colds every backend cache.
const ringReplicas = 64

// Ring is a seed-pinned consistent-hash ring over a fixed shard set.
// Shards are identified by position in the constructor's slice; the hash
// is taken over the shard's name (its URL), so reordering the configured
// list does not move keys, and adding or removing one shard moves only the
// arcs its virtual nodes owned. Immutable after construction and safe for
// concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	n      int
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring for the named shards, ringReplicas virtual
// nodes each.
func NewRing(names []string) *Ring {
	r := &Ring{n: len(names), points: make([]ringPoint, 0, len(names)*ringReplicas)}
	for i, name := range names {
		base := splitmix64(fnv64a(name) ^ ringSeed)
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{
				hash:  splitmix64(base + uint64(v)*0x9e3779b97f4a7c15),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break on shard index so equal hashes (vanishingly rare but
		// possible) still order deterministically.
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// Lookup returns the shard index owning key: the shard of the first virtual
// node at or after the key's hash, wrapping around the ring.
func (r *Ring) Lookup(key string) int {
	if r.n == 0 {
		return -1
	}
	h := splitmix64(fnv64a(key) ^ ringSeed)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// Sequence returns every shard index exactly once, in ring order starting
// at key's owner: the deterministic failover order for the key. The second
// element is the shard a failover of this key lands on, which is also
// where the key's cache entry will already be warm from any earlier
// failover of the same key.
func (r *Ring) Sequence(key string) []int {
	if r.n == 0 {
		return nil
	}
	h := splitmix64(fnv64a(key) ^ ringSeed)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seq := make([]int, 0, r.n)
	seen := make([]bool, r.n)
	for off := 0; off < len(r.points) && len(seq) < r.n; off++ {
		p := r.points[(start+off)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			seq = append(seq, p.shard)
		}
	}
	return seq
}

// splitmix64 is the standard 64-bit finalizing mixer (the same one the
// fault plans use); one invocation fully decorrelates consecutive inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64a hashes a string (FNV-1a).
func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
