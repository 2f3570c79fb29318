package cluster

import (
	"fmt"
	"testing"
)

// corpus returns a fixed key corpus shaped like real routing keys (hex
// digests vary in every position; fmt keys are fine for distribution
// tests).
func corpus(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("request-key-%06d", i)
	}
	return keys
}

func shardNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("http://10.0.0.%d:8080", i+1)
	}
	return names
}

// TestRingStabilityOnResize pins the consistent-hashing contract: growing
// the fleet from N to N+1 shards moves roughly 1/(N+1) of the keys — never
// a wholesale reshuffle — and removing a shard moves only the keys it
// owned.
func TestRingStabilityOnResize(t *testing.T) {
	keys := corpus(10_000)
	names4 := shardNames(4)
	names5 := shardNames(5)
	r4 := NewRing(names4)
	r5 := NewRing(names5)

	moved := 0
	for _, k := range keys {
		if names4[r4.Lookup(k)] != names5[r5.Lookup(k)] {
			moved++
		}
	}
	frac := float64(moved) / float64(len(keys))
	// The ideal is 1/5 = 20%; 64 vnodes per shard keeps the variance small,
	// so anything past 30% means the ring is reshuffling instead of
	// splitting arcs.
	if frac > 0.30 {
		t.Fatalf("adding a 5th shard moved %.1f%% of keys, want <= 30%%", 100*frac)
	}
	if moved == 0 {
		t.Fatal("adding a shard moved zero keys; the new shard owns nothing")
	}

	// Every moved key must have moved TO the new shard: keys never migrate
	// between surviving shards.
	for _, k := range keys {
		from, to := names4[r4.Lookup(k)], names5[r5.Lookup(k)]
		if from != to && to != names5[4] {
			t.Fatalf("key %q moved %s -> %s instead of to the new shard", k, from, to)
		}
	}

	// Removal is the mirror image: dropping shard 5 restores the original
	// assignment exactly.
	for _, k := range keys {
		if names5[r5.Lookup(k)] == names5[4] {
			continue
		}
		if names4[r4.Lookup(k)] != names5[r5.Lookup(k)] {
			t.Fatalf("key %q not owned by the removed shard changed owner", k)
		}
	}
}

// TestRingOrderIndependence pins that the shard URL — not its position in
// the configured list — is the ring identity: a permuted fleet description
// routes every key to the same URL.
func TestRingOrderIndependence(t *testing.T) {
	names := shardNames(4)
	permuted := []string{names[2], names[0], names[3], names[1]}
	a := NewRing(names)
	b := NewRing(permuted)
	for _, k := range corpus(2_000) {
		if got, want := permuted[b.Lookup(k)], names[a.Lookup(k)]; got != want {
			t.Fatalf("key %q routes to %s under permuted config, %s under original", k, got, want)
		}
	}
}

// TestRingSeedPinned pins concrete key->shard assignments against the
// seed-pinned hash. If this test breaks, a restarted coordinator no longer
// routes like its predecessor and every shard's cache goes cold — change
// ringSeed or the hash chain only with a migration story.
func TestRingSeedPinned(t *testing.T) {
	r := NewRing(shardNames(4))
	want := map[string]int{
		"request-key-000000": 0,
		"request-key-000001": 1,
		"request-key-000002": 0,
		"request-key-000003": 1,
		"request-key-000004": 1,
		"request-key-000005": 1,
		"request-key-000006": 1,
		"request-key-000007": 2,
	}
	for k, w := range want {
		if got := r.Lookup(k); got != w {
			t.Errorf("Lookup(%q) = %d, want %d (seed-pinned routing changed)", k, got, w)
		}
	}
}

// TestRingDistribution sanity-checks balance: with 64 vnodes per shard no
// shard should own a wildly disproportionate share of a large corpus.
func TestRingDistribution(t *testing.T) {
	names := shardNames(4)
	r := NewRing(names)
	counts := make([]int, len(names))
	keys := corpus(10_000)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	for i, n := range counts {
		frac := float64(n) / float64(len(keys))
		if frac < 0.10 || frac > 0.45 {
			t.Errorf("shard %d owns %.1f%% of keys (counts %v)", i, 100*frac, counts)
		}
	}
}

// TestRingSequence pins the failover order contract: every shard exactly
// once, starting at the key's owner, identical across calls.
func TestRingSequence(t *testing.T) {
	names := shardNames(5)
	r := NewRing(names)
	for _, k := range corpus(100) {
		seq := r.Sequence(k)
		if len(seq) != len(names) {
			t.Fatalf("Sequence(%q) has %d entries, want %d", k, len(seq), len(names))
		}
		if seq[0] != r.Lookup(k) {
			t.Fatalf("Sequence(%q) starts at %d, Lookup says %d", k, seq[0], r.Lookup(k))
		}
		seen := map[int]bool{}
		for _, s := range seq {
			if seen[s] {
				t.Fatalf("Sequence(%q) repeats shard %d", k, s)
			}
			seen[s] = true
		}
		again := r.Sequence(k)
		for i := range seq {
			if seq[i] != again[i] {
				t.Fatalf("Sequence(%q) not deterministic", k)
			}
		}
	}
}

// TestRingEmpty covers the degenerate fleet.
func TestRingEmpty(t *testing.T) {
	r := NewRing(nil)
	if got := r.Lookup("anything"); got != -1 {
		t.Fatalf("empty ring Lookup = %d, want -1", got)
	}
	if seq := r.Sequence("anything"); seq != nil {
		t.Fatalf("empty ring Sequence = %v, want nil", seq)
	}
}
