package trace

import (
	"context"
	"testing"

	"pipecache/internal/obs"
)

// TestSetObsRebindCarriesTotals pins the rebinding contract of
// EventStore.SetObs: a store outlives any one registry (the stability study
// shares one bounded store across per-seed labs), so switching registries
// must carry the accumulated outcome totals forward instead of silently
// restarting the counters from zero.
func TestSetObsRebindCarriesTotals(t *testing.T) {
	ctx := context.Background()
	s := NewStore(100 << 20)
	r1 := obs.NewRegistry()
	s.SetObs(r1)

	// One miss (capture + commit) and one hit.
	tr, tok, err := s.Acquire(ctx, "k")
	if err != nil || tr != nil || tok == nil {
		t.Fatalf("first acquire: tr=%v tok=%v err=%v, want capture token", tr, tok, err)
	}
	captured := makeTrace(t, "k", 1)
	tok.Commit(captured)
	tr, tok, err = s.Acquire(ctx, "k")
	if err != nil || tr == nil || tok != nil {
		t.Fatalf("second acquire: tr=%v tok=%v err=%v, want resident trace", tr, tok, err)
	}

	if got := r1.Counter("trace.store.hits").Value(); got != 1 {
		t.Fatalf("hits on first registry = %d, want 1", got)
	}
	if got := r1.Counter("trace.store.misses").Value(); got != 1 {
		t.Fatalf("misses on first registry = %d, want 1", got)
	}

	// Rebinding to a fresh registry must top its counters up to the totals.
	r2 := obs.NewRegistry()
	s.SetObs(r2)
	for _, name := range []string{"trace.store.hits", "trace.store.misses"} {
		if got := r2.Counter(name).Value(); got != 1 {
			t.Fatalf("%s after rebind = %d, want 1 (history lost)", name, got)
		}
	}
	if got := r2.Gauge("trace.store.entries").Value(); got != 1 {
		t.Fatalf("entries gauge after rebind = %v, want 1", got)
	}
	if got, want := r2.Gauge("trace.store.bytes").Value(), float64(s.Bytes()); got != want {
		t.Fatalf("bytes gauge after rebind = %v, want %v", got, want)
	}

	// Rebinding to the same registry is a no-op: no double counting.
	s.SetObs(r2)
	if got := r2.Counter("trace.store.hits").Value(); got != 1 {
		t.Fatalf("hits after same-registry rebind = %d, want 1 (double counted)", got)
	}

	// New outcomes keep accumulating on the new registry.
	tr, _, err = s.Acquire(ctx, "k")
	if err != nil || tr == nil {
		t.Fatalf("acquire after rebind: tr=%v err=%v", tr, err)
	}
	if got := r2.Counter("trace.store.hits").Value(); got != 2 {
		t.Fatalf("hits after rebound activity = %d, want 2", got)
	}
	if err := s.CheckIntegrity(); err != nil {
		t.Fatalf("store integrity: %v", err)
	}
}
