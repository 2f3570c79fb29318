package trace

import (
	"context"
	"sync"
	"testing"

	"pipecache/internal/interp"
	"pipecache/internal/obs"
)

// makeTrace builds a committed-ready trace of roughly nChunks chunks.
func makeTrace(t *testing.T, key string, nChunks int) *EventTrace {
	t.Helper()
	rec := NewRecorder(key, 1)
	sink := rec.Bench("b", 1, &stream{})
	kind := make([]uint8, 1024)
	a, b := make([]uint32, len(kind)), make([]uint8, len(kind))
	for i := range kind {
		kind[i] = uint8(interp.EvMemLoad)
		a[i] = uint32(i)
	}
	for n := 0; n < nChunks*chunkEvents; n += len(kind) {
		sink.Events(kind, a, b)
	}
	return rec.Finish()
}

func TestStoreHitMissCommit(t *testing.T) {
	s := NewStore(1 << 30)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	ctx := context.Background()

	tr, tok, err := s.Acquire(ctx, "k")
	if err != nil || tr != nil || tok == nil {
		t.Fatalf("first acquire: tr=%v tok=%v err=%v", tr, tok, err)
	}
	captured := makeTrace(t, "k", 1)
	tok.Commit(captured)

	got, tok2, err := s.Acquire(ctx, "k")
	if err != nil || tok2 != nil || got == nil {
		t.Fatalf("second acquire: tr=%v tok=%v err=%v", got, tok2, err)
	}
	if got.Key() != "k" {
		t.Fatalf("key %q", got.Key())
	}

	c := reg.Snapshot().Counters
	if c["trace.store.misses"] != 1 || c["trace.store.hits"] != 1 {
		t.Fatalf("counters: %v", c)
	}
	if s.Entries() != 1 || s.Bytes() != got.Bytes() {
		t.Fatalf("residency: %d entries, %d bytes", s.Entries(), s.Bytes())
	}
}

func TestStoreLRUEviction(t *testing.T) {
	probe := makeTrace(t, "probe", 1)
	one := probe.Bytes()
	s := NewStore(2 * one) // room for two single-chunk traces
	reg := obs.NewRegistry()
	s.SetObs(reg)
	ctx := context.Background()

	add := func(key string) {
		_, tok, err := s.Acquire(ctx, key)
		if err != nil || tok == nil {
			t.Fatalf("acquire %s: %v", key, err)
		}
		tok.Commit(makeTrace(t, key, 1))
	}
	add("a")
	add("b")
	// Touch "a" so "b" is the LRU victim.
	if _, _, err := s.Acquire(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	add("c")

	if s.Bytes() > s.Budget() {
		t.Fatalf("%d bytes over budget %d", s.Bytes(), s.Budget())
	}
	if _, tok, _ := s.Acquire(ctx, "b"); tok == nil {
		t.Error("LRU key b still resident")
	} else {
		tok.Abort()
	}
	if tr, _, _ := s.Acquire(ctx, "a"); tr == nil {
		t.Error("recently used key a evicted")
	}
	if c := reg.Snapshot().Counters; c["trace.store.evictions"] != 1 {
		t.Errorf("evictions = %d", c["trace.store.evictions"])
	}
}

func TestStoreOversizeTombstone(t *testing.T) {
	s := NewStore(1) // nothing fits
	reg := obs.NewRegistry()
	s.SetObs(reg)
	ctx := context.Background()

	_, tok, err := s.Acquire(ctx, "k")
	if err != nil || tok == nil {
		t.Fatal("expected capture token")
	}
	tr := makeTrace(t, "k", 1)
	tok.Commit(tr)

	// Tombstoned: every later acquire is a live fallback, never a token.
	for i := 0; i < 3; i++ {
		gtr, gtok, err := s.Acquire(ctx, "k")
		if err != nil || gtr != nil || gtok != nil {
			t.Fatalf("tombstoned acquire %d: tr=%v tok=%v err=%v", i, gtr, gtok, err)
		}
	}
	c := reg.Snapshot().Counters
	if c["trace.store.oversize_drops"] != 1 || c["trace.store.live_fallbacks"] != 3 {
		t.Fatalf("counters: %v", c)
	}
	if s.Entries() != 0 || s.Bytes() != 0 {
		t.Fatalf("oversize trace resident")
	}
}

// TestStoreSingleFlight: K concurrent same-key acquires perform exactly one
// capture; the waiters all see the committed trace, and the counters come
// out 1 miss + K-1 hits regardless of scheduling.
func TestStoreSingleFlight(t *testing.T) {
	s := NewStore(1 << 30)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	const K = 8

	var wg sync.WaitGroup
	var mu sync.Mutex
	var tokens, traces int
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, tok, err := s.Acquire(context.Background(), "k")
			if err != nil {
				t.Error(err)
				return
			}
			if tok != nil {
				tok.Commit(makeTrace(t, "k", 1))
				mu.Lock()
				tokens++
				mu.Unlock()
				return
			}
			if tr == nil {
				t.Error("waiter acquired no trace")
				return
			}
			mu.Lock()
			traces++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if tokens != 1 || traces != K-1 {
		t.Fatalf("%d captures, %d replays; want 1 and %d", tokens, traces, K-1)
	}
	c := reg.Snapshot().Counters
	if c["trace.store.misses"] != 1 || c["trace.store.hits"] != K-1 {
		t.Fatalf("counters: %v", c)
	}
}

// TestStoreAbortReelects: an aborted capture wakes a waiter, which becomes
// the next capturer instead of failing.
func TestStoreAbortReelects(t *testing.T) {
	s := NewStore(1 << 30)
	ctx := context.Background()

	_, tok, err := s.Acquire(ctx, "k")
	if err != nil || tok == nil {
		t.Fatal("expected token")
	}
	got := make(chan *CaptureToken)
	go func() {
		_, tok2, err := s.Acquire(ctx, "k")
		if err != nil {
			t.Error(err)
		}
		got <- tok2
	}()
	tok.Abort()
	tok2 := <-got
	if tok2 == nil {
		t.Fatal("waiter not re-elected as capturer")
	}
	tok2.Abort()
}

func TestStoreAcquireCancellation(t *testing.T) {
	s := NewStore(1 << 30)
	_, tok, err := s.Acquire(context.Background(), "k")
	if err != nil || tok == nil {
		t.Fatal("expected token")
	}
	defer tok.Abort()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error)
	go func() {
		_, _, err := s.Acquire(ctx, "k")
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled waiter returned nil error")
	}
}
