package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"pipecache/internal/fault"
)

// enablePlan parses and installs a fault plan for the duration of the test.
func enablePlan(t *testing.T, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.ParsePlan(spec)
	if err != nil {
		t.Fatalf("ParsePlan(%q): %v", spec, err)
	}
	fault.Enable(p)
	t.Cleanup(fault.Disable)
	return p
}

// TestPassMemoNotPoisonedByTransientError is the memo-poisoning regression:
// a pass that fails with a transient (non-context) error must not be
// memoized. Pre-fix, passContext removed the entry only for context errors,
// so the injected failure below was cached and every later request for the
// same pass replayed it forever.
func TestPassMemoNotPoisonedByTransientError(t *testing.T) {
	lab, reg := diffLab(t, 0, 1)
	enablePlan(t, "seed=1,rate=1024/1024,kinds=error,maxfires=1,points=lab.pass.run")

	if _, err := lab.StaticPass(context.Background(), 2, lab.P.Policy); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("first pass: err = %v, want an injected error", err)
	}
	res, err := lab.StaticPass(context.Background(), 2, lab.P.Policy)
	if err != nil {
		t.Fatalf("memo poisoned: retry after transient failure returned %v", err)
	}
	if res == nil {
		t.Fatal("nil result from successful retry")
	}
	c := reg.Snapshot().Counters
	if c["lab.passes_run"] != 1 {
		t.Fatalf("lab.passes_run = %d, want 1 (failed attempt must not count)", c["lab.passes_run"])
	}

	// And the successful result is now memoized: a third call is a hit.
	if _, err := lab.StaticPass(context.Background(), 2, lab.P.Policy); err != nil {
		t.Fatalf("memoized pass: %v", err)
	}
	if n := reg.Snapshot().Counters["lab.passes_run"]; n != 1 {
		t.Fatalf("lab.passes_run after memo hit = %d, want 1", n)
	}
}

// TestCaptureAbortedOnInjectedPanic: a pass that panics while holding the
// capture token must abort the capture on its way out. Pre-fix the abort ran
// only on the error return path, so the panic left the key marked in-flight
// and every later pass for the same workloads blocked on a channel that
// never closes.
func TestCaptureAbortedOnInjectedPanic(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	enablePlan(t, "seed=1,rate=1024/1024,kinds=panic,maxfires=1,points=lab.trace.capture")

	_, err := lab.StaticPass(context.Background(), 0, lab.P.Policy)
	if !errors.Is(err, ErrPassPanic) {
		t.Fatalf("err = %v, want ErrPassPanic", err)
	}
	if ierr := lab.TraceStore().CheckIntegrity(); ierr != nil {
		t.Fatalf("store integrity after contained panic: %v", ierr)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := lab.StaticPass(ctx, 0, lab.P.Policy)
	if err != nil {
		t.Fatalf("capture token leaked: retry failed: %v", err)
	}
	if res == nil {
		t.Fatal("nil result from successful retry")
	}
	if n := lab.TraceStore().Entries(); n != 1 {
		t.Fatalf("store entries = %d, want 1 (retry should have captured)", n)
	}
}

// TestCaptureStageFaultLeavesStoreClean is TestCaptureAbortedOnInjectedPanic
// on the pooled capture stage: a panic or a cancellation fired in a
// capture worker (the lab.sweep.item point of the stage's first workload)
// fails the pass, aborts the capture, leaves the store intact and every
// worker goroutine gone, and the retry captures exactly once.
func TestCaptureStageFaultLeavesStoreClean(t *testing.T) {
	for _, kind := range []string{"panic", "cancel"} {
		t.Run(kind, func(t *testing.T) {
			lab, reg := diffLab(t, 0, 3)
			start := runtime.NumGoroutine()
			enablePlan(t, "seed=1,rate=1024/1024,kinds="+kind+",maxfires=1,points=lab.sweep.item")

			_, err := lab.StaticPass(context.Background(), 0, lab.P.Policy)
			want := ErrPassPanic
			if kind == "cancel" {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			if ierr := lab.TraceStore().CheckIntegrity(); ierr != nil {
				t.Fatalf("store integrity after the failed capture: %v", ierr)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > start {
				t.Fatalf("%d goroutines after the failed capture, %d before", n, start)
			}

			if _, err := lab.StaticPass(context.Background(), 0, lab.P.Policy); err != nil {
				t.Fatalf("retry after the failed capture: %v", err)
			}
			c := reg.Snapshot().Counters
			if c["trace.store.misses"] != 2 || c["lab.captures"] != 1 {
				t.Errorf("trace.store.misses %d, lab.captures %d, want 2, 1", c["trace.store.misses"], c["lab.captures"])
			}
			if n := lab.TraceStore().Entries(); n != 1 {
				t.Errorf("store entries = %d, want 1", n)
			}
		})
	}
}

// TestCaptureAbortedOnInjectedError: the error path of the capture branch
// must likewise resolve the token and leave the store clean for the retry.
func TestCaptureAbortedOnInjectedError(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	enablePlan(t, "seed=1,rate=1024/1024,kinds=error,maxfires=1,points=lab.trace.capture")

	if _, err := lab.StaticPass(context.Background(), 0, lab.P.Policy); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want an injected error", err)
	}
	if ierr := lab.TraceStore().CheckIntegrity(); ierr != nil {
		t.Fatalf("store integrity after failed capture: %v", ierr)
	}
	if _, err := lab.StaticPass(context.Background(), 0, lab.P.Policy); err != nil {
		t.Fatalf("retry after failed capture: %v", err)
	}
	if n := lab.TraceStore().Entries(); n != 1 {
		t.Fatalf("store entries = %d, want 1", n)
	}
}

// TestSweepItemPanicContained: a panic in sweep-item code must surface as an
// ErrPassPanic-wrapped error from forEach on both the serial and the pooled
// path. Pre-fix the pooled path panicked in a bare worker goroutine, which
// kills the whole process.
func TestSweepItemPanicContained(t *testing.T) {
	for _, workers := range []int{1, 3} {
		lab, _ := diffLab(t, 0, workers)
		err := lab.forEach(context.Background(), 8, func(ctx context.Context, i int) error {
			if i == 3 {
				panic("sweep item bug")
			}
			return nil
		})
		if !errors.Is(err, ErrPassPanic) {
			t.Fatalf("workers=%d: err = %v, want ErrPassPanic", workers, err)
		}
	}
}

// TestInjectedCancelNotMemoized: an injected cancellation (which wraps
// context.Canceled) follows the leader-cancelled path — the entry is removed
// and a later request becomes the next leader.
func TestInjectedCancelNotMemoized(t *testing.T) {
	lab, _ := diffLab(t, 0, 1)
	enablePlan(t, "seed=1,rate=1024/1024,kinds=cancel,maxfires=1,points=lab.pass.run")

	_, err := lab.StaticPass(context.Background(), 1, lab.P.Policy)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("err = %v, want an injected cancellation", err)
	}
	if _, err := lab.StaticPass(context.Background(), 1, lab.P.Policy); err != nil {
		t.Fatalf("retry after injected cancellation: %v", err)
	}
}

// TestDataJobFaultLeavesMemoClean: a panic or a cancellation fired in the
// data job that Prewarm's five passes share (the lab.data.run point) fails
// Prewarm with ErrPassPanic or the cancellation, and memoizes nothing
// failed: every data-memo entry left behind is a completed success, the
// trace store is intact and every goroutine is gone. A follower of a
// panicked data job returns its ErrPassPanic; a follower of a cancelled one
// takes another turn, as a pass's followers do. The retry completes
// Prewarm with exactly one data job run in all.
func TestDataJobFaultLeavesMemoClean(t *testing.T) {
	for _, kind := range []string{"panic", "cancel"} {
		t.Run(kind, func(t *testing.T) {
			lab, reg := diffLab(t, 0, 3)
			start := runtime.NumGoroutine()
			enablePlan(t, "seed=1,rate=1024/1024,kinds="+kind+",maxfires=1,points=lab.data.run")

			err := lab.Prewarm()
			want := ErrPassPanic
			if kind == "cancel" {
				want = context.Canceled
			}
			if !errors.Is(err, want) {
				t.Fatalf("err = %v, want %v", err, want)
			}
			lab.mu.Lock()
			for k, e := range lab.data {
				select {
				case <-e.done:
					if e.err != nil {
						t.Errorf("data memo keeps a failed entry for %v: %v", k, e.err)
					}
				default:
					t.Errorf("data memo entry %v still in flight after Prewarm returned", k)
				}
			}
			lab.mu.Unlock()
			if ierr := lab.TraceStore().CheckIntegrity(); ierr != nil {
				t.Fatalf("store integrity after the failed data job: %v", ierr)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > start {
				t.Fatalf("%d goroutines after the failed data job, %d before", n, start)
			}

			if err := lab.Prewarm(); err != nil {
				t.Fatalf("retry after the failed data job: %v", err)
			}
			c := reg.Snapshot().Counters
			if c["lab.data_passes"] != 1 || c["lab.passes_run"] != 5 {
				t.Errorf("lab.data_passes %d, lab.passes_run %d, want 1, 5", c["lab.data_passes"], c["lab.passes_run"])
			}
		})
	}
}
