package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"pipecache/internal/cpisim"
)

// poolLab clones the shared test lab's suite into a fresh Lab with the
// given sweep worker count (fresh pass memo, no shared state).
func poolLab(t testing.TB, workers int) *Lab {
	t.Helper()
	l := getLab(t)
	p := l.P
	p.SweepWorkers = workers
	lab, err := NewLab(l.Suite, p)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

// TestForEachRunsConcurrently proves the pool actually overlaps items:
// with four workers, four items rendezvous on a barrier that can only be
// crossed if all of them are in flight at once. The serial path would
// deadlock here, so the barrier is bounded by a timeout that fails the
// test instead of hanging it. (This holds on a single-CPU machine too —
// blocked goroutines yield — so it is the portable form of the
// wall-time-scales-with-workers property.)
func TestForEachRunsConcurrently(t *testing.T) {
	lab := poolLab(t, 4)
	const n = 4
	var inFlight atomic.Int32
	release := make(chan struct{})
	err := lab.forEach(context.Background(), n, func(ctx context.Context, i int) error {
		if inFlight.Add(1) == n {
			close(release)
		}
		select {
		case <-release:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("item %d: pool never reached %d concurrent items", i, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForEachSerialWhenOneWorker pins the workers<=1 degenerate case to
// strictly ordered execution.
func TestForEachSerialWhenOneWorker(t *testing.T) {
	lab := poolLab(t, 1)
	var order []int
	err := lab.forEach(context.Background(), 5, func(ctx context.Context, i int) error {
		order = append(order, i) // no synchronization: serial path must not spawn goroutines
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order broken: %v", order)
		}
	}
}

// TestForEachErrorPropagates checks that a failing item aborts the sweep
// with its own error and that the pool's context cancellation reaches the
// remaining items.
func TestForEachErrorPropagates(t *testing.T) {
	lab := poolLab(t, 4)
	boom := errors.New("boom")
	var cancelled atomic.Int32
	err := lab.forEach(context.Background(), 64, func(ctx context.Context, i int) error {
		if i == 2 {
			return boom
		}
		select {
		case <-ctx.Done():
			cancelled.Add(1)
		case <-time.After(50 * time.Millisecond):
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	// The error cancels the pool context, so in-flight items observe it.
	if cancelled.Load() == 0 {
		t.Error("no item observed the cancellation")
	}
}

// TestForEachParentCancellation checks the sweep honors an already-dead
// caller context on both the serial and pooled paths.
func TestForEachParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		lab := poolLab(t, workers)
		var ran atomic.Int32
		err := lab.forEach(ctx, 8, func(ctx context.Context, i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if ran.Load() != 0 {
			t.Errorf("workers=%d: %d items ran under a cancelled context", workers, ran.Load())
		}
	}
}

// TestForEachWallTimeScalesWithWorkers demonstrates the acceptance
// property directly: a sweep of sleeping items (a stand-in for passes
// blocked on independent work) completes in roughly one item's latency on
// the pool versus the sum of latencies serially. Sleeps overlap even on
// one CPU, so this is not gated on NumCPU; the margin is generous to
// tolerate loaded CI machines.
func TestForEachWallTimeScalesWithWorkers(t *testing.T) {
	const (
		n     = 6
		delay = 100 * time.Millisecond
	)
	elapsed := func(workers int) time.Duration {
		lab := poolLab(t, workers)
		start := time.Now()
		err := lab.forEach(context.Background(), n, func(ctx context.Context, i int) error {
			time.Sleep(delay)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	serial := elapsed(1)
	parallel := elapsed(n)
	if serial < n*delay {
		t.Fatalf("serial sweep took %v, below the %v floor", serial, n*delay)
	}
	if parallel >= serial*3/4 {
		t.Errorf("pooled sweep did not overlap: serial %v, %d workers %v", serial, n, parallel)
	}
}

// TestBestDesignWorkerCountInvariance runs the symmetric design-space
// search serially and on a wide pool: the optimum, the evaluated count,
// and every published counter must be bit-identical, because the pooled
// sweep writes results by index and reduces in enumeration order.
func TestBestDesignWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two uncached prewarm sweeps; skipped with -short")
	}
	run := func(workers int) *Optimum {
		lab := poolLab(t, workers)
		opt, err := lab.Best(context.Background(), lab.Query(), cpisim.LoadStatic, true)
		if err != nil {
			t.Fatal(err)
		}
		return opt
	}
	serial := run(1)
	pooled := run(8)
	if *serial != *pooled {
		t.Fatalf("optimum depends on worker count:\n workers=1: %+v\n workers=8: %+v", *serial, *pooled)
	}
}

// TestAblationWorkerCountInvariance does the same for an uncached
// ablation sweep (each quantum is an independent RunPass).
func TestAblationWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four uncached passes twice; skipped with -short")
	}
	quanta := []int64{5_000, 20_000, 100_000}
	run := func(workers int) *QuantumStudyResult {
		lab := poolLab(t, workers)
		res, err := lab.QuantumStudy(4, 10, quanta)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	pooled := run(4)
	if len(serial.Rows) != len(pooled.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(serial.Rows), len(pooled.Rows))
	}
	for i := range serial.Rows {
		if serial.Rows[i] != pooled.Rows[i] {
			t.Fatalf("row %d depends on worker count:\n workers=1: %+v\n workers=4: %+v",
				i, serial.Rows[i], pooled.Rows[i])
		}
	}
}

// BenchmarkQuantumStudySweepWorkers measures the uncached ablation sweep
// serially and on the pool; on a multi-core machine the pooled variant's
// wall time drops roughly with the worker count (the passes are
// independent simulations), while on one CPU the two are equivalent.
func BenchmarkQuantumStudySweepWorkers(b *testing.B) {
	quanta := []int64{5_000, 10_000, 20_000, 50_000}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			lab := poolLab(b, workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := lab.QuantumStudy(4, 10, quanta); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
