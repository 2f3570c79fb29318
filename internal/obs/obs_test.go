package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

// TestCounterMergeAfterFanout is the sharding contract: N goroutines each
// accumulate locally with zero synchronization and flush once; the shared
// total must be the exact sum regardless of interleaving.
func TestCounterMergeAfterFanout(t *testing.T) {
	reg := NewRegistry()
	shared := reg.Counter("fanout")
	const workers = 16
	const perWorker = 100_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := LocalCounter{C: shared}
			for i := 0; i < perWorker; i++ {
				local.Inc()
			}
			local.Flush()
		}()
	}
	wg.Wait()
	if got := shared.Value(); got != workers*perWorker {
		t.Fatalf("merged counter = %d, want %d", got, workers*perWorker)
	}
}

func TestLocalCounterFlushResets(t *testing.T) {
	var c Counter
	l := LocalCounter{C: &c}
	l.Add(5)
	if l.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", l.Pending())
	}
	l.Flush()
	l.Flush() // second flush must not double-count
	if c.Value() != 5 || l.Pending() != 0 {
		t.Fatalf("after flush: counter=%d pending=%d", c.Value(), l.Pending())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	if g.Value() != 0 {
		t.Fatalf("zero gauge = %g", g.Value())
	}
	g.Set(3.25)
	if g.Value() != 3.25 {
		t.Fatalf("gauge = %g, want 3.25", g.Value())
	}
}

// TestHistogramBuckets pins the bucket boundary semantics: bucket i counts
// v <= bounds[i], boundaries land in the lower bucket, and values above the
// last bound land in the overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 2, 4, 8)
	for _, v := range []float64{0, 0.5, 1} { // all <= 1
		h.Observe(v)
	}
	h.Observe(1.5) // bucket <=2
	h.Observe(2)   // boundary: still <=2
	h.Observe(3)   // bucket <=4
	h.Observe(8)   // boundary of the last bound
	h.Observe(9)   // overflow
	h.Observe(100) // overflow

	want := []int64{3, 2, 1, 1, 2}
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 9 {
		t.Fatalf("count = %d, want 9", h.Count())
	}
	if h.Sum() != 0+0.5+1+1.5+2+3+8+9+100 {
		t.Fatalf("sum = %g", h.Sum())
	}
}

func TestHistogramBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{{}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds...)
		}()
	}
}

func TestBoundsHelpers(t *testing.T) {
	lin := LinearBounds(0, 1, 4)
	if len(lin) != 4 || lin[0] != 0 || lin[3] != 3 {
		t.Fatalf("linear bounds = %v", lin)
	}
	exp := ExponentialBounds(0.5, 2, 3)
	if len(exp) != 3 || exp[0] != 0.5 || exp[2] != 2 {
		t.Fatalf("exponential bounds = %v", exp)
	}
}

// TestRegistryConcurrentUse exercises get-or-create and increments from
// many goroutines under -race.
func TestRegistryConcurrentUse(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				reg.Counter("shared").Inc()
				reg.Gauge("g").Set(float64(w))
				reg.Histogram("h", 1, 10, 100).Observe(float64(i % 128))
			}
		}(w)
	}
	wg.Wait()
	if got := reg.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
	if got := reg.Histogram("h", 1, 10, 100).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

// TestNilRegistry: a nil registry hands out nil metrics that instrumented
// code may use without nil checks: updates do nothing and reads are zero.
func TestNilRegistry(t *testing.T) {
	var reg *Registry
	c, g, h := reg.Counter("x"), reg.Gauge("y"), reg.Histogram("z", 1, 2)
	c.Add(1)
	c.Inc()
	g.Set(2)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Bounds() != nil || h.Counts() != nil {
		t.Fatalf("nil metrics read %d, %v, %d, %v, %v, %v; want zeros", c.Value(), g.Value(), h.Count(), h.Sum(), h.Bounds(), h.Counts())
	}
	stop := reg.Time("t")
	stop()
	if v := reg.UptimeGauge("u", time.Now()); v < 0 {
		t.Fatalf("uptime %v", v)
	}
	snap := reg.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
}

// TestSnapshotJSONRoundTrip: WriteJSON followed by ReadSnapshot must
// reproduce every metric exactly.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("cache.l1i.reads").Add(12345)
	reg.Counter("btb.hits").Add(678)
	reg.Gauge("lab.pass_memo_hit_ratio").Set(0.875)
	h := reg.Histogram("lab.pass_seconds", 0.1, 1, 10)
	h.Observe(0.05)
	h.Observe(2.5)
	h.Observe(50)

	snap := reg.Snapshot()
	var buf bytes.Buffer
	if err := snap.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Counters) != 2 || back.Counters["cache.l1i.reads"] != 12345 || back.Counters["btb.hits"] != 678 {
		t.Fatalf("counters did not round-trip: %+v", back.Counters)
	}
	if back.Gauges["lab.pass_memo_hit_ratio"] != 0.875 {
		t.Fatalf("gauge did not round-trip: %+v", back.Gauges)
	}
	hb, ok := back.Histograms["lab.pass_seconds"]
	if !ok {
		t.Fatalf("histogram missing: %+v", back.Histograms)
	}
	if hb.Count != 3 || hb.Sum != 52.55 {
		t.Fatalf("histogram summary did not round-trip: %+v", hb)
	}
	wantCounts := []int64{1, 0, 1, 1}
	for i, c := range wantCounts {
		if hb.Counts[i] != c {
			t.Fatalf("histogram counts did not round-trip: %v", hb.Counts)
		}
	}
	if hb.Mean() != 52.55/3 {
		t.Fatalf("mean = %g", hb.Mean())
	}
}

func TestReadSnapshotEmptyObject(t *testing.T) {
	s, err := ReadSnapshot(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	// Maps must be usable even when absent from the JSON.
	s.Counters["x"] = 1
	s.Gauges["y"] = 2
	s.Histograms["z"] = HistSnapshot{}
}

func TestSnapshotWriteText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b.two").Add(2)
	reg.Counter("a.one").Add(1)
	reg.Gauge("ratio").Set(0.5)
	reg.Histogram("h", 1, 2).Observe(5)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a.one") || !strings.Contains(out, "b.two") {
		t.Fatalf("text export missing counters:\n%s", out)
	}
	if strings.Index(out, "a.one") > strings.Index(out, "b.two") {
		t.Fatalf("counters not sorted:\n%s", out)
	}
	if !strings.Contains(out, ">2: 1") {
		t.Fatalf("overflow bucket not rendered:\n%s", out)
	}
	var empty bytes.Buffer
	if err := NewRegistry().Snapshot().WriteText(&empty); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "no metrics") {
		t.Fatalf("empty snapshot rendering: %q", empty.String())
	}
}

func TestProgress(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	p := NewProgress(&buf)
	p.now = func() time.Time { return now }
	p.minInterval = 0

	p.StartPhase("sweep", 4)
	now = now.Add(time.Second)
	p.Step(1)
	out := buf.String()
	if !strings.Contains(out, "sweep: 1/4 (25%)") {
		t.Fatalf("progress line missing step: %q", out)
	}
	if !strings.Contains(out, "eta 3s") {
		t.Fatalf("progress line missing ETA: %q", out)
	}
	p.Step(3)
	if !strings.Contains(buf.String(), "4/4 (100%) eta done") {
		t.Fatalf("final line: %q", buf.String())
	}
	p.Finish()
	if !strings.HasSuffix(buf.String(), "\n") {
		t.Fatalf("finish did not terminate the line: %q", buf.String())
	}

	// Nil receiver: all methods are no-ops.
	var nilP *Progress
	nilP.StartPhase("x", 1)
	nilP.Step(1)
	nilP.Finish()
}

func TestProgressThrottle(t *testing.T) {
	var buf bytes.Buffer
	now := time.Unix(0, 0)
	p := NewProgress(&buf)
	p.now = func() time.Time { return now }
	p.minInterval = time.Second

	p.StartPhase("phase", 1000)
	p.Step(1) // first step always renders (zero last-redraw time)
	before := buf.Len()
	for i := 0; i < 100; i++ {
		p.Step(1) // within the throttle window: no redraws
	}
	if buf.Len() != before {
		t.Fatalf("throttle failed: wrote %d extra bytes", buf.Len()-before)
	}
	now = now.Add(2 * time.Second)
	p.Step(1)
	if buf.Len() == before {
		t.Fatal("redraw missing after interval elapsed")
	}
}
