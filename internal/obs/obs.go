// Package obs is the run-scoped observability layer of the simulator: it
// collects counters, gauges, and fixed-bucket histograms from the hot
// simulation paths with zero-allocation atomic increments, and exports a
// structured snapshot of one run (JSON and text).
//
// The instrumentation contract mirrors how the simulator parallelizes.
// Each simulation pass accumulates its own unsynchronized statistics (the
// cache and BTB models already keep plain structs — those are the
// per-goroutine shards) and folds them into the shared Registry with one
// atomic add per metric when the pass completes. Because atomic additions
// commute, every counter total is bit-identical regardless of GOMAXPROCS
// or pass completion order; the determinism test in internal/core relies
// on this.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing 64-bit counter. The zero value is
// ready to use, and a nil *Counter (what a nil Registry hands out) counts
// nothing and reads 0. All methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// LocalCounter is an unsynchronized shard of a Counter for one goroutine's
// hot path: increments are plain integer adds, and Flush folds the
// accumulated delta into the shared counter with a single atomic add. The
// zero value with C set is ready to use.
type LocalCounter struct {
	C *Counter
	n int64
}

// Inc increments the local shard by one.
func (l *LocalCounter) Inc() { l.n++ }

// Add increments the local shard by d.
func (l *LocalCounter) Add(d int64) { l.n += d }

// Pending returns the unflushed delta.
func (l *LocalCounter) Pending() int64 { return l.n }

// Flush merges the shard into the shared counter and resets it.
func (l *LocalCounter) Flush() {
	if l.C != nil && l.n != 0 {
		l.C.Add(l.n)
		l.n = 0
	}
}

// Gauge is a 64-bit float gauge (last value wins). The zero value is ready
// to use, and a nil *Gauge stores nothing and reads 0. All methods are
// safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 before any Set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Bucket i counts observations v
// with v <= Bounds[i] (and greater than Bounds[i-1]); one extra overflow
// bucket counts observations above the last bound. Observations also
// accumulate a total count and sum. A nil *Histogram records nothing and
// reads empty. All methods are safe for concurrent use and
// allocation-free.
type Histogram struct {
	bounds  []float64
	counts  []int64 // len(bounds)+1; updated with atomic adds
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, updated with a CAS loop
}

// NewHistogram returns a histogram over the given strictly increasing
// upper bounds. At least one bound is required.
func NewHistogram(bounds ...float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// LinearBounds returns n strictly increasing bounds start, start+step, ...
// — a convenience for integer-valued histograms.
func LinearBounds(start, step float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*step
	}
	return b
}

// ExponentialBounds returns n bounds start, start*factor, start*factor², …
// — a convenience for duration histograms.
func ExponentialBounds(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search the bucket; bounds are sorted.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	atomic.AddInt64(&h.counts[lo], 1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Bounds returns a copy of the bucket upper bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	b := make([]float64, len(h.bounds))
	copy(b, h.bounds)
	return b
}

// Counts returns a copy of the per-bucket counts; the final element is the
// overflow bucket.
func (h *Histogram) Counts() []int64 {
	if h == nil {
		return nil
	}
	c := make([]int64, len(h.counts))
	for i := range h.counts {
		c[i] = atomic.LoadInt64(&h.counts[i])
	}
	return c
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a run-scoped collection of named metrics. Get-or-create
// lookups are guarded by a mutex (call them at setup or pass boundaries,
// not per event); the returned metric handles are lock-free. A nil
// *Registry is valid: lookups return nil metrics, whose methods do nothing
// and read zero, so instrumented code needs no nil checks and a
// registry-less caller pays no allocation per lookup.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = new(Counter)
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bounds
// on first use. Later lookups of an existing histogram ignore bounds.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds...)
		r.hists[name] = h
	}
	return h
}

// Snapshot captures the current value of every registered metric. A nil
// registry snapshots empty.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistSnapshot{
			Bounds: h.Bounds(),
			Counts: h.Counts(),
			Count:  h.Count(),
			Sum:    h.Sum(),
		}
	}
	return s
}

// sortedKeys returns the map's keys in lexical order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
