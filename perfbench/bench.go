package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"pipecache/internal/core"
	"pipecache/internal/gen"
	"pipecache/internal/obs"
)

// setupRuns is how many times a run sets its workload up and warms it.
// setup_s is the median, so one slow repetition (a cold page cache, a noisy
// neighbour) does not move it; each repetition discards the previous one,
// and the measured window runs against the last.
const setupRuns = 3

// minBatchOps is the fewest iterations a batch workload measures, even
// when one iteration outlasts the window: an ablation-warm iteration takes
// most of the default window, and one sample would make a run's median
// hostage to a single hiccup.
const minBatchOps = 2

// env is one run's fixed inputs. The zero scale fields select the paper's
// default scale: the full Table 1 suite at core.DefaultParams().Insts.
type env struct {
	name   string
	seed   uint64
	window time.Duration
	specs  []gen.Spec
	insts  int64
	tr     *tracer // nil in an untraced run
}

// defaultScale reports whether the run uses the shipped suite and budget,
// the scale the checked-in digests were taken at.
func (e *env) defaultScale() bool { return e.specs == nil && e.insts == 0 }

// params is core.DefaultParams() with the seed applied: the benchmark sets
// no knob of its own.
func (e *env) params() core.Params {
	p := core.DefaultParams()
	if e.insts > 0 {
		p.Insts = e.insts
	}
	p.SeedOffset = e.seed
	return p
}

// buildSuite synthesizes the run's benchmark suite under a gen span.
func (e *env) buildSuite(parent int64) (*core.Suite, error) {
	specs := e.specs
	if specs == nil {
		specs = gen.Table1()
	}
	var s *core.Suite
	err := e.tr.span(parent, "gen.build_suite", func(int64) error {
		var err error
		s, err = core.BuildSuite(specs)
		return err
	})
	return s, err
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: "+format+"\n", append([]any{e.name}, args...)...)
}

// workload is one benchmark workload. A run calls setup and warmup
// setupRuns times, then measure once (twice when traced), check, and close.
type workload interface {
	// setup builds everything the workload needs before its first
	// operation, replacing what an earlier setup built.
	setup(e *env, span int64) error
	// warmup issues the unmeasured operations that end each set-up and
	// returns how many it issued; the last set-up's are checked like
	// measured ones.
	warmup(e *env) (int, error)
	// measure runs operations for the window.
	measure(e *env, window time.Duration) *phase
	// check verifies every output recorded so far and returns how many
	// operations it checked and how many failed.
	check(e *env) (checked, failed int, err error)
	// registries are the obs registries the workload's program objects
	// publish into.
	registries() []*obs.Registry
	// suite and lab are the workload's inputs for the per-layer timings:
	// its suite, and a lab whose standard passes are warm.
	suite() *core.Suite
	lab() *core.Lab
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "study-cold":
		return &studyCold{}, nil
	case "ablation-warm":
		return &ablationWarm{}, nil
	case "serve-mix":
		return &serveMix{}, nil
	case "coord-best":
		return &coordBest{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// phase is one measured window.
type phase struct {
	ops       []float64            // seconds per completed operation
	classes   map[string][]float64 // seconds per completed request, by class
	wall      float64              // seconds measured
	cpu       float64              // process CPU seconds measured, user plus system
	attempted int
	failed    int
}

// runBatch runs op back to back until the window is spent, never starting
// an operation the median so far says would end past it, and at least
// minBatchOps times. Each operation starts from a collected heap, as it
// would in a fresh process, so one iteration's garbage does not bill the
// next; the collection between operations is not timed. wall and cpu are
// the operations' own totals.
func runBatch(e *env, window time.Duration, op func() error) *phase {
	ph := &phase{}
	for {
		next := 0.0
		if len(ph.ops) > 0 {
			next = median(ph.ops)
		}
		if ph.attempted >= minBatchOps && ph.wall+next > window.Seconds() {
			break
		}
		runtime.GC()
		cpu := cpuSeconds()
		start := time.Now()
		err := op()
		d := time.Since(start).Seconds()
		ph.wall += d
		ph.cpu += cpuSeconds() - cpu
		ph.attempted++
		if err != nil {
			ph.failed++
			e.logf("operation failed: %v", err)
			continue
		}
		ph.ops = append(ph.ops, d)
	}
	return ph
}

// closedLoop runs clients concurrent callers until the window is spent;
// each sends its next request only after the previous one completed. do
// performs one request and returns its class and its latency. The window
// starts from a collected heap, so the set-up's garbage does not bill it.
func closedLoop(e *env, window time.Duration, clients int, do func(client int) (string, time.Duration, error)) *phase {
	type loopLog struct {
		ops               []float64
		classes           map[string][]float64
		attempted, failed int
	}
	logs := make([]loopLog, clients)
	runtime.GC()
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range logs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lg := &logs[c]
			lg.classes = map[string][]float64{}
			for time.Now().Before(deadline) {
				class, d, err := do(c)
				lg.attempted++
				if err != nil {
					lg.failed++
					if lg.failed <= 3 {
						e.logf("%s request failed: %v", class, err)
					}
					continue
				}
				lg.ops = append(lg.ops, d.Seconds())
				lg.classes[class] = append(lg.classes[class], d.Seconds())
			}
		}(c)
	}
	wg.Wait()
	ph := &phase{classes: map[string][]float64{}, wall: time.Since(start).Seconds(), cpu: cpuSeconds() - cpu0}
	for _, lg := range logs {
		ph.ops = append(ph.ops, lg.ops...)
		for k, v := range lg.classes {
			ph.classes[k] = append(ph.classes[k], v...)
		}
		ph.attempted += lg.attempted
		ph.failed += lg.failed
	}
	return ph
}

// runOne runs one workload end to end and returns its record.
func runOne(e *env) (*record, error) {
	w, err := newWorkload(e.name)
	if err != nil {
		return nil, err
	}
	// setup_s runs from workload start to the first measured operation, so
	// it covers the warm-up too; the warm-up itself is not traced, so its
	// spans do not mix with the measured ones.
	var setups []float64
	var warm int
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			w.close()
			runtime.GC()
			debug.FreeOSMemory()
		}
		e.tr.setOn(true)
		id := e.tr.begin(0, "bench.setup")
		start := time.Now()
		err := w.setup(e, id)
		if err == nil {
			e.tr.setOn(false)
			warm, err = w.warmup(e)
		}
		setups = append(setups, time.Since(start).Seconds())
		e.tr.end(id)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("%s setup: %w", e.name, err)
		}
		e.logf("setup %d/%d %.3fs, peak RSS %.0f MB", i+1, setupRuns, setups[i], peakRSSMB())
	}
	e.tr.setOn(false)
	defer w.close()

	var ph, untraced *phase
	var layers map[string]float64
	if e.tr == nil {
		ph = w.measure(e, e.window)
	} else {
		// The traced half's counters and spans give the per-layer metrics;
		// the untraced half prices the tracing itself.
		untraced = w.measure(e, e.window/2)
		before := counters(w.registries())
		e.tr.setOn(true)
		ph = w.measure(e, e.window/2)
		e.tr.setOn(false)
		layers = counterLayers(before, counters(w.registries()), ph)
		spanLayers(e.tr.snapshot(), e.tr.legBytes.Load(), layers)
		layers["obs.trace_overhead"] = median(ph.ops)/median(untraced.ops) - 1
	}
	rss := peakRSSMB()

	checked, checkFailed, err := w.check(e)
	if err != nil {
		return nil, fmt.Errorf("%s check: %w", e.name, err)
	}
	e.logf("checked %d operations, %d failed", checked, checkFailed)

	rec := newRecord(e)
	rec.Samples = map[string]int{"setup": len(setups), "ops": len(ph.ops)}
	for k, v := range ph.classes {
		rec.Samples["class."+k] = len(v)
	}
	rec.Result.Attempted = warm + ph.attempted
	rec.Result.Failed = ph.failed + checkFailed
	if untraced != nil {
		rec.Result.Attempted += untraced.attempted
		rec.Result.Failed += untraced.failed
	}
	rec.Result.Correct = rec.Result.Failed == 0 && len(ph.ops) > 0
	rec.Detail = detail(ph)

	if e.tr == nil {
		rec.Result.Metrics = endToEndMetrics(setups, ph, rss)
		return rec, nil
	}
	if err := layerTimings(e, w, layers); err != nil {
		return nil, fmt.Errorf("%s layer timings: %w", e.name, err)
	}
	rec.Result.Metrics = metricValues(perLayer, layers)
	return rec, nil
}

// endToEndMetrics derives the end_to_end metrics of BENCHMARK.json from an
// untraced run.
func endToEndMetrics(setups []float64, ph *phase, rssMB float64) map[string]metricValue {
	n := float64(len(ph.ops))
	return metricValues(endToEnd, map[string]float64{
		"setup_s":       median(setups),
		"op_p50_ms":     median(ph.ops) * 1e3,
		"ops_per_s":     n / ph.wall,
		"cpu_ms_per_op": ph.cpu / n * 1e3,
		"rss_peak_mb":   rssMB,
	})
}

// detail is the record's unbounded extras: spreads and per-class
// latencies, each percentile only where ten samples lie beyond it.
func detail(ph *phase) map[string]float64 {
	d := map[string]float64{"window_s": ph.wall}
	if len(ph.ops) > 1 {
		d["op_iqr_ms"] = (quantile(ph.ops, 0.75) - quantile(ph.ops, 0.25)) * 1e3
	}
	for class, v := range ph.classes {
		d[class+".p50_ms"] = median(v) * 1e3
		if len(v) >= 1000 {
			d[class+".p99_ms"] = quantile(v, 0.99) * 1e3
		}
	}
	return d
}

// cpuSeconds is the process's CPU time so far, user plus system.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kB
}

// quantile is the q-quantile of xs by linear interpolation, NaN when xs
// is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
