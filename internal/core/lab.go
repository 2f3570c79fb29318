package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
	"pipecache/internal/fault"
	"pipecache/internal/obs"
	"pipecache/internal/timing"
	"pipecache/internal/trace"
)

// ErrPassPanic wraps the panic value of a simulation pass that panicked.
// The pass boundary is the lab's panic containment line: the panic becomes
// an ordinary pass error (never memoized, see passContext), so one crashing
// pass cannot poison the memo or kill a sweep worker's whole process.
var ErrPassPanic = errors.New("core: simulation pass panicked")

// Injection points of the lab tier (see internal/fault): pass execution and
// individual sweep items, the two seams through which every study runs.
var (
	ptPassRun      = fault.NewPoint("lab.pass.run")
	ptSweepItem    = fault.NewPoint("lab.sweep.item")
	ptTraceCapture = fault.NewPoint("lab.trace.capture")
)

// Params are the shared experiment parameters.
type Params struct {
	// Insts is the per-benchmark instruction budget of each simulation
	// pass. The paper's traces are billions of instructions; the default
	// here warms the largest caches and gives stable ratios while staying
	// laptop-fast.
	Insts int64
	// Quantum is the multiprogramming context-switch interval.
	Quantum int64
	// BlockWords is the cache line size of the main experiments (the
	// paper presents B = 4 W).
	BlockWords int
	// SizesKW are the per-side cache sizes under study (the paper: 1-32
	// KW).
	SizesKW []int
	// Penalties are the fixed-cycle refill penalties of the Section 3
	// experiments.
	Penalties []int
	// Model is the technology timing model.
	Model timing.Model
	// L2TimeNs is the constant-time L1 miss service used by the Section 5
	// TPI analysis; the cycle penalty at cycle time t is
	// round(L2TimeNs/t), clamped to at least 2.
	L2TimeNs float64
	// SeedOffset perturbs every workload's execution seed; the stability
	// study uses it to check that conclusions do not depend on one
	// particular random run.
	SeedOffset uint64
	// Policy is the cache replacement policy of the standard banks. The
	// zero value is LRU (the paper's policy); FIFO and Tree-PLRU open the
	// policy axis of the ablation studies. Direct-mapped configurations
	// behave identically under every policy, so the default design space
	// (associativity 1) is policy-invariant by construction — the knob
	// matters to the set-associative ablations and to per-request policy
	// overrides at the serving layer.
	Policy cache.Policy
	// SweepWorkers bounds the worker pool used by the design-space sweeps
	// and the uncached ablation passes (each point is an independent
	// simulation, so they parallelize cleanly). Zero means GOMAXPROCS; one
	// forces the serial path.
	SweepWorkers int
	// TraceBudgetBytes bounds the in-memory event-trace store, the second
	// memo tier below the result memo: the first pass over a workload set
	// captures the interpreter event stream, and every later pass with a
	// different architecture/cache configuration replays it without
	// re-interpreting. Zero means DefaultTraceBudgetBytes; negative
	// disables the tier entirely.
	TraceBudgetBytes int64
}

// DefaultTraceBudgetBytes is the event-trace store budget used when
// Params.TraceBudgetBytes is zero. A 1M-instruction pass over the default
// five-benchmark suite captures ~60 MB, so the default keeps a few
// distinct workload sets resident.
const DefaultTraceBudgetBytes = 256 << 20

// DefaultParams returns the study's defaults.
func DefaultParams() Params {
	return Params{
		Insts:      1_000_000,
		Quantum:    20_000,
		BlockWords: 4,
		SizesKW:    []int{1, 2, 4, 8, 16, 32},
		Penalties:  []int{6, 10, 18},
		Model:      timing.DefaultModel(),
		// 35 ns service: 10 cycles at the 3.5 ns ALU-limited cycle.
		L2TimeNs: 35,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.Insts <= 0 {
		return fmt.Errorf("core: non-positive instruction budget")
	}
	if p.BlockWords <= 0 {
		return fmt.Errorf("core: non-positive block size")
	}
	if len(p.SizesKW) == 0 {
		return fmt.Errorf("core: no cache sizes")
	}
	if len(p.Penalties) == 0 {
		return fmt.Errorf("core: no penalties")
	}
	if p.L2TimeNs <= 0 {
		return fmt.Errorf("core: non-positive L2 time")
	}
	return p.Model.Validate()
}

// PenaltyCycles converts the constant-time miss service into cycles at the
// given cycle time (Section 5: "CPI decreases with increasing tCPU because
// fewer CPU cycles are required to handle a miss").
func (p Params) PenaltyCycles(tcpuNs float64) int {
	return penaltyCyclesFor(p.L2TimeNs, tcpuNs)
}

func penaltyCyclesFor(l2TimeNs, tcpuNs float64) int {
	if tcpuNs <= 0 {
		return 2
	}
	c := int(l2TimeNs/tcpuNs + 0.5)
	if c < 2 {
		c = 2
	}
	return c
}

// Lab owns a suite plus memoized simulation passes. One pass per branch
// slot count covers every cache size and penalty (miss counts are
// penalty-independent and the cache banks are simulated side by side), so
// the whole evaluation needs only a handful of passes.
type Lab struct {
	Suite *Suite
	P     Params

	mu     sync.Mutex
	passes map[passKey]*passEntry

	// traces is the event-trace tier below the result memo (nil when
	// disabled): passes that differ only in architecture or cache
	// configuration share one captured interpreter stream.
	traces *trace.EventStore

	obs      *obs.Registry
	progress *obs.Progress
}

type passKey struct {
	b      int
	scheme cpisim.BranchScheme
	policy cache.Policy
}

// passEntry single-flights one memoized pass: concurrent requests for the
// same key share one simulation instead of racing to run it twice, which
// keeps the published obs counters identical at every GOMAXPROCS. The
// leader (the goroutine that created the entry) runs the pass and closes
// done; everyone else waits on done or on their own context. A leader that
// fails — cancellation, transient error, or contained panic — removes the
// entry again before waking waiters, so only successful results are ever
// memoized and the memo cannot be poisoned by one bad request.
type passEntry struct {
	done chan struct{}
	res  *cpisim.Result
	err  error
}

// NewLab validates the parameters and wraps the suite.
func NewLab(s *Suite, p Params) (*Lab, error) {
	if s == nil || len(s.Progs) == 0 {
		return nil, fmt.Errorf("core: empty suite")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := &Lab{Suite: s, P: p, passes: map[passKey]*passEntry{}}
	budget := p.TraceBudgetBytes
	if budget == 0 {
		budget = DefaultTraceBudgetBytes
	}
	if budget > 0 {
		l.traces = trace.NewStore(budget)
	}
	return l, nil
}

// SetTraceStore replaces the lab's event-trace store (nil disables the
// tier). The stability study uses it to share one bounded store across
// the fresh labs it builds per seed offset.
func (l *Lab) SetTraceStore(s *trace.EventStore) { l.traces = s }

// TraceStore returns the lab's event-trace store (nil when disabled).
func (l *Lab) TraceStore() *trace.EventStore { return l.traces }

// SetObs attaches a run-scoped metrics registry: every simulation pass
// publishes its cache, BTB, and interpreter counters into it, and the lab
// adds pass-level accounting (wall time per pass, memo hit ratio, TPI
// points evaluated). Attach before running experiments.
func (l *Lab) SetObs(reg *obs.Registry) {
	l.obs = reg
	if l.traces != nil {
		l.traces.SetObs(reg)
	}
}

// Obs returns the attached registry (nil when none).
func (l *Lab) Obs() *obs.Registry { return l.obs }

// SetProgress attaches a live progress reporter; the sweeps and Prewarm
// report phase totals, points done, and an ETA through it.
func (l *Lab) SetProgress(p *obs.Progress) { l.progress = p }

// cacheBank builds one cache.Config per size with the default block size
// and the given replacement policy.
func (l *Lab) cacheBank(pol cache.Policy) []cache.Config {
	bank := make([]cache.Config, len(l.P.SizesKW))
	for i, s := range l.P.SizesKW {
		bank[i] = cache.Config{
			SizeKW:     s,
			BlockWords: l.P.BlockWords,
			Assoc:      1, // the paper's L1 is direct-mapped
			WriteBack:  true,
			Policy:     pol,
		}
	}
	return bank
}

// sizeIndex locates a size in the bank.
func (l *Lab) sizeIndex(sizeKW int) (int, error) {
	for i, s := range l.P.SizesKW {
		if s == sizeKW {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: size %d KW not in the configured bank %v", sizeKW, l.P.SizesKW)
}

// StaticPass runs (or returns the memoized) simulation of the static
// delayed-branch architecture with b branch delay slots over the full
// cache banks under replacement policy pol, memoized per (depth, policy).
// Load stalls are derived from the recorded epsilon distributions
// afterwards, so the pass itself is load-depth-agnostic. ctx aborts both
// waiting for an in-flight pass and the pass's own simulation loop.
func (l *Lab) StaticPass(ctx context.Context, b int, pol cache.Policy) (*cpisim.Result, error) {
	return l.passContext(ctx, passKey{b: b, scheme: cpisim.BranchStatic, policy: pol})
}

// StaticPassPolicyContext is StaticPass. It remains only because the
// end-to-end benchmark (perfbench/serve.go) calls it; delete it at the
// next change to the benchmark.
func (l *Lab) StaticPassPolicyContext(ctx context.Context, b int, pol cache.Policy) (*cpisim.Result, error) {
	return l.StaticPass(ctx, b, pol)
}

// BTBPass runs (or returns the memoized) simulation of the BTB
// architecture at the lab's policy. The BTB's stall cycles scale linearly
// with the delay count, so one pass serves every depth
// (Result.BTBStallPerCTIFor).
func (l *Lab) BTBPass(ctx context.Context) (*cpisim.Result, error) {
	return l.passContext(ctx, passKey{b: 0, scheme: cpisim.BranchBTB, policy: l.P.Policy})
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func (l *Lab) passContext(ctx context.Context, k passKey) (*cpisim.Result, error) {
	requests := l.obs.Counter("lab.pass_requests")
	requests.Inc()
	counted := false
	for {
		l.mu.Lock()
		e, ok := l.passes[k]
		if !ok {
			e = &passEntry{done: make(chan struct{})}
			l.passes[k] = e
		}
		l.mu.Unlock()

		if ok {
			// Memo hit (possibly still in flight): wait for the leader,
			// bounded by our own context.
			if !counted {
				l.obs.Counter("lab.pass_memo_hits").Inc()
				counted = true
			}
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			if isCtxErr(e.err) {
				// The leader itself was cancelled and has removed the
				// entry; take another turn (and possibly become leader).
				continue
			}
			l.setMemoRatio(requests)
			return e.res, e.err
		}

		// Leader: run the pass under our context.
		cfg := cpisim.Config{
			BranchSlots:  k.b,
			BranchScheme: k.scheme,
			LoadSlots:    0,
			ICaches:      l.cacheBank(k.policy),
			DCaches:      l.cacheBank(k.policy),
			Quantum:      l.P.Quantum,
		}
		e.res, e.err = l.runInstrumented(ctx, cfg, "lab.passes_run")
		if e.err != nil {
			// Only successful results are memoized. A failed entry must be
			// removed before waking the waiters: caching an error —
			// cancellation or transient failure alike — would poison the
			// key, replaying one aborted request's failure to every pass
			// request for the rest of the lab's lifetime.
			l.mu.Lock()
			delete(l.passes, k)
			l.mu.Unlock()
		}
		close(e.done)
		l.setMemoRatio(requests)
		return e.res, e.err
	}
}

// setMemoRatio publishes the hit ratio of the memoized-pass cache so far;
// requests counts both this call and any concurrent ones already folded in.
func (l *Lab) setMemoRatio(requests *obs.Counter) {
	if l.obs == nil {
		return
	}
	req := float64(requests.Value())
	hits := float64(l.obs.Counter("lab.pass_memo_hits").Value())
	if req > 0 {
		l.obs.Gauge("lab.pass_memo_hit_ratio").Set(hits / req)
	}
}

// runInstrumented executes one simulation pass over the lab's workloads
// with the lab's registry attached, recording its wall time and bumping
// the named pass counter.
func (l *Lab) runInstrumented(ctx context.Context, cfg cpisim.Config, counter string) (*cpisim.Result, error) {
	return l.runWorkloads(ctx, cfg, l.workloads(), counter)
}

// runWorkloads is runInstrumented over an explicit workload set (the
// profile ablation attaches training data to the workloads before the
// pass; the event stream is profile-independent, so those passes replay
// from the same trace as everything else). It is also the pass's panic
// boundary: a panic below it surfaces as an ErrPassPanic-wrapped error
// after runOrReplay's capture bookkeeping has unwound cleanly.
func (l *Lab) runWorkloads(ctx context.Context, cfg cpisim.Config, ws []cpisim.Workload, counter string) (res *cpisim.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			if l.obs != nil {
				l.obs.Counter("lab.pass_panics").Inc()
			}
			res, err = nil, fmt.Errorf("%w: %v", ErrPassPanic, v)
		}
	}()
	if err := ptPassRun.Inject(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err = l.runOrReplay(ctx, cfg, ws)
	if err != nil {
		return nil, err
	}
	if l.obs != nil {
		l.obs.Counter(counter).Inc()
		l.obs.Histogram("lab.pass_seconds", obs.ExponentialBounds(0.01, 2, 16)...).
			Observe(time.Since(start).Seconds())
	}
	return res, nil
}

// traceKey identifies one workload set's event streams. Deliberately
// absent: branch scheme and slots, load scheme, cache geometry,
// replacement policy, profiles, and the quantum — the interpreter never
// sees any of them (the stream invariance contract in internal/interp),
// so one capture serves every configuration the studies sweep.
func (l *Lab) traceKey(ws []cpisim.Workload) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "insts=%d", l.P.Insts)
	for _, w := range ws {
		fmt.Fprintf(&sb, "|%s:%#x", w.Prog.Name, w.Seed)
	}
	return sb.String()
}

// runOrReplay is the event-trace tier under every simulation pass. The
// first pass for a workload set interprets live with a recorder teed in
// and commits the capture; concurrent same-key passes wait for that single
// flight; every later pass replays the stored stream straight into its own
// cache banks. Replay failure (a stale or mismatched trace) falls back to
// live interpretation on a fresh simulator — never on the partially-driven
// one — so results are correct even when the tier misbehaves.
func (l *Lab) runOrReplay(ctx context.Context, cfg cpisim.Config, ws []cpisim.Workload) (*cpisim.Result, error) {
	sim, err := cpisim.New(cfg, ws)
	if err != nil {
		return nil, err
	}
	sim.SetObs(l.obs)
	if l.traces == nil {
		return sim.RunContext(ctx, l.P.Insts)
	}
	key := l.traceKey(ws)
	tr, tok, err := l.traces.Acquire(ctx, key)
	if err != nil {
		return nil, err
	}
	if tok != nil {
		// Designated capturer: this pass was going to interpret live
		// anyway; tee the streams into a recorder on the way. The deferred
		// abort also covers a panic in the run: an unresolved token would
		// wedge every later Acquire of this key on a channel that never
		// closes.
		defer func() {
			if !tok.Resolved() {
				tok.Abort()
			}
		}()
		if err := ptTraceCapture.Inject(); err != nil {
			return nil, err
		}
		rec := trace.NewRecorder(key, l.P.Insts)
		sim.SetCapture(rec)
		res, err := sim.RunContext(ctx, l.P.Insts)
		if err != nil {
			return nil, err
		}
		captured := rec.Finish()
		tok.Commit(captured)
		captured.Release()
		return res, nil
	}
	if tr == nil {
		// Oversize tombstone: interpret live without capturing.
		return sim.RunContext(ctx, l.P.Insts)
	}
	res, rerr := sim.ReplayContext(ctx, l.P.Insts, tr)
	tr.Release()
	if rerr == nil {
		l.obs.Counter("lab.pass_replays").Inc()
		sim.Release()
		return res, nil
	}
	if isCtxErr(rerr) {
		return nil, rerr
	}
	// The trace failed validation or ran dry — possible only if a caller
	// mutated Params or the suite between passes. Fall back to a live run
	// on a fresh simulator; the partially-driven one is poisoned.
	l.obs.Counter("lab.replay_fallbacks").Inc()
	fresh, err := cpisim.New(cfg, ws)
	if err != nil {
		return nil, err
	}
	fresh.SetObs(l.obs)
	return fresh.RunContext(ctx, l.P.Insts)
}

// Prewarm runs the standard simulation passes (static delayed branches at
// every depth plus the BTB scheme) concurrently, so the experiments that
// follow hit the memo. Each pass is an independent simulator over the
// shared read-only programs; results are deterministic regardless of
// completion order.
func (l *Lab) Prewarm() error {
	keys := []passKey{
		{b: 0, scheme: cpisim.BranchStatic, policy: l.P.Policy},
		{b: 1, scheme: cpisim.BranchStatic, policy: l.P.Policy},
		{b: 2, scheme: cpisim.BranchStatic, policy: l.P.Policy},
		{b: 3, scheme: cpisim.BranchStatic, policy: l.P.Policy},
		{b: 0, scheme: cpisim.BranchBTB, policy: l.P.Policy},
	}
	l.progress.StartPhase("simulation passes", int64(len(keys)))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k passKey) {
			defer wg.Done()
			_, errs[i] = l.passContext(context.Background(), k)
			l.progress.Step(1)
		}(i, k)
	}
	wg.Wait()
	l.progress.Finish()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweepWorkers resolves the configured pool size.
func (l *Lab) sweepWorkers() int {
	if l.P.SweepWorkers > 0 {
		return l.P.SweepWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach runs fn(ctx, 0) ... fn(ctx, n-1) on a bounded pool of
// sweepWorkers() goroutines. Results must be written into index i of a
// caller-owned slice so the output order is independent of scheduling;
// any serial reduction then happens after forEach returns, which keeps
// every sweep deterministic at any worker count. The first error (by
// lowest index, so error reporting is deterministic too) cancels the
// pool's context and is returned; with one worker (or one item) the loop
// degenerates to the plain serial sweep.
func (l *Lab) forEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	workers := l.sweepWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := runSweepItem(ctx, i, fn); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next   int64 = -1
		wg     sync.WaitGroup
		mu     sync.Mutex
		errIdx = n
		first  error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := runSweepItem(ctx, i, fn); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}

// runSweepItem runs one sweep item with the pool's panic boundary: a panic
// in item code outside any pass (passes contain their own, see
// runWorkloads) becomes an error instead of an unrecovered panic in a
// worker goroutine, which would kill the process before wg.Wait returned.
func runSweepItem(ctx context.Context, i int, fn func(ctx context.Context, i int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: sweep item %d: %v", ErrPassPanic, i, v)
		}
	}()
	if err := ptSweepItem.Inject(); err != nil {
		return err
	}
	return fn(ctx, i)
}

// workloads returns the suite's workloads with the lab's seed offset
// applied.
func (l *Lab) workloads() []cpisim.Workload {
	ws := l.Suite.Workloads()
	for i := range ws {
		ws[i].Seed ^= l.P.SeedOffset
	}
	return ws
}

// RunPass executes an uncached custom configuration over the suite (used
// by the block-size and associativity ablations) with cooperative
// cancellation.
func (l *Lab) RunPass(ctx context.Context, cfg cpisim.Config) (*cpisim.Result, error) {
	if cfg.Quantum == 0 {
		cfg.Quantum = l.P.Quantum
	}
	return l.runInstrumented(ctx, cfg, "lab.adhoc_passes_run")
}
