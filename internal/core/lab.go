package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
	"pipecache/internal/fault"
	"pipecache/internal/interp"
	"pipecache/internal/obs"
	"pipecache/internal/timing"
	"pipecache/internal/trace"
)

// ErrPassPanic wraps the panic value of a simulation pass that panicked.
// The pass boundary is the lab's panic containment line: the panic becomes
// an ordinary pass error (never memoized, see singleFlight), so one crashing
// pass cannot poison the memo or kill a sweep worker's whole process.
var ErrPassPanic = errors.New("core: simulation pass panicked")

// Injection points of the lab tier (see internal/fault): pass execution and
// individual sweep items, the two seams through which every study runs.
var (
	ptPassRun      = fault.NewPoint("lab.pass.run")
	ptSweepItem    = fault.NewPoint("lab.sweep.item")
	ptTraceCapture = fault.NewPoint("lab.trace.capture")
	ptDataRun      = fault.NewPoint("lab.data.run")
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
	// SweepWorkers bounds the worker pool that runs the cold passes of the
	// design-space sweeps and the uncached ablation passes (each pass is
	// an independent simulation, so they parallelize cleanly). Zero means
	// GOMAXPROCS; one forces the serial path.
	SweepWorkers int
	// TraceBudgetBytes bounds the in-memory event-trace store, the second
	// memo tier below the result memo: the first pass over a workload set
	// captures the interpreter event stream, and every pass, the first
	// included, replays it under its own architecture/cache configuration
	// without re-interpreting. Zero means DefaultTraceBudgetBytes;
	// negative disables the tier entirely. It bounds the traces' own
	// bytes only: the compiled chunk plans replays keep beside a trace
	// (on its Aux map) are not counted, and show in the
	// cpisim.plan_bytes counter instead.
	TraceBudgetBytes int64
}

// DefaultTraceBudgetBytes is the event-trace store budget used when
// Params.TraceBudgetBytes is zero. A 1M-instruction pass over the 16
// Table 1 benchmarks captures about 192 MB, so the default keeps one
// such workload set resident, or several smaller ones.
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
	if err := ValidateL2TimeNs(p.L2TimeNs); err != nil {
		return err
	}
	return p.Model.Validate()
}

// maxL2TimeNs bounds the miss-service time a query may ask for: at the
// 3.5 ns ALU floor a 1 ms service is under 300k cycles of penalty, so no
// miss count a pass can reach overflows CyclesFor.
const maxL2TimeNs = 1e6

// ValidateL2TimeNs checks a constant-time L1 miss service in ns against
// (0, 1e6], the one range check every design-point query and the server's
// request decoding share. Outside it penaltyCyclesFor's conversion means
// nothing: NaN, +Inf and 1e300 convert to the smallest int, every value
// below 2 cycles is clamped up to 2, and at 1e15 misses x penalty can
// overflow int64.
func ValidateL2TimeNs(ns float64) error {
	if !(ns > 0 && ns <= maxL2TimeNs) {
		return fmt.Errorf("l2_time_ns %g out of range", ns)
	}
	return nil
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
	// data memoizes the data jobs of split passes (runSplit), under the
	// same single-flight and failure rules as passes.
	data map[dataKey]*passEntry
	// table1 is Table 1 as a baked surface stored it (Seed), so Table1
	// answers without a probe; nil until seeded.
	table1 *Table1Result

	// tcpu is Table 6 of the lab's model: tcpu[i][d] is
	// P.Model.TCPU(P.SizesKW[i], d), built once by NewLab, so a design
	// point's cycle time is a lookup instead of a timing analysis.
	tcpu [][maxDelaySlots + 1]tcpuCell

	// cands holds Best's candidates per (scheme, symmetric), enumerated
	// once by NewLab in DesignSpace order with their size indices and
	// cycle times, so a Best allocates no candidate list and a point's
	// per-query work is its penalty and one CPI table read.
	cands map[candKey][]candidate
	// candDepths holds each candidate list's distinct depths (depthsOf),
	// the passes a Best over it resolves.
	candDepths map[candKey][]int

	// traces is the event-trace tier below the result memo (nil when
	// disabled): passes that differ only in architecture or cache
	// configuration share one captured interpreter stream.
	traces *trace.EventStore

	obs      *obs.Registry
	progress *obs.Progress
}

// tcpuCell is one tCPU table entry: the model's cycle time of one cache
// side at one depth, or the error the model returned for it.
type tcpuCell struct {
	ns  float64
	err error
}

// candidate is a design point with the query-independent half of its
// evaluation done: its cycle time (tcpuSplit) and its size-bank indices,
// or the first error those lookups returned, in that order.
type candidate struct {
	dp         DesignPoint
	tcpu       float64
	iIdx, dIdx int
	err        error
}

// candidate resolves dp's cycle time and size indices.
func (l *Lab) candidate(dp DesignPoint) candidate {
	c := candidate{dp: dp}
	if c.tcpu, c.err = l.tcpuSplit(dp.ISizeKW, dp.B, dp.DSizeKW, dp.L); c.err != nil {
		return c
	}
	if c.iIdx, c.err = l.sizeIndex(dp.ISizeKW); c.err != nil {
		return c
	}
	c.dIdx, c.err = l.sizeIndex(dp.DSizeKW)
	return c
}

// point is c's TPIPoint at refill penalty pen and CPI cpi.
func (c *candidate) point(pen int, cpi float64) TPIPoint {
	return TPIPoint{
		B: c.dp.B, L: c.dp.L, ISizeKW: c.dp.ISizeKW, DSizeKW: c.dp.DSizeKW, LoadScheme: c.dp.Scheme,
		TCPUNs: c.tcpu, PenCycles: pen, CPI: cpi, TPINs: cpi * c.tcpu,
	}
}

// candKey selects one of Best's candidate lists.
type candKey struct {
	scheme    cpisim.LoadScheme
	symmetric bool
}

type passKey struct {
	b      int
	scheme cpisim.BranchScheme
	policy cache.Policy
}

// dataKey identifies one data job: the workload set's event streams (the
// budget is part of the trace key), the multiprogramming quantum, and the
// exact D-cache ladder. Nothing else reaches the data side of a pass.
type dataKey struct {
	trace   string
	quantum int64
	dcaches string
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
	// tab is res's CPI table: the leader of a static pass builds it after
	// the pass's data merge and before it wakes the waiters, so every
	// design point of every sweep over the pass reads one table. Nil for
	// the other passes and for data jobs.
	tab *cpisim.CPITable
	err error
}

// NewLab validates the parameters, wraps the suite and derives the tCPU
// table from P.Model and Best's candidate lists from P and the tCPU table;
// P must not change afterwards.
func NewLab(s *Suite, p Params) (*Lab, error) {
	if s == nil || len(s.Progs) == 0 {
		return nil, fmt.Errorf("core: empty suite")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	l := &Lab{Suite: s, P: p, passes: map[passKey]*passEntry{}, data: map[dataKey]*passEntry{}}
	l.tcpu = make([][maxDelaySlots + 1]tcpuCell, len(p.SizesKW))
	for i, size := range p.SizesKW {
		for d := range l.tcpu[i] {
			c := &l.tcpu[i][d]
			c.ns, c.err = p.Model.TCPU(size, d)
		}
	}
	l.cands = map[candKey][]candidate{}
	for _, dp := range DesignSpace(p) {
		c := l.candidate(dp)
		full := candKey{scheme: dp.Scheme}
		l.cands[full] = append(l.cands[full], c)
		if dp.B == dp.L && dp.ISizeKW == dp.DSizeKW {
			sym := candKey{scheme: dp.Scheme, symmetric: true}
			l.cands[sym] = append(l.cands[sym], c)
		}
	}
	l.candDepths = map[candKey][]int{}
	for k, cands := range l.cands {
		l.candDepths[k] = depthsOf(cands)
	}
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
	e, err := l.pass(ctx, passKey{b: b, scheme: cpisim.BranchStatic, policy: pol})
	if err != nil {
		return nil, err
	}
	return e.res, nil
}

// staticTable is StaticPass's CPI table: the design points' view of the
// pass.
func (l *Lab) staticTable(ctx context.Context, b int, pol cache.Policy) (*cpisim.CPITable, error) {
	e, err := l.pass(ctx, passKey{b: b, scheme: cpisim.BranchStatic, policy: pol})
	if err != nil {
		return nil, err
	}
	return e.tab, nil
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
	e, err := l.pass(ctx, passKey{b: 0, scheme: cpisim.BranchBTB, policy: l.P.Policy})
	if err != nil {
		return nil, err
	}
	return e.res, nil
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// pass returns the memo entry of k's pass, running the pass first unless
// it is memoized or in flight (singleFlight).
func (l *Lab) pass(ctx context.Context, k passKey) (*passEntry, error) {
	requests := l.obs.Counter("lab.pass_requests")
	requests.Inc()
	e, err := singleFlight(ctx, l, l.passes, k, "lab.pass_memo_hits", func(e *passEntry) error {
		res, err := l.runInstrumented(ctx, l.passConfig(k), "lab.passes_run")
		if err != nil {
			return err
		}
		e.res = res
		if k.scheme == cpisim.BranchStatic {
			e.tab = cpisim.NewCPITable(res)
		}
		return nil
	})
	l.setMemoRatio(requests)
	return e, err
}

// passConfig is the configuration k's pass runs: both cache banks at k's
// policy, with no load delay (load stalls are derived afterwards).
func (l *Lab) passConfig(k passKey) cpisim.Config {
	return cpisim.Config{
		BranchSlots:  k.b,
		BranchScheme: k.scheme,
		ICaches:      l.cacheBank(k.policy),
		DCaches:      l.cacheBank(k.policy),
		Quantum:      l.P.Quantum,
	}
}

// singleFlight returns the entry memoized under k in m (guarded by l.mu),
// running run as the leader when k has no entry: run fills in the entry's
// result, or returns the error that fails it; see passEntry. A request
// that finds an entry, completed or in flight, counts once in the hits
// counter and waits bounded by its own context; a follower whose leader
// was cancelled takes another turn, and may lead.
func singleFlight[K comparable](ctx context.Context, l *Lab, m map[K]*passEntry, k K, hits string, run func(e *passEntry) error) (*passEntry, error) {
	counted := false
	for {
		l.mu.Lock()
		e, ok := m[k]
		if !ok {
			e = &passEntry{done: make(chan struct{})}
			m[k] = e
		}
		l.mu.Unlock()

		if ok {
			if !counted {
				l.obs.Counter(hits).Inc()
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
			if e.err != nil {
				return nil, e.err
			}
			return e, nil
		}

		if e.err = run(e); e.err != nil {
			// Only successful results are memoized. A failed entry must be
			// removed before waking the waiters: caching an error —
			// cancellation or transient failure alike — would poison the
			// key, replaying one aborted request's failure to every
			// request for it for the rest of the lab's lifetime.
			l.mu.Lock()
			delete(m, k)
			l.mu.Unlock()
		}
		close(e.done)
		if e.err != nil {
			return nil, e.err
		}
		return e, nil
	}
}

// memoized reports whether k's pass has completed and is in the memo, so
// a request for it returns at once. It counts nothing.
func (l *Lab) memoized(k passKey) bool {
	l.mu.Lock()
	e, ok := l.passes[k]
	l.mu.Unlock()
	if !ok {
		return false
	}
	select {
	case <-e.done:
		return e.err == nil
	default:
		return false
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
	defer l.containPanic(&err)
	if err := ptPassRun.Inject(); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err = l.runSplit(ctx, cfg, ws)
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

// containPanic, deferred, turns a panic unwinding a pass (or its data job,
// which runs on a goroutine of its own) into an ErrPassPanic-wrapped error.
func (l *Lab) containPanic(err *error) {
	if v := recover(); v != nil {
		l.obs.Counter("lab.pass_panics").Inc()
		*err = fmt.Errorf("%w: %v", ErrPassPanic, v)
	}
}

// runSplit runs a pass as two jobs when its data side can be simulated
// apart: the instruction job, cfg with no D-caches, on this goroutine, and
// beside it the data job (dataPass), whose result is memoized per
// dataKey. The data side cannot differ between passes with the same key:
// the D references are the workloads' event streams, interleaved by the
// quantum, and no branch scheme, delay-slot count, profile or I-cache
// changes them. The pass result is the instruction job's with the data
// job's D-miss arrays. A two-level pass (its I and D misses interleave
// into one L2 bank) and a pass with only one ladder run whole.
func (l *Lab) runSplit(ctx context.Context, cfg cpisim.Config, ws []cpisim.Workload) (*cpisim.Result, error) {
	if cfg.L2.Enabled() || len(cfg.ICaches) == 0 || len(cfg.DCaches) == 0 {
		return l.runOrReplay(ctx, cfg, ws, "lab.pass_replays")
	}
	var (
		dres *cpisim.Result
		derr error
		done = make(chan struct{})
	)
	go func() {
		defer close(done)
		dres, derr = l.dataPass(ctx, cfg, ws)
	}()
	// Joined on every way out, a panicking instruction job included, so
	// the data job never outlives its pass.
	defer func() { <-done }()
	icfg := cfg
	icfg.DCaches = nil
	res, err := l.runOrReplay(ctx, icfg, ws, "lab.pass_replays")
	<-done
	if err != nil {
		return nil, err
	}
	if derr != nil {
		return nil, derr
	}
	return mergeData(res, dres, cfg.DCaches)
}

// mergeData completes an instruction job's result with its data job's
// D-miss arrays, after checking that both jobs saw the same references.
func mergeData(res, data *cpisim.Result, dcaches []cache.Config) (*cpisim.Result, error) {
	if len(res.Benches) != len(data.Benches) {
		return nil, fmt.Errorf("core: data job has %d workloads, instruction job %d", len(data.Benches), len(res.Benches))
	}
	res.Config.DCaches = dcaches
	for i := range res.Benches {
		b, d := &res.Benches[i], &data.Benches[i]
		if b.Name != d.Name || b.DReads != d.DReads || b.DWrites != d.DWrites {
			return nil, fmt.Errorf("core: data job saw %s with %d reads, %d writes; instruction job %s with %d, %d",
				d.Name, d.DReads, d.DWrites, b.Name, b.DReads, b.DWrites)
		}
		b.DReadMisses = slices.Clone(d.DReadMisses)
		b.DWriteMisses = slices.Clone(d.DWriteMisses)
	}
	return res, nil
}

// dataPass returns the data job of a pass with configuration cfg over ws,
// running it unless a pass with the same dataKey already has; concurrent
// passes share one run (singleFlight).
func (l *Lab) dataPass(ctx context.Context, cfg cpisim.Config, ws []cpisim.Workload) (*cpisim.Result, error) {
	k := dataKey{trace: l.traceKey(ws), quantum: cfg.Quantum, dcaches: fmt.Sprint(cfg.DCaches)}
	e, err := singleFlight(ctx, l, l.data, k, "lab.data_memo_hits", func(e *passEntry) error {
		var err error
		e.res, err = l.runData(ctx, cfg, ws)
		return err
	})
	if err != nil {
		return nil, err
	}
	return e.res, nil
}

// runData runs one data job: cfg's D-cache ladder alone, at static b=0
// with the profiles stripped, under the pass's context.
func (l *Lab) runData(ctx context.Context, cfg cpisim.Config, ws []cpisim.Workload) (res *cpisim.Result, err error) {
	defer l.containPanic(&err)
	if err := ptDataRun.Inject(); err != nil {
		return nil, err
	}
	ws = slices.Clone(ws)
	for i := range ws {
		ws[i].Profile = nil
	}
	res, err = l.runOrReplay(ctx, cpisim.Config{DCaches: cfg.DCaches, Quantum: cfg.Quantum}, ws, "lab.data_replays")
	if err != nil {
		return nil, err
	}
	l.obs.Counter("lab.data_passes").Inc()
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
// first pass for a workload set is the designated capturer: it records the
// set's event streams with the capture stage (capture), commits the trace,
// and then replays its own pass from it like every other pass.
// Concurrent same-key passes wait for that single flight; every later pass
// replays the stored stream straight into its own cache banks. A pass runs
// live only where no trace can serve it: the tier is disabled, the key is
// tombstoned as oversize, or a replay fails validation (a stale or
// mismatched trace), which falls back to live interpretation on a fresh
// simulator — never on the partially-driven one — so results are correct
// even when the tier misbehaves. A completed replay counts in the named
// counter.
func (l *Lab) runOrReplay(ctx context.Context, cfg cpisim.Config, ws []cpisim.Workload, replays string) (*cpisim.Result, error) {
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
		// Designated capturer. The deferred abort also covers a panic: an
		// unresolved token would wedge every later Acquire of this key on
		// a channel that never closes.
		defer func() {
			if !tok.Resolved() {
				tok.Abort()
			}
		}()
		if err := ptTraceCapture.Inject(); err != nil {
			return nil, err
		}
		if tr, err = l.capture(ctx, key, ws); err != nil {
			return nil, err
		}
		// The capturer replays its own trace whether Commit installs it or
		// tombstones it as oversize.
		tok.Commit(tr)
	} else if tr == nil {
		// Oversize tombstone: interpret live without capturing.
		return sim.RunContext(ctx, l.P.Insts)
	}
	res, rerr := sim.ReplayContext(ctx, l.P.Insts, tr)
	if rerr == nil {
		l.obs.Counter(replays).Inc()
		sim.PublishReplayGate()
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

// Capture records the event streams of the lab's workloads with the
// capture stage and returns the trace. It neither reads nor fills the
// lab's trace store.
func (l *Lab) Capture(ctx context.Context) (*trace.EventTrace, error) {
	ws := l.workloads()
	return l.capture(ctx, l.traceKey(ws), ws)
}

// capture is the capture stage: it records every workload's event stream
// into a trace under key, with no cache simulation. Each workload's
// interpreter runs standalone to the budget, one sweep item per workload
// on the pool, in quantum-sized Run slices so ctx is polled. A stream
// depends only on (program, seed, budget) — the stream invariance contract
// in internal/interp — and the stop rule, the first block boundary at or
// past the budget, ends it where a live pass's multiprogrammed turns end
// it, so the trace equals one recorded by a tee on a live pass.
func (l *Lab) capture(ctx context.Context, key string, ws []cpisim.Workload) (*trace.EventTrace, error) {
	start := time.Now()
	rec := trace.NewRecorder(key, l.P.Insts)
	sinks := make([]interp.EventSink, len(ws))
	for i, w := range ws {
		sinks[i] = rec.Bench(w.Prog.Name, w.Seed, nil)
	}
	slice := l.P.Quantum
	if slice <= 0 {
		slice = l.P.Insts
	}
	err := l.forEach(ctx, len(ws), func(ctx context.Context, i int) error {
		it, err := interp.New(ws[i].Prog, ws[i].Seed)
		if err != nil {
			return err
		}
		for remaining := l.P.Insts; remaining > 0; {
			if err := ctx.Err(); err != nil {
				return err
			}
			remaining -= it.Run(min(slice, remaining), sinks[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// forEach has joined every worker, so no sink is still appending.
	tr := rec.Finish()
	if l.obs != nil {
		l.obs.Counter("lab.captures").Inc()
		l.obs.Histogram("lab.capture_seconds", obs.ExponentialBounds(0.01, 2, 16)...).
			Observe(time.Since(start).Seconds())
	}
	return tr, nil
}

// defaultKeys are the passes every default-policy design point, figure
// and table (but Table 1) reads: static delayed branches at b = 0..3, then
// the BTB scheme, all under the lab's policy.
func (l *Lab) defaultKeys() []passKey {
	return []passKey{
		{b: 0, scheme: cpisim.BranchStatic, policy: l.P.Policy},
		{b: 1, scheme: cpisim.BranchStatic, policy: l.P.Policy},
		{b: 2, scheme: cpisim.BranchStatic, policy: l.P.Policy},
		{b: 3, scheme: cpisim.BranchStatic, policy: l.P.Policy},
		{b: 0, scheme: cpisim.BranchBTB, policy: l.P.Policy},
	}
}

// Prewarm runs the default passes (DefaultPasses), so the experiments that
// follow hit the memo.
func (l *Lab) Prewarm() error {
	_, err := l.DefaultPasses(context.Background())
	return err
}

// DefaultPasses returns the results of the default passes, in defaultKeys
// order, running the ones not yet memoized concurrently. Each pass is an
// independent simulator over the shared read-only programs; results are
// deterministic regardless of completion order.
func (l *Lab) DefaultPasses(ctx context.Context) ([]*cpisim.Result, error) {
	keys := l.defaultKeys()
	l.progress.StartPhase("simulation passes", int64(len(keys)))
	res := make([]*cpisim.Result, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, k := range keys {
		wg.Add(1)
		go func(i int, k passKey) {
			defer wg.Done()
			if e, err := l.pass(ctx, k); err != nil {
				errs[i] = err
			} else {
				res[i] = e.res
			}
			l.progress.Step(1)
		}(i, k)
	}
	wg.Wait()
	l.progress.Finish()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Seed fills the lab's memo from stored results: passes are copies of
// DefaultPasses' results, in its order, and table1 is Table 1's rows. A
// pass already memoized or in flight, and a Table 1 already seeded, keep
// their entries. Each seeded result takes its configuration from its key
// and the lab's parameters, as a run would, and each static pass gets its
// CPI table, so nothing the seeds cover ever runs a simulation or a probe.
// Seed checks the shape of every result against the lab's suite and size
// bank before it changes anything.
func (l *Lab) Seed(passes []*cpisim.Result, table1 []Table1Row) error {
	keys := l.defaultKeys()
	if len(passes) != len(keys) {
		return fmt.Errorf("core: seeding %d passes, want %d", len(passes), len(keys))
	}
	ws := l.workloads()
	for i, r := range passes {
		if err := l.checkSeed(r, ws); err != nil {
			return fmt.Errorf("core: seeding %s pass b=%d: %w", keys[i].scheme, keys[i].b, err)
		}
	}
	if len(table1) != len(l.Suite.Specs) {
		return fmt.Errorf("core: seeding Table 1 with %d rows, suite has %d benchmarks", len(table1), len(l.Suite.Specs))
	}
	for i, row := range table1 {
		if row.Name != l.Suite.Specs[i].Name {
			return fmt.Errorf("core: seeding Table 1 row %d with %q, want %q", i, row.Name, l.Suite.Specs[i].Name)
		}
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	for i, k := range keys {
		if _, ok := l.passes[k]; ok {
			continue
		}
		res := *passes[i]
		res.Config = l.passConfig(k)
		e := &passEntry{done: make(chan struct{}), res: &res}
		if k.scheme == cpisim.BranchStatic {
			e.tab = cpisim.NewCPITable(e.res)
		}
		close(e.done)
		l.passes[k] = e
	}
	if l.table1 == nil {
		l.table1 = newTable1Result(slices.Clone(table1))
	}
	return nil
}

// checkSeed reports why r cannot stand in for a default pass over ws: one
// result per workload, by name, each with one miss count per size of the
// bank on either side and no second-level results.
func (l *Lab) checkSeed(r *cpisim.Result, ws []cpisim.Workload) error {
	if r == nil {
		return fmt.Errorf("no result")
	}
	if len(r.Benches) != len(ws) {
		return fmt.Errorf("%d benchmarks, suite has %d", len(r.Benches), len(ws))
	}
	n := len(l.P.SizesKW)
	for i := range r.Benches {
		b := &r.Benches[i]
		if b.Name != ws[i].Prog.Name {
			return fmt.Errorf("benchmark %d is %q, want %q", i, b.Name, ws[i].Prog.Name)
		}
		if len(b.IMisses) != n || len(b.DReadMisses) != n || len(b.DWriteMisses) != n || b.L2 != nil {
			return fmt.Errorf("%s does not fit the %d-size bank", b.Name, n)
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
// pool's context and is returned; an item that then stops with the
// cancellation that failure caused does not count, so it cannot mask the
// failure from a lower index. With one worker (or one item) the loop
// degenerates to the plain serial sweep, eachSerial.
func (l *Lab) forEach(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
	workers := l.sweepWorkers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		return eachSerial(ctx, n, fn)
	}
	parent := ctx
	ctx, cancel := context.WithCancel(parent)
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
					// The pool is cancelled only after first is set, so a
					// context error seen after that, with the caller's
					// context alive, is that cancellation.
					induced := first != nil && isCtxErr(err) && parent.Err() == nil
					if i < errIdx && !induced {
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

// eachSerial is forEach on the calling goroutine, for items too cheap to
// hand to a worker: every item still gets the context check, the
// lab.sweep.item fault point and the panic boundary, and the first error
// stops the loop.
func eachSerial(ctx context.Context, n int, fn func(ctx context.Context, i int) error) error {
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
