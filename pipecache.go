// Package pipecache is a trace-driven simulation and timing-analysis
// library reproducing "Performance Optimization of Pipelined Primary
// Caches" (Kunle Olukotun, Trevor Mudge, Richard Brown; ISCA 1992).
//
// The paper asks how deeply the access to a primary (L1) cache should be
// pipelined: deeper pipelining shortens the CPU cycle time tCPU = tL1/d but
// adds branch and load delay slots that raise CPI. The library provides
// every piece of the study's methodology:
//
//   - a synthetic benchmark suite calibrated to the paper's Table 1
//     workload statistics (Benchmarks, BuildProgram);
//   - a deterministic interpreter and multiprogrammed, multi-configuration
//     CPI simulator — the paper's cacheSIM (NewSim, SimConfig);
//   - the delayed-branch post-processor with optional squashing and its
//     translation tables (Translate);
//   - a 256-entry branch-target buffer (NewBTB);
//   - set-associative instruction/data cache models (NewCache);
//   - the GaAs SRAM + MCM access-time macro-model and a latch-level
//     minimum-cycle-time analyzer — the paper's minTcpu (TimingModel);
//   - the Section 5 TPI = CPI x tCPU design-space optimization and every
//     table and figure of the evaluation (NewLab and the Lab methods).
//
// # Quick start
//
//	suite, _ := pipecache.BuildSuite(pipecache.Benchmarks())
//	lab, _ := pipecache.NewLab(suite, pipecache.DefaultParams())
//	fig12, _ := lab.Figure12()     // TPI vs total L1 size, b=l=0..3
//	fmt.Println(fig12)
//	opt, _ := lab.Best(context.Background(), lab.Query(), pipecache.LoadStatic, false)
//	fmt.Println(opt.Best)          // the paper's 2-3 stage optimum
//
// All simulation is deterministic: the same inputs produce bit-identical
// results on every machine.
package pipecache

import (
	"context"
	"io"

	"pipecache/internal/btb"
	"pipecache/internal/cache"
	"pipecache/internal/cluster"
	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/gen"
	"pipecache/internal/interp"
	"pipecache/internal/obs"
	"pipecache/internal/program"
	"pipecache/internal/sched"
	"pipecache/internal/server"
	"pipecache/internal/surface"
	"pipecache/internal/timing"
	"pipecache/internal/trace"
)

// Benchmark synthesis (internal/gen).
type (
	// Spec describes one benchmark to synthesize; see Benchmarks for the
	// paper's Table 1 suite.
	Spec = gen.Spec
	// Program is a synthesized benchmark: a control-flow graph with the
	// behavioural metadata the simulator needs.
	Program = program.Program
)

// Benchmarks returns the 16-benchmark suite of the paper's Table 1.
func Benchmarks() []Spec { return gen.Table1() }

// LookupBenchmark finds a Table 1 benchmark by name.
func LookupBenchmark(name string) (Spec, bool) { return gen.LookupSpec(name) }

// BuildProgram synthesizes one benchmark at the given word-address base.
func BuildProgram(spec Spec, base uint32) (*Program, error) { return gen.Build(spec, base) }

// Interpreter (internal/interp).
type (
	// Interp executes a Program deterministically; Interp.Run delivers the
	// dynamic event stream to a sink in batches of kind/A/B columns.
	Interp = interp.Interp
	// Collector is an event sink accumulating workload statistics.
	Collector = interp.Collector
)

// NewInterp returns an interpreter over p seeded with seed.
func NewInterp(p *Program, seed uint64) (*Interp, error) { return interp.New(p, seed) }

// NewCollector returns a statistics collector for p's event stream with the
// given epsilon histogram size.
func NewCollector(p *Program, epsBins int) *Collector { return interp.NewCollector(p, epsBins) }

// Delay-slot scheduling (internal/sched).
type (
	// Translation maps a program onto an architecture with B branch delay
	// slots with optional squashing.
	Translation = sched.Translation
)

// Translate builds the delay-slot translation of p for b branch delay
// slots.
func Translate(p *Program, b int) (*Translation, error) { return sched.Translate(p, b) }

// Caches (internal/cache).
type (
	// CacheConfig describes one cache (size in K-words, block size in
	// words, associativity, write policy).
	CacheConfig = cache.Config
	// Cache is a set-associative cache model with LRU replacement.
	Cache = cache.Cache
	// CacheBank is a fused bank of cache configurations: one probe
	// evaluates every configuration and returns a miss bitmask. The CPI
	// simulator runs its multi-configuration banks on this kernel.
	CacheBank = cache.Bank
)

// NewCache builds a cache.
func NewCache(cfg CacheConfig) (*Cache, error) { return cache.New(cfg) }

// NewCacheBank fuses up to 64 cache configurations into one single-pass
// bank.
func NewCacheBank(cfgs []CacheConfig) (*CacheBank, error) { return cache.NewBank(cfgs) }

// RefillPenalty returns the paper's refill penalty model: a 2-cycle startup
// plus blockWords/wordsPerCycle transfer cycles.
func RefillPenalty(blockWords, wordsPerCycle int) int {
	return cache.RefillPenalty(blockWords, wordsPerCycle)
}

// Branch-target buffer (internal/btb).
type (
	// BTBConfig describes a branch-target buffer.
	BTBConfig = btb.Config
	// BTB is the 2-bit-counter branch-target buffer of Section 3.1.
	BTB = btb.BTB
)

// NewBTB builds a branch-target buffer.
func NewBTB(cfg BTBConfig) (*BTB, error) { return btb.New(cfg) }

// PaperBTB returns the paper's 256-entry configuration.
func PaperBTB() BTBConfig { return btb.PaperConfig() }

// CPI simulation (internal/cpisim).
type (
	// SimConfig describes one simulation pass: delay slots, branch and
	// load schemes, and the banks of cache configurations evaluated
	// simultaneously.
	SimConfig = cpisim.Config
	// Sim is the multiprogrammed trace-driven CPI simulator (cacheSIM).
	Sim = cpisim.Sim
	// Workload is one process of the multiprogrammed mix.
	Workload = cpisim.Workload
	// SimResult is a run's per-benchmark cycle decomposition.
	SimResult = cpisim.Result
	// BenchResult is one benchmark's cycle decomposition.
	BenchResult = cpisim.BenchResult
	// BranchScheme selects static delayed branches or the BTB.
	BranchScheme = cpisim.BranchScheme
	// LoadScheme selects static or dynamic load-delay hiding.
	LoadScheme = cpisim.LoadScheme
)

// Branch and load scheme values.
const (
	BranchStatic = cpisim.BranchStatic
	BranchBTB    = cpisim.BranchBTB
	LoadStatic   = cpisim.LoadStatic
	LoadDynamic  = cpisim.LoadDynamic
)

// NewSim builds a CPI simulator over the workloads.
func NewSim(cfg SimConfig, ws []Workload) (*Sim, error) { return cpisim.New(cfg, ws) }

// Timing analysis (internal/timing).
type (
	// TimingModel bundles the SRAM/MCM macro-model (Equations 3-6) and
	// datapath delays; its methods run the minTcpu-style analyzer.
	TimingModel = timing.Model
	// TimingGraph is a latch-level timing graph whose MinPeriod is the
	// maximum cycle mean (ideal multiphase clocking).
	TimingGraph = timing.Graph
	// Floorplan is the Figure 10 MCM geometry.
	Floorplan = timing.Floorplan
)

// DefaultTimingModel returns the calibrated GaAs/MCM technology model.
func DefaultTimingModel() TimingModel { return timing.DefaultModel() }

// PlanFloor computes the Figure 10 floorplan for n chips.
func PlanFloor(chips int, pitchCm float64) Floorplan { return timing.PlanFloor(chips, pitchCm) }

// Experiments (internal/core).
type (
	// Suite is the synthesized benchmark suite with harmonic-mean weights.
	Suite = core.Suite
	// Params are the shared experiment parameters.
	Params = core.Params
	// Lab owns a suite plus memoized simulation passes; its methods
	// reproduce every table and figure of the paper.
	Lab = core.Lab
	// Query carries a design-space question's per-request coordinates
	// (miss-service time, replacement policy); Lab.Query returns the
	// lab's defaults.
	Query = core.Query
	// DesignPoint identifies one point of the design space (depths,
	// per-side sizes, load scheme).
	DesignPoint = core.DesignPoint
	// TPIPoint is one design point of the Section 5 analysis.
	TPIPoint = core.TPIPoint
	// Optimum is the best design found by a sweep.
	Optimum = core.Optimum
	// FigureResult is a family of curves rendered as a table plus chart.
	FigureResult = core.FigureResult
)

// BuildSuite synthesizes all benchmarks in specs.
func BuildSuite(specs []Spec) (*Suite, error) { return core.BuildSuite(specs) }

// DefaultParams returns the study's default experiment parameters.
func DefaultParams() Params { return core.DefaultParams() }

// NewLab wraps a suite with experiment parameters.
func NewLab(s *Suite, p Params) (*Lab, error) { return core.NewLab(s, p) }

// SummaryTable renders a set of TPI points.
func SummaryTable(title string, pts []TPIPoint) string { return core.SummaryTable(title, pts) }

// Observability (internal/obs).
type (
	// Registry is a run-scoped metric registry; attach one to a Lab
	// (SetObs) or a Sim (SetObs) to collect cache, BTB, interpreter, and
	// pass-timing metrics.
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time export of a Registry, with JSON
	// and text renderers.
	MetricsSnapshot = obs.Snapshot
	// Progress reports live sweep progress (points done/total, ETA).
	Progress = obs.Progress
)

// NewRegistry returns an empty metric registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// NewProgress returns a progress reporter writing to w.
func NewProgress(w io.Writer) *Progress { return obs.NewProgress(w) }

// Trace files and the event-trace tier (internal/trace).
type (
	// TraceRef is one reference record of the binary trace format.
	TraceRef = trace.Ref
	// TraceWriter streams references to a file in the PCT2 delta/varint
	// format.
	TraceWriter = trace.Writer
	// TraceReader reads a PCT2 trace file back.
	TraceReader = trace.Reader
	// TraceCapture is an event sink that records a process's reference
	// stream through a delay-slot translation.
	TraceCapture = trace.Capture
	// EventTrace is an in-memory columnar capture of a multiprogrammed
	// pass's interpreter event streams; a Sim replays it against any cache
	// configuration with bit-identical results (Sim.ReplayContext).
	EventTrace = trace.EventTrace
	// EventRecorder captures an EventTrace, teed into a live pass
	// (Sim.SetCapture); a Lab records its traces with its capture stage
	// instead, interpreters only (Lab.Capture).
	EventRecorder = trace.Recorder
	// EventStore is the bounded byte-budget LRU store of EventTraces with
	// single-flight capture that Lab uses as its second memo tier
	// (Params.TraceBudgetBytes, Lab.TraceStore).
	EventStore = trace.EventStore
)

// NewEventRecorder starts an event-trace capture for the given key and
// per-benchmark instruction budget.
func NewEventRecorder(key string, instsPerBench int64) *EventRecorder {
	return trace.NewRecorder(key, instsPerBench)
}

// NewEventStore returns a bounded event-trace store.
func NewEventStore(budgetBytes int64) *EventStore { return trace.NewStore(budgetBytes) }

// Program listings (internal/program).

// Disassemble writes an assembly listing of the program.
func Disassemble(p *Program, w io.Writer) error { return program.Disassemble(p, w) }

// ParseCircuit reads a textual latch-level circuit description for the
// timing analyzer (the cmd/mintcpu input format).
func ParseCircuit(r io.Reader) (*TimingGraph, error) { return timing.ParseCircuit(r) }

// CollectProfile measures a program's branch bias on a training run for
// profile-guided static prediction.
func CollectProfile(p *Program, seed uint64, insts int64) (*BranchProfile, error) {
	return sched.CollectProfile(p, seed, insts)
}

// TranslateProfiled is Translate with profile-guided branch direction
// selection.
func TranslateProfiled(p *Program, b int, prof *BranchProfile) (*Translation, error) {
	return sched.TranslateProfiled(p, b, prof)
}

// ApplySchedule writes the delay-slot schedule out as transformed code
// (hoisted CTIs, replicated delay-slot instructions, noops) alongside its
// translation tables.
func ApplySchedule(p *Program, b int) (*Program, *Translation, error) {
	return sched.Apply(p, b)
}

// BranchProfile holds per-block branch bias measured on a training run.
type BranchProfile = sched.Profile

// HTTP design-space service (internal/server).
type (
	// Server exposes a Lab over HTTP/JSON with a content-addressed result
	// cache, worker-pool backpressure, and live metrics (the `pipecache
	// serve` subsystem).
	Server = server.Server
	// ServerConfig tunes the HTTP service; zero values take the defaults.
	ServerConfig = server.Config
	// DesignRequest is the body of POST /v1/simulate.
	DesignRequest = server.DesignRequest
	// BestRequest is the body of POST /v1/best.
	BestRequest = server.BestRequest
	// BuildInfo identifies a deployed binary (module version, VCS
	// revision, toolchain).
	BuildInfo = server.BuildInfo
)

// NewServer wraps a Lab with the HTTP design-space service.
func NewServer(lab *Lab, cfg ServerConfig) (*Server, error) { return server.New(lab, cfg) }

// Sharded coordinator tier (internal/cluster).
type (
	// Coordinator fronts a fleet of Server backends: every request is
	// consistent-hashed onto one shard (keeping each shard's caches hot on
	// a stable slice of the key space) and the shard's answer is relayed
	// byte-identical to a single backend's (the `pipecache coordinate`
	// subsystem).
	Coordinator = cluster.Coordinator
	// CoordinatorConfig tunes the coordinator; zero values take the
	// defaults.
	CoordinatorConfig = cluster.Config
)

// NewCoordinator builds a coordinator over the configured shard fleet.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) { return cluster.New(cfg) }

// VersionInfo reads the running binary's build metadata.
func VersionInfo() BuildInfo { return server.VersionInfo() }

// Baked surfaces (internal/surface).
type (
	// Surface is a decoded PSF2 artifact pinned in memory: the lab's five
	// default-policy simulation passes and Table 1. A Server configured
	// with one seeds its lab's pass memo from it, so no default-policy
	// request runs a simulation.
	Surface = surface.Surface
	// SurfaceData is the decoded (or to-be-encoded) content of a surface:
	// what BakeSurface produces and EncodeSurface serializes.
	SurfaceData = surface.Data
)

// BakeSurface runs lab's default passes and Table 1's probe (or reads them
// from its memo) into a SurfaceData ready for EncodeSurface. The bake is
// deterministic at any Params.SweepWorkers.
func BakeSurface(ctx context.Context, lab *Lab) (*SurfaceData, error) {
	return surface.Bake(ctx, lab)
}

// EncodeSurface serializes a baked surface into the PSF2 byte format.
func EncodeSurface(d *SurfaceData) ([]byte, error) { return surface.Encode(d) }

// DecodeSurface parses and validates a PSF2 surface.
func DecodeSurface(b []byte) (*Surface, error) { return surface.Decode(b) }

// LoadSurface reads and decodes a surface file.
func LoadSurface(path string) (*Surface, error) { return surface.Load(path) }
