// Command benchjson runs the simulator's headline microbenchmarks through
// testing.Benchmark and writes a machine-readable summary, so CI can
// archive per-commit performance (make bench-json -> BENCH_sim.json)
// without parsing `go test -bench` text output.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"pipecache"
)

// benchRecord is one benchmark's summary row. NsPerProbeConfig is the
// lane-pack figure of merit — bank ns/op normalized by ladder width.
type benchRecord struct {
	Name             string  `json:"name"`
	Iterations       int     `json:"iterations"`
	NsPerOp          float64 `json:"ns_per_op"`
	InstsPerSec      float64 `json:"insts_per_sec,omitempty"`
	NsPerProbeConfig float64 `json:"ns_per_probe_config,omitempty"`
}

// speedupRecord relates two benchmark rows (baseline ns / against ns).
type speedupRecord struct {
	Name     string  `json:"name"`
	Baseline string  `json:"baseline"`
	Against  string  `json:"against"`
	Speedup  float64 `json:"speedup"`
}

// report is the BENCH_sim.json schema. Every row ran at the report's
// GOMAXPROCS on a host with Nproc logical CPUs.
type report struct {
	Schema     string          `json:"schema"`
	Go         string          `json:"go"`
	Nproc      int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	Insts      int64           `json:"insts"`
	Benchmarks []benchRecord   `json:"benchmarks"`
	Speedups   []speedupRecord `json:"speedups,omitempty"`
}

// simBench mirrors the root package's BenchmarkSimulatorThroughput /
// BenchmarkSimInstrumented: one full espresso pass per iteration through
// the fused cache banks, optionally with a metrics registry attached.
func simBench(insts int64, instrumented bool) (func(b *testing.B) int64, error) {
	spec, ok := pipecache.LookupBenchmark("espresso")
	if !ok {
		return nil, fmt.Errorf("espresso benchmark missing")
	}
	prog, err := pipecache.BuildProgram(spec, 0)
	if err != nil {
		return nil, err
	}
	cfg := pipecache.SimConfig{
		BranchSlots: 2,
		LoadSlots:   2,
		ICaches:     []pipecache.CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
		DCaches:     []pipecache.CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
	}
	reg := pipecache.NewRegistry()
	return func(b *testing.B) int64 {
		var total int64
		for i := 0; i < b.N; i++ {
			sim, err := pipecache.NewSim(cfg, []pipecache.Workload{{Prog: prog, Seed: spec.Seed, Weight: 1}})
			if err != nil {
				b.Fatal(err)
			}
			if instrumented {
				sim.SetObs(reg)
			}
			res, err := sim.Run(insts)
			if err != nil {
				b.Fatal(err)
			}
			total += res.Benches[0].Insts
		}
		return total
	}, nil
}

// replayBench mirrors the throughput benchmark but replays a pre-captured
// event trace instead of interpreting: the speedup against
// BenchmarkSimulatorThroughput is the per-pass win of the capture/replay
// tier.
func replayBench(insts int64) (func(b *testing.B) int64, error) {
	spec, ok := pipecache.LookupBenchmark("espresso")
	if !ok {
		return nil, fmt.Errorf("espresso benchmark missing")
	}
	prog, err := pipecache.BuildProgram(spec, 0)
	if err != nil {
		return nil, err
	}
	cfg := pipecache.SimConfig{
		BranchSlots: 2,
		LoadSlots:   2,
		ICaches:     []pipecache.CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
		DCaches:     []pipecache.CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
	}
	ws := []pipecache.Workload{{Prog: prog, Seed: spec.Seed, Weight: 1}}
	capSim, err := pipecache.NewSim(cfg, ws)
	if err != nil {
		return nil, err
	}
	rec := pipecache.NewEventRecorder("bench", insts)
	capSim.SetCapture(rec)
	if _, err := capSim.Run(insts); err != nil {
		return nil, err
	}
	tr := rec.Finish()
	return func(b *testing.B) int64 {
		var total int64
		for i := 0; i < b.N; i++ {
			sim, err := pipecache.NewSim(cfg, ws)
			if err != nil {
				b.Fatal(err)
			}
			res, err := sim.Replay(insts, tr)
			if err != nil {
				b.Fatal(err)
			}
			total += res.Benches[0].Insts
			sim.Release()
		}
		return total
	}, nil
}

// gccYacc builds the two-benchmark suite the serving, ablation and
// design-point rows run on.
func gccYacc() (*pipecache.Suite, error) {
	var specs []pipecache.Spec
	for _, name := range []string{"gcc", "yacc"} {
		s, ok := pipecache.LookupBenchmark(name)
		if !ok {
			return nil, fmt.Errorf("benchmark %s missing", name)
		}
		specs = append(specs, s)
	}
	return pipecache.BuildSuite(specs)
}

// surfaceBench serves one baked /v1/simulate request per iteration through
// the HTTP handler — body decode, design-space index, marshal, ETag. The
// speedup against BenchmarkSimulatorThroughput is the per-request win of
// the baked-surface tier: an index-and-read where the live path runs a full
// simulation pass.
func surfaceBench(insts int64) (func(b *testing.B) int64, error) {
	suite, err := gccYacc()
	if err != nil {
		return nil, err
	}
	p := pipecache.DefaultParams()
	p.Insts = insts
	lab, err := pipecache.NewLab(suite, p)
	if err != nil {
		return nil, err
	}
	lab.SetObs(pipecache.NewRegistry())
	d, err := pipecache.BakeSurface(context.Background(), lab)
	if err != nil {
		return nil, err
	}
	enc, err := pipecache.EncodeSurface(d)
	if err != nil {
		return nil, err
	}
	sf, err := pipecache.DecodeSurface(enc)
	if err != nil {
		return nil, err
	}
	srv, err := pipecache.NewServer(lab, pipecache.ServerConfig{Surface: sf, AccessLog: io.Discard})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	body := []byte(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}`)
	return func(b *testing.B) int64 {
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != 200 {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		return 0
	}, nil
}

// ablationSuite runs the extension studies end to end on a fresh lab per
// iteration — result memos cold every time — so the pair measures the
// tier's wall-time win on the real ablation workload. The replay variant
// shares one bounded event-trace store across iterations, the way the
// stability study and a long-running server do: the tier's design point
// is capture once, replay many, so the steady state it is benchmarked in
// is a warm store (capture and plan compilation run once during setup,
// outside the measured window).
func ablationSuite(insts int64, replay bool) (func(b *testing.B) int64, error) {
	suite, err := gccYacc()
	if err != nil {
		return nil, err
	}
	var store *pipecache.EventStore
	if replay {
		store = pipecache.NewEventStore(256 << 20)
	}
	oneIter := func(fail func(...any)) {
		p := pipecache.DefaultParams()
		p.Insts = insts
		p.TraceBudgetBytes = -1 // the shared store below, or disabled
		lab, err := pipecache.NewLab(suite, p)
		if err != nil {
			fail(err)
		}
		lab.SetTraceStore(store)
		lab.SetObs(pipecache.NewRegistry())
		if err := lab.Prewarm(); err != nil {
			fail(err)
		}
		if _, err := lab.AssocStudy(8); err != nil {
			fail(err)
		}
		if _, err := lab.BlockSizeStudy(8); err != nil {
			fail(err)
		}
		if _, err := lab.WritePolicyStudy(10); err != nil {
			fail(err)
		}
		if _, err := lab.BTBSizeStudy([]int{64, 256, 1024}); err != nil {
			fail(err)
		}
		if _, err := lab.ProfileStudy(); err != nil {
			fail(err)
		}
		if _, err := lab.QuantumStudy(8, 10, []int64{2_000, 20_000, 100_000}); err != nil {
			fail(err)
		}
	}
	if replay {
		// Warm the shared store before measurement: capture every trace
		// and compile every chunk plan once, so the measured window holds
		// only steady-state replay iterations.
		var warmErr error
		oneIter(func(args ...any) { warmErr = fmt.Errorf("%v", args[0]) })
		if warmErr != nil {
			return nil, warmErr
		}
	}
	return func(b *testing.B) int64 {
		for i := 0; i < b.N; i++ {
			oneIter(b.Fatal)
		}
		return 0
	}, nil
}

// policyStudyBench runs the replacement-policy ablation end to end on a
// fresh lab per iteration — memos cold every time — so the row prices the
// per-policy bank construction plus the FIFO and Tree-PLRU probe kernels
// on the real set-associative study workload, next to the LRU pass they
// must not slow down.
func policyStudyBench(insts int64) (func(b *testing.B) int64, error) {
	suite, err := gccYacc()
	if err != nil {
		return nil, err
	}
	return func(b *testing.B) int64 {
		for i := 0; i < b.N; i++ {
			p := pipecache.DefaultParams()
			p.Insts = insts
			p.TraceBudgetBytes = -1
			lab, err := pipecache.NewLab(suite, p)
			if err != nil {
				b.Fatal(err)
			}
			lab.SetObs(pipecache.NewRegistry())
			if _, err := lab.PolicyStudy(4, 2); err != nil {
				b.Fatal(err)
			}
		}
		return 0
	}, nil
}

// labBestBench is the design-point layer under bestBench's stream:
// Lab.Best over the 576 dynamic-load candidates at a fresh l2 time per
// iteration on a lab with every pass warm, with no HTTP around it, so
// BenchmarkServerBest splits into this row plus the serving layers.
func labBestBench(insts int64) (func(b *testing.B) int64, error) {
	suite, err := gccYacc()
	if err != nil {
		return nil, err
	}
	p := pipecache.DefaultParams()
	p.Insts = insts
	lab, err := pipecache.NewLab(suite, p)
	if err != nil {
		return nil, err
	}
	lab.SetObs(pipecache.NewRegistry())
	ctx := context.Background()
	// One optimization warms every pass the stream needs.
	if _, err := lab.Best(ctx, lab.Query(), pipecache.LoadDynamic, false); err != nil {
		return nil, err
	}
	var seq int64
	return func(b *testing.B) int64 {
		for i := 0; i < b.N; i++ {
			seq++
			q := lab.Query()
			q.L2TimeNs = 35 + float64(seq)*1e-6
			if _, err := lab.Best(ctx, q, pipecache.LoadDynamic, false); err != nil {
				b.Fatal(err)
			}
		}
		return 0
	}, nil
}

// bestBench times a stream of /v1/best requests, each at a fresh
// l2_time_ns so it misses every result cache on the path. shards == 0
// sends the stream straight to one server's handler; otherwise a
// coordinator fronts that many backend servers over loopback HTTP and
// proxies each request to the shard its key routes to. The simulation
// passes are l2-independent and prewarmed on every backend out of the
// loop, so the measured op is one backend's fresh-L2 optimization plus,
// behind a coordinator, the proxy hop.
func bestBench(insts int64, shards int) (func(b *testing.B) int64, error) {
	suite, err := gccYacc()
	if err != nil {
		return nil, err
	}
	p := pipecache.DefaultParams()
	p.Insts = insts
	post := func(h http.Handler, body string) (int, string) {
		req := httptest.NewRequest("POST", "/v1/best", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	var h http.Handler
	var urls []string
	for i := 0; i < max(shards, 1); i++ {
		lab, err := pipecache.NewLab(suite, p)
		if err != nil {
			return nil, err
		}
		lab.SetObs(pipecache.NewRegistry())
		srv, err := pipecache.NewServer(lab, pipecache.ServerConfig{AccessLog: io.Discard})
		if err != nil {
			return nil, err
		}
		h = srv.Handler()
		// One optimization warms every (b, scheme) pass the stream needs.
		if code, body := post(h, `{"loads":"dynamic","l2_time_ns":34.5}`); code != 200 {
			return nil, fmt.Errorf("server warmup: status %d: %s", code, body)
		}
		if shards > 0 {
			urls = append(urls, httptest.NewServer(h).URL)
		}
	}
	if len(urls) > 0 {
		coord, err := pipecache.NewCoordinator(pipecache.CoordinatorConfig{
			Shards:    urls,
			Params:    p,
			AccessLog: io.Discard,
			// A hedge firing mid-iteration would double a shard's work and
			// measure the policy, not the proxy.
			HedgeAfter: time.Minute,
		})
		if err != nil {
			return nil, err
		}
		h = coord.Handler()
	}
	// seq outlives the closure so re-runs at larger b.N never repeat an
	// l2_time_ns and sneak a result-cache hit into the timings.
	var seq int64
	return func(b *testing.B) int64 {
		for i := 0; i < b.N; i++ {
			seq++
			body := fmt.Sprintf(`{"loads":"dynamic","l2_time_ns":%.6f}`, 35+float64(seq)*1e-6)
			if code, rb := post(h, body); code != 200 {
				b.Fatalf("status %d: %s", code, rb)
			}
		}
		return 0
	}, nil
}

// run measures one benchmark, deriving insts/s from the executed count
// when the body reports one.
func run(name string, body func(b *testing.B) int64) benchRecord {
	var executed int64
	r := testing.Benchmark(func(b *testing.B) {
		executed = body(b)
	})
	rec := benchRecord{
		Name:       name,
		Iterations: r.N,
		NsPerOp:    float64(r.T.Nanoseconds()) / float64(r.N),
	}
	if executed > 0 && r.T > 0 {
		rec.InstsPerSec = float64(executed) / r.T.Seconds()
	}
	fmt.Fprintf(os.Stderr, "%-28s %12.0f ns/op", rec.Name, rec.NsPerOp)
	if rec.InstsPerSec > 0 {
		fmt.Fprintf(os.Stderr, " %14.0f insts/s", rec.InstsPerSec)
	}
	fmt.Fprintln(os.Stderr)
	return rec
}

func main() {
	testing.Init()
	out := flag.String("o", "BENCH_sim.json", "output file")
	insts := flag.Int64("insts", 200_000, "instructions per simulator benchmark iteration")
	benchtime := flag.String("benchtime", "3s", "measurement time per benchmark (test.benchtime)")
	replayFloor := flag.Float64("replay-floor", 0,
		"fail (exit 1) if BenchmarkTraceReplay falls below this insts/s floor; 0 disables the guard")
	flag.Parse()
	// The ablation-suite benchmarks take hundreds of ms per iteration; the
	// default 1s window measures so few iterations that the recorded
	// speedups wobble by several percent run to run.
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	rep := report{
		Schema:     "pipecache-bench/v1",
		Go:         runtime.Version(),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Insts:      *insts,
	}

	throughput, err := simBench(*insts, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	instrumented, err := simBench(*insts, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	replay, err := replayBench(*insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	live := run("BenchmarkSimulatorThroughput", throughput)
	replayed := run("BenchmarkTraceReplay", replay)
	rep.Benchmarks = append(rep.Benchmarks,
		live,
		run("BenchmarkSimInstrumented", instrumented),
		replayed,
	)
	rep.Speedups = append(rep.Speedups, speedupRecord{
		Name:     "trace_replay_vs_live_pass",
		Baseline: live.Name,
		Against:  replayed.Name,
		Speedup:  live.NsPerOp / replayed.NsPerOp,
	})

	surfaceFn, err := surfaceBench(*insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	lookup := run("BenchmarkSurfaceLookup", surfaceFn)
	rep.Benchmarks = append(rep.Benchmarks, lookup)
	rep.Speedups = append(rep.Speedups, speedupRecord{
		Name:     "surface_lookup_vs_live_pass",
		Baseline: live.Name,
		Against:  lookup.Name,
		Speedup:  live.NsPerOp / lookup.NsPerOp,
	})

	ablLive, err := ablationSuite(*insts, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	ablReplay, err := ablationSuite(*insts, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	ablLiveRec := run("BenchmarkAblationSuite/live", ablLive)
	ablReplayRec := run("BenchmarkAblationSuite/replay", ablReplay)
	rep.Benchmarks = append(rep.Benchmarks, ablLiveRec, ablReplayRec)
	rep.Speedups = append(rep.Speedups, speedupRecord{
		Name:     "ablation_suite_replay_vs_live",
		Baseline: ablLiveRec.Name,
		Against:  ablReplayRec.Name,
		Speedup:  ablLiveRec.NsPerOp / ablReplayRec.NsPerOp,
	})

	policyFn, err := policyStudyBench(*insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Benchmarks = append(rep.Benchmarks, run("BenchmarkPolicyStudy", policyFn))

	cacheCfg := pipecache.CacheConfig{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}
	rep.Benchmarks = append(rep.Benchmarks, run("BenchmarkCacheAccess/direct", func(b *testing.B) int64 {
		c, err := pipecache.NewCache(cacheCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Access(uint32(i*7)&0xfffff, i&7 == 0)
		}
		return 0
	}))

	var ladder []pipecache.CacheConfig
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		ladder = append(ladder, pipecache.CacheConfig{SizeKW: s, BlockWords: 4, Assoc: 1, WriteBack: true})
	}
	bankRec := run("BenchmarkCacheBankAccess", func(b *testing.B) int64 {
		bank, err := pipecache.NewCacheBank(ladder)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bank.Access(uint32(i*7)&0xfffff, i&7 == 0)
		}
		return 0
	})
	// The lane-pack figure of merit: one fused probe evaluates the whole
	// ladder, so normalize by its width to compare against the per-cache
	// BenchmarkCacheAccess row.
	bankRec.NsPerProbeConfig = bankRec.NsPerOp / float64(len(ladder))
	rep.Benchmarks = append(rep.Benchmarks, bankRec)

	labBestFn, err := labBestBench(*insts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	rep.Benchmarks = append(rep.Benchmarks, run("BenchmarkLabBest", labBestFn))

	var bestRecs []benchRecord
	for _, c := range []struct {
		name   string
		shards int
	}{{"BenchmarkServerBest", 0}, {"BenchmarkCoordinatorBest", 2}} {
		fn, err := bestBench(*insts, c.shards)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		bestRecs = append(bestRecs, run(c.name, fn))
	}
	rep.Benchmarks = append(rep.Benchmarks, bestRecs...)
	// The coordinator's proxy overhead: below 1 by the cost of its hop.
	rep.Speedups = append(rep.Speedups, speedupRecord{
		Name:     "coordinator_vs_single_node",
		Baseline: bestRecs[0].Name,
		Against:  bestRecs[1].Name,
		Speedup:  bestRecs[0].NsPerOp / bestRecs[1].NsPerOp,
	})

	f, err := os.Create(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	// The regression guard runs after the report is written, so a failing
	// run still archives its numbers for inspection.
	if *replayFloor > 0 && replayed.InstsPerSec < *replayFloor {
		fmt.Fprintf(os.Stderr, "benchjson: %s at %.0f insts/s is below the floor of %.0f insts/s\n",
			replayed.Name, replayed.InstsPerSec, *replayFloor)
		os.Exit(1)
	}
}
