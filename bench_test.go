package pipecache

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, each printing the rows/series it reproduces (compare against
// EXPERIMENTS.md), plus microbenchmarks of the simulator substrate.
//
// The full 16-benchmark suite is synthesized once per test binary; the
// per-pass instruction budget defaults to 300k per benchmark and can be
// raised with PIPECACHE_BENCH_INSTS for full-fidelity runs:
//
//	PIPECACHE_BENCH_INSTS=2000000 go test -bench=. -benchtime=1x

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"testing"
)

var (
	benchOnce sync.Once
	benchLab  *Lab
	benchErr  error
)

func lab(b *testing.B) *Lab {
	b.Helper()
	benchOnce.Do(func() {
		insts := int64(300_000)
		if s := os.Getenv("PIPECACHE_BENCH_INSTS"); s != "" {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				benchErr = fmt.Errorf("bad PIPECACHE_BENCH_INSTS: %v", err)
				return
			}
			insts = v
		}
		suite, err := BuildSuite(Benchmarks())
		if err != nil {
			benchErr = err
			return
		}
		p := DefaultParams()
		p.Insts = insts
		benchLab, benchErr = NewLab(suite, p)
		if benchErr == nil {
			benchErr = benchLab.Prewarm()
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchLab
}

// report prints the reproduced table/figure once per benchmark run.
func report(b *testing.B, v fmt.Stringer) {
	b.Helper()
	b.StopTimer()
	if !testing.Verbose() {
		fmt.Println(v)
	} else {
		b.Log("\n" + v.String())
	}
	b.StartTimer()
}

func BenchmarkTable1_BenchmarkMix(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable2_CodeExpansion(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable3_StaticBranchPrediction(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table3()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable4_BTB(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable5_LoadDelayCPI(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkTable6_CycleTimes(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure3_BranchSlotsMissCPI(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure3(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure4_CPIvsICacheSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure4(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure5_CPIvsTcpu(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure6_EpsilonUnrestricted(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure7_EpsilonRestricted(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure8_CPIvsDCacheSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure8(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure9_TPIvsDCacheSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure10_Floorplan(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r := l.Figure10()
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure11_RelativeCPI(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure11(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkFigure12_TPIOptimum(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
			opt, err := l.Best(context.Background(), l.Query(), LoadStatic, false)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			fmt.Printf("optimum: %s\n\n", opt.Best)
			b.StartTimer()
		}
	}
}

func BenchmarkFigure13_TPILowPenalty(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
			q := l.Query()
			q.L2TimeNs *= 0.6
			opt, err := l.Best(context.Background(), q, LoadStatic, false)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			fmt.Printf("optimum (low penalty): %s\n\n", opt.Best)
			b.StartTimer()
		}
	}
}

// ---- Substrate microbenchmarks ----

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per second through the interpreter + caches + delay accounting.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := LookupBenchmark("espresso")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{
		BranchSlots: 2,
		LoadSlots:   2,
		ICaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
		DCaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
	}
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(cfg, []Workload{{Prog: prog, Seed: spec.Seed, Weight: 1}})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(200_000)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Benches[0].Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSimInstrumented is BenchmarkSimulatorThroughput with a metrics
// registry attached: the delta between the two insts/s figures is the cost
// of observability. The hot loop keeps its plain per-pass stats structs and
// folds them into the registry once at the end of Run, so the delta should
// be in the noise (see TestInstrumentationOverhead).
func BenchmarkSimInstrumented(b *testing.B) {
	spec, _ := LookupBenchmark("espresso")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := SimConfig{
		BranchSlots: 2,
		LoadSlots:   2,
		ICaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
		DCaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
	}
	reg := NewRegistry()
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(cfg, []Workload{{Prog: prog, Seed: spec.Seed, Weight: 1}})
		if err != nil {
			b.Fatal(err)
		}
		sim.SetObs(reg)
		res, err := sim.Run(200_000)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Benches[0].Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// replayFixture captures one 200k-instruction espresso event trace,
// shared by the replay benchmarks below.
var (
	replayFixOnce sync.Once
	replayFixCfg  SimConfig
	replayFixWs   []Workload
	replayFixTr   *EventTrace
	replayFixErr  error
)

const replayFixInsts = 200_000

func replayFixture(b *testing.B) (SimConfig, []Workload, *EventTrace) {
	b.Helper()
	replayFixOnce.Do(func() {
		spec, _ := LookupBenchmark("espresso")
		prog, err := BuildProgram(spec, 0)
		if err != nil {
			replayFixErr = err
			return
		}
		replayFixCfg = SimConfig{
			BranchSlots: 2,
			LoadSlots:   2,
			ICaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
			DCaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
		}
		replayFixWs = []Workload{{Prog: prog, Seed: spec.Seed, Weight: 1}}
		capSim, err := NewSim(replayFixCfg, replayFixWs)
		if err != nil {
			replayFixErr = err
			return
		}
		rec := NewEventRecorder("bench", replayFixInsts)
		capSim.SetCapture(rec)
		if _, err := capSim.Run(replayFixInsts); err != nil {
			replayFixErr = err
			return
		}
		replayFixTr = rec.Finish()
	})
	if replayFixErr != nil {
		b.Fatal(replayFixErr)
	}
	return replayFixCfg, replayFixWs, replayFixTr
}

// BenchmarkTraceReplay measures the sequential replay kernel: one full
// espresso pass per iteration over a pre-captured event trace, through
// the compiled chunk plans and the lane-packed banks. The insts/s metric
// is the headline replay throughput (compare BENCH_sim.json).
func BenchmarkTraceReplay(b *testing.B) {
	cfg, ws, tr := replayFixture(b)
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(cfg, ws)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Replay(replayFixInsts, tr)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Benches[0].Insts
		sim.Release()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkCacheAccess measures the raw cache model: the direct-mapped
// fast path against the LRU set-search paths.
func BenchmarkCacheAccess(b *testing.B) {
	for _, v := range []struct {
		name  string
		assoc int
	}{
		{"direct", 1},
		{"2way", 2},
		{"4way", 4},
	} {
		b.Run(v.name, func(b *testing.B) {
			c, err := NewCache(CacheConfig{SizeKW: 8, BlockWords: 4, Assoc: v.assoc, WriteBack: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(uint32(i*7)&0xfffff, i&7 == 0)
			}
		})
	}
}

// BenchmarkCacheBankAccess measures the fused single-pass kernel over the
// study's full power-of-two size ladder: one probe evaluates all six
// configurations at once against the lane-packed tag table. The
// ns/probe/config metric normalizes by the ladder width, so it compares
// directly against BenchmarkCacheAccess's per-cache ns/op whatever the
// ladder size.
func BenchmarkCacheBankAccess(b *testing.B) {
	var cfgs []CacheConfig
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		cfgs = append(cfgs, CacheConfig{SizeKW: s, BlockWords: 4, Assoc: 1, WriteBack: true})
	}
	bank, err := NewCacheBank(cfgs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bank.Access(uint32(i*7)&0xfffff, i&7 == 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cfgs)), "ns/probe/config")
}

// BenchmarkBTBResolve measures the branch-target buffer.
func BenchmarkBTBResolve(b *testing.B) {
	buf, err := NewBTB(PaperBTB())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := uint32(i*13) & 0xffff
		buf.Resolve(pc, i&3 != 0, pc+64)
	}
}

// BenchmarkInterp measures the bare interpreter event stream.
func BenchmarkInterp(b *testing.B) {
	spec, _ := LookupBenchmark("loops")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	it, err := NewInterp(prog, 1)
	if err != nil {
		b.Fatal(err)
	}
	c := NewCollector(prog, 8)
	b.ResetTimer()
	it.Run(int64(b.N), c)
}

// BenchmarkTimingAnalyzer measures the Karp max-cycle-mean solver on the
// CPU graph.
func BenchmarkTimingAnalyzer(b *testing.B) {
	m := DefaultTimingModel()
	for i := 0; i < b.N; i++ {
		if _, err := m.TCPU(32, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslate measures the delay-slot post-processor on a full
// benchmark image.
func BenchmarkTranslate(b *testing.B) {
	spec, _ := LookupBenchmark("gcc")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Translate(prog, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benchmarks (the paper's extensions and future work) ----

func BenchmarkAblation_Associativity(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.AssocStudy(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_BlockSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.BlockSizeStudy(8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_TwoLevel(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.TwoLevelStudy(4, []int{32, 64, 128, 256, 512}, 6, 40)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_WritePolicy(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.WritePolicyStudy(10)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkPolicyStudy(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.PolicyStudy(4, 2)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_BTBSize(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.BTBSizeStudy([]int{64, 256, 1024, 4096})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_ProfilePrediction(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.ProfileStudy()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_Quantum(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.QuantumStudy(8, 10, []int64{2000, 20000, 100000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

func BenchmarkAblation_Stability(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.StabilityStudy([]uint64{0, 0xA5A5, 0x5A5A})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
			b.StopTimer()
			fmt.Printf("optimal depths agree across seeds: %v\n\n", r.DepthsAgree())
			b.StartTimer()
		}
	}
}

func BenchmarkDepthMatrix(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.DepthMatrix(l.P.L2TimeNs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
			b.StopTimer()
			fmt.Printf("b = l diagonal optimal: %v\n\n", r.DiagonalOptimal(0.05))
			b.StartTimer()
		}
	}
}

func BenchmarkAsymmetricSplits(b *testing.B) {
	l := lab(b)
	for i := 0; i < b.N; i++ {
		r, err := l.AsymmetryStudy(l.P.L2TimeNs * 0.6)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			report(b, r)
		}
	}
}

// BenchmarkLabBest times the design-point layer under a warm /v1/best:
// Lab.Best over the 576 dynamic-load candidates at a fresh miss-service
// time on a lab whose passes are memoized, with no HTTP around it.
func BenchmarkLabBest(b *testing.B) {
	l := lab(b)
	ctx := context.Background()
	if _, err := l.Best(ctx, l.Query(), LoadDynamic, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := l.Query()
		q.L2TimeNs += float64(i+1) * 1e-6
		if _, err := l.Best(ctx, q, LoadDynamic, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSurfaceLookup measures one /v1/simulate answer served from a
// baked surface, end to end through the HTTP handler (decode, index,
// marshal, ETag). Compare against BenchmarkSimulatorThroughput: the baked
// path replaces a full simulation pass with an index-and-read, so it should
// be several orders of magnitude cheaper per request.
func BenchmarkSurfaceLookup(b *testing.B) {
	l := lab(b)
	d, err := BakeSurface(context.Background(), l)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := EncodeSurface(d)
	if err != nil {
		b.Fatal(err)
	}
	sf, err := DecodeSurface(enc)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(l, ServerConfig{Surface: sf, AccessLog: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	body := []byte(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
