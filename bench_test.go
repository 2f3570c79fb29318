package pipecache

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, each printing the rows/series it reproduces (compare against
// EXPERIMENTS.md), microbenchmarks of the simulator substrate, and the
// rows of BENCH_sim.json.
//
// The full 16-benchmark suite is synthesized once per test binary; the
// per-pass instruction budget defaults to 300k per benchmark and can be
// raised with PIPECACHE_BENCH_INSTS for full-fidelity runs:
//
//	PIPECACHE_BENCH_INSTS=2000000 go test -bench=. -benchtime=1x
//
// The ledger rows run on fixed fixtures instead: espresso or gcc+yacc at
// ledgerInsts instructions each. cmd/benchjson runs them through go test
// -bench and records the result (make bench-json).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/trace"
)

// ledgerInsts is the per-benchmark instruction budget of every ledger
// fixture, the "insts" of BENCH_sim.json.
const ledgerInsts = 200_000

// fixture returns the value get builds once per test binary, failing b if
// the build failed.
func fixture[T any](b *testing.B, get func() (T, error)) T {
	b.Helper()
	v, err := get()
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// paperLab is the paper benchmarks' lab: the full suite at
// PIPECACHE_BENCH_INSTS instructions per benchmark, prewarmed.
var paperLab = sync.OnceValues(func() (*Lab, error) {
	insts := int64(300_000)
	if s := os.Getenv("PIPECACHE_BENCH_INSTS"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad PIPECACHE_BENCH_INSTS: %v", err)
		}
		insts = v
	}
	suite, err := BuildSuite(Benchmarks())
	if err != nil {
		return nil, err
	}
	p := DefaultParams()
	p.Insts = insts
	l, err := NewLab(suite, p)
	if err != nil {
		return nil, err
	}
	return l, l.Prewarm()
})

func lab(b *testing.B) *Lab { return fixture(b, paperLab) }

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

// espressoFixture is the simulator rows' fixture: espresso under an 8 KW
// split L1 with two branch and two load slots, and one ledgerInsts event
// trace of it.
type espressoFixture struct {
	cfg SimConfig
	ws  []Workload
	tr  *EventTrace
}

var espresso = sync.OnceValues(func() (espressoFixture, error) {
	spec, _ := LookupBenchmark("espresso")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		return espressoFixture{}, err
	}
	f := espressoFixture{
		cfg: SimConfig{
			BranchSlots: 2,
			LoadSlots:   2,
			ICaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
			DCaches:     []CacheConfig{{SizeKW: 8, BlockWords: 4, Assoc: 1, WriteBack: true}},
		},
		ws: []Workload{{Prog: prog, Seed: spec.Seed, Weight: 1}},
	}
	sim, err := NewSim(f.cfg, f.ws)
	if err != nil {
		return espressoFixture{}, err
	}
	rec := NewEventRecorder("bench", ledgerInsts)
	sim.SetCapture(rec)
	if _, err := sim.Run(ledgerInsts); err != nil {
		return espressoFixture{}, err
	}
	f.tr = rec.Finish()
	return f, nil
})

// livePasses runs one full espresso pass per iteration through the
// interpreter, the fused cache banks and the delay accounting, with reg
// attached when it is not nil, and reports insts/s.
func livePasses(b *testing.B, reg *Registry) {
	f := fixture(b, espresso)
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(f.cfg, f.ws)
		if err != nil {
			b.Fatal(err)
		}
		if reg != nil {
			sim.SetObs(reg)
		}
		res, err := sim.Run(ledgerInsts)
		if err != nil {
			b.Fatal(err)
		}
		insts += res.Benches[0].Insts
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkSimulatorThroughput measures end-to-end simulated instructions
// per second through the interpreter + caches + delay accounting.
func BenchmarkSimulatorThroughput(b *testing.B) { livePasses(b, nil) }

// BenchmarkSimInstrumented is BenchmarkSimulatorThroughput with a metrics
// registry attached: the delta between the two insts/s figures is the cost
// of observability. The hot loop keeps its plain per-pass stats structs and
// folds them into the registry once at the end of Run, so the delta should
// be in the noise (see TestInstrumentationOverhead).
func BenchmarkSimInstrumented(b *testing.B) { livePasses(b, NewRegistry()) }

// BenchmarkTraceReplay measures the sequential replay kernel: one full
// espresso pass per iteration over a pre-captured event trace, through
// the compiled chunk plans and the lane-packed banks. The insts/s metric
// is the headline replay throughput; the speedup over
// BenchmarkSimulatorThroughput is the per-pass win of the capture/replay
// tier.
func BenchmarkTraceReplay(b *testing.B) {
	f := fixture(b, espresso)
	b.ResetTimer()
	var total int64
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(f.cfg, f.ws)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Replay(ledgerInsts, f.tr)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Benches[0].Insts
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkCacheAccess measures the Cache oracle, one 8 KW cache per side
// (direct-mapped, 2-way and 4-way LRU), replaying the ledger reference
// stream BenchmarkCacheBankAccess replays, so the two compare directly: a
// range probe is one access to its first word (the rest of the run lies in
// the same block, so the cache ends in the same state), a data probe one
// access. ns/op is per probe per cache, the unit of the bank rows'
// ns/probe/config; misses/probe is the miss ratio the row runs at.
func BenchmarkCacheAccess(b *testing.B) {
	probes := fixture(b, ledgerProbes)
	for _, v := range []struct {
		name  string
		assoc int
	}{
		{"direct", 1},
		{"2way", 2},
		{"4way", 4},
	} {
		b.Run(v.name, func(b *testing.B) {
			cfg := CacheConfig{SizeKW: 8, BlockWords: 4, Assoc: v.assoc, WriteBack: true}
			ic, err := NewCache(cfg)
			if err != nil {
				b.Fatal(err)
			}
			dc, err := NewCache(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(probes) {
					j = 0
				}
				p := &probes[j]
				if p.n != 0 {
					ic.Access(p.addr, false)
				} else {
					dc.Access(p.addr, p.store)
				}
			}
			b.StopTimer()
			is, ds := ic.Stats(), dc.Stats()
			b.ReportMetric(float64(is.Misses()+ds.Misses())/float64(b.N), "misses/probe")
		})
	}
}

// bankProbe is one probe of a captured reference stream: a range read of
// n consecutive instruction words, or (n == 0) one data reference.
type bankProbe struct {
	addr  uint32
	n     uint8
	store bool
}

// ledgerProbes is the bank rows' reference stream: gcc and yacc at
// ledgerInsts instructions each, captured with trace.Capture through the
// two-slot delay-slot translation and read back as the probes a replay
// makes. Consecutive instruction words within one 4-word block are one
// range probe, as cpisim's fetch runs are; each data reference is one
// probe.
var ledgerProbes = sync.OnceValues(func() ([]bankProbe, error) {
	suite, err := ledgerSuite()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for i, prog := range suite.Progs {
		xlat, err := Translate(prog, 2)
		if err != nil {
			return nil, err
		}
		it, err := NewInterp(prog, suite.Specs[i].Seed)
		if err != nil {
			return nil, err
		}
		c := &trace.Capture{W: w, Xlat: xlat, PID: uint8(i)}
		it.Run(ledgerInsts, c)
		if err := c.Err(); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		return nil, err
	}
	var probes []bankProbe
	run := -1 // index of the open instruction run
	for {
		ref, err := r.Read()
		if errors.Is(err, io.EOF) {
			return probes, nil
		}
		if err != nil {
			return nil, err
		}
		if ref.Kind != trace.IFetch {
			probes = append(probes, bankProbe{addr: ref.Addr, store: ref.Kind == trace.Store})
			continue
		}
		if run >= 0 {
			p := &probes[run]
			if next := p.addr + uint32(p.n); ref.Addr == next && next%4 != 0 {
				p.n++
				continue
			}
		}
		run = len(probes)
		probes = append(probes, bankProbe{addr: ref.Addr, n: 1})
	}
})

// BenchmarkCacheBankAccess measures each bank kernel over the study's
// six-size ladder (1-32 KW, 4-word blocks, write-back), replaying the
// captured ledger reference stream through an I bank and a D bank: the
// lane-packed direct-mapped group, and the 4-way LRU, FIFO and Tree-PLRU
// kernels behind the last-block table. ns/probe/config normalizes by the
// ladder width, so it compares directly against BenchmarkCacheAccess's
// per-cache ns/op.
func BenchmarkCacheBankAccess(b *testing.B) {
	probes := fixture(b, ledgerProbes)
	for _, k := range []struct {
		name  string
		assoc int
		pol   cache.Policy
	}{
		{"packed", 1, cache.PolicyLRU},
		{"lru4", 4, cache.PolicyLRU},
		{"fifo4", 4, cache.PolicyFIFO},
		{"plru4", 4, cache.PolicyTreePLRU},
	} {
		b.Run(k.name, func(b *testing.B) {
			var cfgs []CacheConfig
			for _, s := range []int{1, 2, 4, 8, 16, 32} {
				cfgs = append(cfgs, CacheConfig{SizeKW: s, BlockWords: 4, Assoc: k.assoc, WriteBack: true, Policy: k.pol})
			}
			ib, err := NewCacheBank(cfgs)
			if err != nil {
				b.Fatal(err)
			}
			db, err := NewCacheBank(cfgs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(probes) {
					j = 0
				}
				p := &probes[j]
				if p.n != 0 {
					ib.AccessRange(p.addr, int(p.n))
				} else {
					db.Access(p.addr, p.store)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cfgs)), "ns/probe/config")
		})
	}
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

// ---- Ledger rows on gcc+yacc ----
//
// The design-point, serving and ablation rows of BENCH_sim.json run on the
// gcc and yacc benchmarks at ledgerInsts instructions each. Ledger rows
// print nothing: output a benchmark writes lands inside its go test result
// line, which cmd/benchjson must parse.

var ledgerSuite = sync.OnceValues(func() (*Suite, error) {
	var specs []Spec
	for _, name := range []string{"gcc", "yacc"} {
		s, _ := LookupBenchmark(name)
		specs = append(specs, s)
	}
	return BuildSuite(specs)
})

// newLedgerLab builds a lab over the ledger suite with a metrics registry
// attached; traceBudget is its Params.TraceBudgetBytes.
func newLedgerLab(traceBudget int64) (*Lab, error) {
	suite, err := ledgerSuite()
	if err != nil {
		return nil, err
	}
	p := DefaultParams()
	p.Insts = ledgerInsts
	p.TraceBudgetBytes = traceBudget
	l, err := NewLab(suite, p)
	if err != nil {
		return nil, err
	}
	l.SetObs(NewRegistry())
	return l, nil
}

// warmLab is the serving rows' lab. One dynamic-load optimization warms
// every pass a /v1/best needs; the passes do not depend on the miss-service
// time, so a fresh l2 time reuses them.
var warmLab = sync.OnceValues(func() (*Lab, error) {
	l, err := newLedgerLab(0)
	if err != nil {
		return nil, err
	}
	_, err = l.Best(context.Background(), l.Query(), LoadDynamic, false)
	return l, err
})

// bestSeq numbers the optimizations of every round go test -bench runs, so
// no l2 time repeats and no iteration is a result-cache hit.
var bestSeq int64

func nextL2TimeNs() float64 {
	bestSeq++
	return 35 + float64(bestSeq)*1e-6
}

// ablationSuite runs the extension studies end to end on a fresh lab, its
// result memos cold, reading traces from store (nil interprets every pass).
func ablationSuite(store *EventStore) error {
	l, err := newLedgerLab(-1)
	if err != nil {
		return err
	}
	l.SetTraceStore(store)
	if err := l.Prewarm(); err != nil {
		return err
	}
	if _, err := l.AssocStudy(8); err != nil {
		return err
	}
	if _, err := l.BlockSizeStudy(8); err != nil {
		return err
	}
	if _, err := l.WritePolicyStudy(10); err != nil {
		return err
	}
	if _, err := l.BTBSizeStudy([]int{64, 256, 1024}); err != nil {
		return err
	}
	if _, err := l.ProfileStudy(); err != nil {
		return err
	}
	_, err = l.QuantumStudy(8, 10, []int64{2_000, 20_000, 100_000})
	return err
}

// warmStore is the replay suite's event-trace store, shared across
// iterations the way the stability study and a long-running server share
// one. One unmeasured suite captures every trace and compiles every chunk
// plan, so the measured iterations replay a warm store.
var warmStore = sync.OnceValues(func() (*EventStore, error) {
	store := NewEventStore(256 << 20)
	return store, ablationSuite(store)
})

// BenchmarkAblationSuite prices the capture/replay tier on the real
// ablation workload: live interprets every pass, replay reads a warm
// store. Both build a fresh lab per iteration.
func BenchmarkAblationSuite(b *testing.B) {
	b.Run("live", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := ablationSuite(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("replay", func(b *testing.B) {
		store := fixture(b, warmStore)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ablationSuite(store); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCapture times the capture stage a cold lab's first pass runs:
// every ledger workload's interpreter, standalone to ledgerInsts on the
// sweep pool, recorded into a new event trace with no cache simulation.
// insts/s counts the captured instructions of all workloads.
func BenchmarkCapture(b *testing.B) {
	l, err := newLedgerLab(-1)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	var insts int64
	for i := 0; i < b.N; i++ {
		tr, err := l.Capture(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < tr.Len(); j++ {
			insts += tr.Bench(j).Insts()
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds(), "insts/s")
}

// BenchmarkPrewarmCold times a cold lab's Prewarm, the first step of every
// fresh study: the capture stage into the lab's own empty trace store, then
// the five standard passes (static b = 0-3 and the BTB), whose instruction
// jobs share one data job. Building the lab is not timed. plan_B/op is
// the bytes of the chunk plans the prewarmed lab keeps beside its trace
// (cpisim.plan_bytes), which the trace store's budget does not count.
func BenchmarkPrewarmCold(b *testing.B) {
	fixture(b, ledgerSuite)
	var planBytes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := newLedgerLab(0)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := l.Prewarm(); err != nil {
			b.Fatal(err)
		}
		planBytes += l.Obs().Counter("cpisim.plan_bytes").Value()
	}
	b.ReportMetric(float64(planBytes)/float64(b.N), "plan_B/op")
}

// policyStudy runs the replacement-policy ablation on a fresh lab, its
// result memos cold, reading traces from store.
func policyStudy(store *EventStore) error {
	l, err := newLedgerLab(-1)
	if err != nil {
		return err
	}
	l.SetTraceStore(store)
	_, err = l.PolicyStudy(4, 2)
	return err
}

// policyStore is the policy row's event-trace store. One unmeasured study
// captures the trace and compiles its chunk plans, so the measured
// iterations replay a warm store, as PolicyStudy does in every lab that
// has run its prewarm.
var policyStore = sync.OnceValues(func() (*EventStore, error) {
	store := NewEventStore(256 << 20)
	return store, policyStudy(store)
})

// BenchmarkPolicyStudy runs the replacement-policy ablation on a fresh lab
// per iteration over a warm trace store, so the row prices the per-policy
// bank construction and the set-associative LRU, FIFO and Tree-PLRU probe
// kernels on the study's replay path.
func BenchmarkPolicyStudy(b *testing.B) {
	store := fixture(b, policyStore)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := policyStudy(store); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLabBest times the design-point layer under a warm /v1/best:
// Lab.Best over the 576 dynamic-load candidates at a fresh miss-service
// time on a lab whose passes are memoized, with no HTTP around it, so
// BenchmarkServerBest splits into this row plus the serving layers.
func BenchmarkLabBest(b *testing.B) {
	l := fixture(b, warmLab)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := l.Query()
		q.L2TimeNs = nextL2TimeNs()
		if _, err := l.Best(ctx, q, LoadDynamic, false); err != nil {
			b.Fatal(err)
		}
	}
}

// ledgerSurface is warmLab's surface, baked, encoded and decoded as a
// server loads it.
var ledgerSurface = sync.OnceValues(func() (*Surface, error) {
	l, err := warmLab()
	if err != nil {
		return nil, err
	}
	d, err := BakeSurface(context.Background(), l)
	if err != nil {
		return nil, err
	}
	enc, err := EncodeSurface(d)
	if err != nil {
		return nil, err
	}
	return DecodeSurface(enc)
})

// serve runs a server over warmLab for one benchmark round.
func serve(b *testing.B, sf *Surface) http.Handler {
	srv, err := NewServer(fixture(b, warmLab), ServerConfig{Surface: sf, AccessLog: io.Discard})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Close)
	return srv.Handler()
}

// BenchmarkSurfaceLookup measures one repeated /v1/simulate answered by a
// surface-seeded server, end to end through the HTTP handler (decode,
// key, result-cache hit, ETag). Compare against
// BenchmarkSimulatorThroughput: a seeded server never runs the simulation
// pass a cold live one would.
func BenchmarkSurfaceLookup(b *testing.B) {
	h := serve(b, fixture(b, ledgerSurface))
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

// bestStream sends h one /v1/best per iteration, each at a fresh
// l2_time_ns, so the op is one fresh-L2 optimization on warm passes plus
// the layers in front of it.
func bestStream(b *testing.B, h http.Handler) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body := fmt.Sprintf(`{"loads":"dynamic","l2_time_ns":%.6f}`, nextL2TimeNs())
		req := httptest.NewRequest("POST", "/v1/best", strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkServerBest times a /v1/best stream through one server's
// handler: BenchmarkLabBest plus decode, key, result-cache miss and encode.
func BenchmarkServerBest(b *testing.B) {
	bestStream(b, serve(b, nil))
}

// BenchmarkCoordinatorBest times the same stream through a coordinator
// over two shards on loopback HTTP, each request proxied whole to the shard
// its key routes to: BenchmarkServerBest plus route and the proxy hop.
func BenchmarkCoordinatorBest(b *testing.B) {
	var shards []string
	for range 2 {
		ts := httptest.NewServer(serve(b, nil))
		b.Cleanup(ts.Close)
		shards = append(shards, ts.URL)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Shards:    shards,
		Params:    fixture(b, warmLab).P,
		AccessLog: io.Discard,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)
	bestStream(b, coord.Handler())
}
