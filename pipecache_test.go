package pipecache

// Integration tests of the public API: the paths a downstream user takes.

import (
	"context"
	"strings"
	"sync"
	"testing"
)

var (
	apiOnce   sync.Once
	apiLab    *Lab
	apiLabErr error
)

// apiTestLab builds a small suite once for the API tests.
func apiTestLab(t *testing.T) *Lab {
	t.Helper()
	apiOnce.Do(func() {
		var specs []Spec
		for _, name := range []string{"espresso", "linpack"} {
			s, ok := LookupBenchmark(name)
			if !ok {
				apiLabErr = errMissing(name)
				return
			}
			specs = append(specs, s)
		}
		suite, err := BuildSuite(specs)
		if err != nil {
			apiLabErr = err
			return
		}
		p := DefaultParams()
		p.Insts = 150_000
		apiLab, apiLabErr = NewLab(suite, p)
	})
	if apiLabErr != nil {
		t.Fatal(apiLabErr)
	}
	return apiLab
}

type errMissing string

func (e errMissing) Error() string { return "missing benchmark " + string(e) }

func TestPublicSuiteHasSixteenBenchmarks(t *testing.T) {
	if got := len(Benchmarks()); got != 16 {
		t.Fatalf("Benchmarks() = %d entries, want 16", got)
	}
	if _, ok := LookupBenchmark("gcc"); !ok {
		t.Fatal("gcc missing")
	}
}

func TestPublicSimulationPath(t *testing.T) {
	// The quickstart path: build, simulate, inspect.
	spec, _ := LookupBenchmark("small")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(SimConfig{
		BranchSlots: 1,
		LoadSlots:   1,
		ICaches:     []CacheConfig{{SizeKW: 4, BlockWords: 4, Assoc: 1, WriteBack: true}},
		DCaches:     []CacheConfig{{SizeKW: 4, BlockWords: 4, Assoc: 1, WriteBack: true}},
	}, []Workload{{Prog: prog, Seed: 1, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(100_000)
	if err != nil {
		t.Fatal(err)
	}
	cpi := res.Benches[0].CPI(0, 0, 10, 10)
	if cpi <= 1 || cpi > 5 {
		t.Fatalf("CPI = %g out of plausible range", cpi)
	}
}

func TestPublicTimingPath(t *testing.T) {
	m := DefaultTimingModel()
	tcpu, err := m.TCPU(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tcpu < 3.5 || tcpu > 12 {
		t.Fatalf("tCPU = %g", tcpu)
	}
	fp := PlanFloor(m.Chips(8), m.MCM.PitchCm)
	if fp.Chips != 8 || fp.MaxWireCm <= 0 {
		t.Fatalf("floorplan %+v", fp)
	}
	if RefillPenalty(16, 2) != 10 {
		t.Fatal("RefillPenalty(16,2) != 10")
	}
}

func TestPublicTranslatePath(t *testing.T) {
	spec, _ := LookupBenchmark("yacc")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Translate(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Expansion() <= 0 {
		t.Fatalf("expansion = %g", tr.Expansion())
	}
}

func TestPublicLabExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	l := apiTestLab(t)
	t2, err := l.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(t2.String(), "Table 2") {
		t.Fatal("Table 2 rendering")
	}
	fig, err := l.Figure4(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Labels) != 4 {
		t.Fatalf("Figure 4 has %d series", len(fig.Labels))
	}
	pt, err := l.TPI(context.Background(), l.Query(), DesignPoint{B: 2, L: 2, ISizeKW: 8, DSizeKW: 8})
	if err != nil {
		t.Fatal(err)
	}
	if pt.TPINs <= 0 {
		t.Fatalf("TPI point %+v", pt)
	}
}

func TestPublicBTBPath(t *testing.T) {
	b, err := NewBTB(PaperBTB())
	if err != nil {
		t.Fatal(err)
	}
	b.Resolve(100, true, 500)
	if p := b.Lookup(100); !p.Hit {
		t.Fatal("BTB did not learn")
	}
}

func TestPublicAssemblerPath(t *testing.T) {
	in, err := ParseInst("lw $t0, 4($sp)")
	if err != nil {
		t.Fatal(err)
	}
	w, err := EncodeWord(in, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWord(w, 0x100)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != "lw $t0, 4($sp)" {
		t.Fatalf("round trip: %q", back.String())
	}
}

func TestPublicImageAndDisasm(t *testing.T) {
	spec, _ := LookupBenchmark("small")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	img, err := EncodeImage(prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != prog.NumInsts() {
		t.Fatalf("image %d words", len(img))
	}
	var sb strings.Builder
	if err := Disassemble(prog, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "main:") {
		t.Fatal("listing missing main")
	}
}

func TestPublicScheduleApply(t *testing.T) {
	spec, _ := LookupBenchmark("small")
	prog, err := BuildProgram(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	q, tr, err := ApplySchedule(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumInsts() != tr.NewWords {
		t.Fatalf("materialized %d vs %d", q.NumInsts(), tr.NewWords)
	}
	prof, err := CollectProfile(prog, 99, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TranslateProfiled(prog, 2, prof); err != nil {
		t.Fatal(err)
	}
}

func TestPublicParseCircuit(t *testing.T) {
	g, err := ParseCircuit(strings.NewReader("latch a\npath a a 3.5"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.MinPeriod()
	if err != nil || p != 3.5 {
		t.Fatalf("period %g err %v", p, err)
	}
}
