package pipecache

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// streamSink collects one benchmark's whole event stream.
type streamSink struct {
	kind []uint8
	a    []uint32
	b    []uint8
}

func (s *streamSink) Events(kind []uint8, a []uint32, b []uint8) {
	s.kind = append(s.kind, kind...)
	s.a = append(s.a, a...)
	s.b = append(s.b, b...)
}

// streams reads every benchmark stream of tr back in full.
func streams(tr *EventTrace) []streamSink {
	out := make([]streamSink, tr.Len())
	for i := range out {
		c := tr.Cursor(i)
		c.Turn(math.MaxInt64, &out[i])
	}
	return out
}

// TestCaptureStageMatchesLiveTee pins the lab's capture stage to a
// recorder teed into a live pass: over three workloads and a quantum that
// does not divide the budget, the trace Lab.Capture records at 1, 2 and 3
// sweep workers holds, bench for bench, the instructions, event count and
// columns of the tee's trace, and the same accounted bytes. The
// capturer's own pass, replayed from that trace, must equal a live pass
// bit for bit (epsilon histograms included) for a static and a BTB
// configuration.
func TestCaptureStageMatchesLiveTee(t *testing.T) {
	var specs []Spec
	for _, name := range []string{"gcc", "loops", "yacc"} {
		s, ok := LookupBenchmark(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		specs = append(specs, s)
	}
	suite, err := BuildSuite(specs)
	if err != nil {
		t.Fatal(err)
	}
	newLab := func(workers int, budget int64) *Lab {
		p := DefaultParams()
		p.Insts = 50_000
		p.Quantum = 7_000
		p.SweepWorkers = workers
		p.TraceBudgetBytes = budget
		l, err := NewLab(suite, p)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	ctx := context.Background()

	p := newLab(1, -1).P
	var bank []CacheConfig
	for _, size := range p.SizesKW {
		bank = append(bank, CacheConfig{SizeKW: size, BlockWords: p.BlockWords, Assoc: 1, WriteBack: true})
	}
	sim, err := NewSim(SimConfig{BranchSlots: 1, ICaches: bank, DCaches: bank, Quantum: p.Quantum}, suite.Workloads())
	if err != nil {
		t.Fatal(err)
	}
	rec := NewEventRecorder("tee", p.Insts)
	sim.SetCapture(rec)
	if _, err := sim.Run(p.Insts); err != nil {
		t.Fatal(err)
	}
	tee := rec.Finish()
	want := streams(tee)

	for _, workers := range []int{1, 2, 3} {
		tr, err := newLab(workers, -1).Capture(ctx)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if tr.Len() != tee.Len() || tr.Bytes() != tee.Bytes() {
			t.Errorf("workers=%d: %d benches, %d bytes; tee %d benches, %d bytes",
				workers, tr.Len(), tr.Bytes(), tee.Len(), tee.Bytes())
		}
		got := streams(tr)
		for i := 0; i < min(tr.Len(), tee.Len()); i++ {
			g, w := tr.Bench(i), tee.Bench(i)
			if g.Insts() != w.Insts() || g.Events() != w.Events() {
				t.Errorf("workers=%d bench %s: %d insts, %d events; tee %d insts, %d events",
					workers, g.Name(), g.Insts(), g.Events(), w.Insts(), w.Events())
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("workers=%d bench %s: columns differ from the tee's", workers, g.Name())
			}
		}
	}

	live, stage := newLab(3, -1), newLab(3, 0)
	passes := map[string]func(*Lab) (*SimResult, error){
		"static": func(l *Lab) (*SimResult, error) { return l.StaticPass(ctx, 2, l.P.Policy) },
		"btb":    func(l *Lab) (*SimResult, error) { return l.BTBPass(ctx) },
	}
	for _, name := range []string{"static", "btb"} {
		want, err := passes[name](live)
		if err != nil {
			t.Fatal(err)
		}
		got, err := passes[name](stage)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the capturer's replayed result differs from the live pass", name)
		}
	}
	if n := stage.TraceStore().Entries(); n != 1 {
		t.Errorf("store entries = %d, want 1", n)
	}
}

// TestPlanBytesWithinTraceBytes bounds the chunk plans a prewarmed ledger
// lab keeps beside its trace. A plan is compiled per static depth, four
// per chunk here, but each holds only its fetch stream of 4-byte runs at
// its exact length, and the D probes read the trace's own columns, so all
// of them together stay below the trace's accounted bytes: 0.66 times
// here, at 8 accounted bytes per event. Plans that also copied the data
// references, in streams sized from the kind counts, held 1.75 times a
// trace accounted at 13 bytes per event.
func TestPlanBytesWithinTraceBytes(t *testing.T) {
	l, err := newLedgerLab(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Prewarm(); err != nil {
		t.Fatal(err)
	}
	c := l.Obs().Snapshot().Counters
	plans, bytes, traces := c["cpisim.plans_compiled"], c["cpisim.plan_bytes"], l.TraceStore().Bytes()
	t.Logf("%d plans, %d plan bytes, %d trace bytes (%.2fx)", plans, bytes, traces, float64(bytes)/float64(traces))
	if plans == 0 || traces == 0 {
		t.Fatalf("prewarm compiled %d plans over %d trace bytes; want a replayed trace", plans, traces)
	}
	if bytes > traces {
		t.Errorf("plans hold %d bytes, more than the %d bytes of the trace they replay", bytes, traces)
	}
}
