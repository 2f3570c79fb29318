package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"pipecache/internal/gen"
)

// tinyEnv is a workload at a scale a unit test can afford: two benchmarks
// at 20k instructions, sub-second windows.
func tinyEnv(t *testing.T, name string, traced bool) *env {
	t.Helper()
	var specs []gen.Spec
	for _, n := range []string{"gcc", "yacc"} {
		s, ok := gen.LookupSpec(n)
		if !ok {
			t.Fatalf("benchmark %s missing", n)
		}
		specs = append(specs, s)
	}
	e := &env{name: name, window: 400 * time.Millisecond, specs: specs, insts: 20_000}
	if traced {
		e.tr = newTracer(name)
	}
	return e
}

// TestWorkloadsSmoke runs every workload untraced and traced at a tiny
// scale: each run must pass its output checks and report every metric
// BENCHMARK.json names, finite and in its unit, and a traced run's spans
// must all have non-negative self time.
func TestWorkloadsSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			e := tinyEnv(t, name, traced)
			rec, err := runOne(e)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			res := rec.Result
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", name, traced, d.Name)
				case got.Unit != d.Unit:
					t.Errorf("%s traced=%v: %s in %q, want %q", name, traced, d.Name, got.Unit, d.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", name, traced, d.Name, got.Value)
				}
			}
			if !traced {
				continue
			}
			spans := e.tr.snapshot()
			if len(spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", name)
			}
			for id, self := range selfTimes(spans) {
				if self < 0 {
					t.Errorf("%s: span %d has negative self time %d", name, id, self)
				}
			}
		}
	}
}

// TestSelfTimes checks self time on a tree whose children overlap each
// other and overrun their parent, and the containment fallback that
// parents an orphaned coordinator leg.
func TestSelfTimes(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Name: "root", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "a", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "b", StartNs: 30, EndNs: 60},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", StartNs: 90, EndNs: 120}, // overruns root
		{ID: 5, Parent: 2, Name: "a.1", StartNs: 15, EndNs: 20},
		{ID: 6, Name: "cluster.coordinator", StartNs: 200, EndNs: 300},
		{ID: 7, Name: "cluster.leg", StartNs: 210, EndNs: 250},
		{ID: 8, Name: "cluster.leg", StartNs: 240, EndNs: 280},
	}
	adoptOrphans(spans, "cluster.leg", "cluster.coordinator")
	want := map[int64]int64{1: 40, 2: 25, 3: 30, 4: 30, 5: 5, 6: 30, 7: 40, 8: 40}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name   string
		next   []float64
		better string
		want   string
	}{
		{"within bound", []float64{104, 105, 103, 104, 104}, "lower", "same"},
		{"slower", []float64{120, 121, 119, 120, 120}, "lower", "worse"},
		{"faster", []float64{80, 81, 79, 80, 80}, "lower", "better"},
		{"higher is better", []float64{80, 81, 79, 80, 80}, "higher", "worse"},
		{"noisy", []float64{60, 140, 100, 130, 70}, "lower", "unresolved"},
		{"noisy but all faster", []float64{50, 90, 60, 85, 55}, "lower", "better"},
	} {
		if got := judge(steady, c.next, c.better, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}
