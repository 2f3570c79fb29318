package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// transcript is a canned go test -bench run of every ledger row at
// GOMAXPROCS 2, with the header, allocation columns and trailer go test
// prints around the result lines.
const transcript = `goos: linux
goarch: amd64
pkg: pipecache
cpu: Intel(R) Xeon(R) Processor
BenchmarkSimulatorThroughput-2   	     715	   5033598 ns/op	  39733022 insts/s
BenchmarkSimInstrumented-2       	     716	   5023735 ns/op	  39811033 insts/s
BenchmarkTraceReplay-2           	    3861	    922953 ns/op	 216695866 insts/s
BenchmarkCacheAccess/direct-2    	447670866	         8.005 ns/op	         0.1802 misses/probe
BenchmarkCacheBankAccess/packed-2         	216356712	        16.61 ns/op	         2.768 ns/probe/config
BenchmarkCacheBankAccess/lru4-2           	97289143	        36.27 ns/op	         6.045 ns/probe/config
BenchmarkCacheBankAccess/fifo4-2          	83647940	        42.43 ns/op	         7.071 ns/probe/config
BenchmarkCacheBankAccess/plru4-2          	71346534	        49.06 ns/op	         8.177 ns/probe/config
BenchmarkAblationSuite/live-2             	      15	 220913885 ns/op
BenchmarkAblationSuite/replay-2           	      92	  39007756 ns/op
BenchmarkCapture-2                        	     510	   6743762 ns/op	  59314689 insts/s
BenchmarkPrewarmCold-2                    	     152	  23521606 ns/op	   4657960 plan_B/op
BenchmarkPolicyStudy-2                    	     172	  20775947 ns/op
BenchmarkLabBest-2                        	  525021	      6689 ns/op	     232 B/op	       6 allocs/op
BenchmarkSurfaceLookup-2                  	  833880	      4303 ns/op
BenchmarkServerBest-2                     	  203335	     15973 ns/op
BenchmarkCoordinatorBest-2                	   87034	     39154 ns/op
PASS
ok  	pipecache	75.587s
`

// atProcs1 rewrites the transcript as a GOMAXPROCS 1 run, whose names carry
// no suffix.
func atProcs1(s string) string {
	return regexp.MustCompile(`(?m)^(Benchmark\S*)-2 `).ReplaceAllString(s, "$1   ")
}

func TestRecordTranscript(t *testing.T) {
	for _, c := range []struct {
		name       string
		transcript string
		procs      int
	}{
		{"gomaxprocs2", transcript, 2},
		{"gomaxprocs1", atProcs1(transcript), 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_sim.json")
			if err := record(strings.NewReader(c.transcript), path, 70e6); err != nil {
				t.Fatal(err)
			}
			rep := readReport(t, path)
			if rep.Schema != "pipecache-bench/v1" || rep.Insts != insts || rep.Go != runtime.Version() {
				t.Errorf("header: schema %q, insts %d, go %q", rep.Schema, rep.Insts, rep.Go)
			}
			if rep.GOMAXPROCS != c.procs || rep.Nproc != runtime.NumCPU() {
				t.Errorf("gomaxprocs %d, nproc %d; want %d, %d", rep.GOMAXPROCS, rep.Nproc, c.procs, runtime.NumCPU())
			}
			var names []string
			byName := map[string]benchRecord{}
			for _, r := range rep.Benchmarks {
				names = append(names, r.Name)
				byName[r.Name] = r
			}
			if !slices.Equal(names, rows) {
				t.Fatalf("rows %v, want %v", names, rows)
			}
			for name, want := range map[string]benchRecord{
				"BenchmarkTraceReplay":           {Iterations: 3861, NsPerOp: 922953, InstsPerSec: 216695866},
				"BenchmarkAblationSuite/live":    {Iterations: 15, NsPerOp: 220913885},
				"BenchmarkCacheAccess/direct":    {Iterations: 447670866, NsPerOp: 8.005},
				"BenchmarkCacheBankAccess/plru4": {Iterations: 71346534, NsPerOp: 49.06, NsPerProbeConfig: 8.177},
				"BenchmarkPrewarmCold":           {Iterations: 152, NsPerOp: 23521606, PlanBytesPerOp: 4657960},
				"BenchmarkLabBest":               {Iterations: 525021, NsPerOp: 6689},
			} {
				want.Name = name
				if got := byName[name]; got != want {
					t.Errorf("%s = %+v, want %+v", name, got, want)
				}
			}
			if len(rep.Speedups) != len(speedups) {
				t.Fatalf("%d speedups, want %d", len(rep.Speedups), len(speedups))
			}
			if s := rep.Speedups[0]; s.Name != "trace_replay_vs_live_pass" || s.Speedup != 5033598.0/922953 {
				t.Errorf("first speedup = %+v", s)
			}
		})
	}
}

func TestRecordMissingRowFails(t *testing.T) {
	// A failed or unselected benchmark leaves its row out: the file must
	// not be written short.
	cut := regexp.MustCompile(`(?m)^BenchmarkCoordinatorBest.*\n`).ReplaceAllString(transcript, "")
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	err := record(strings.NewReader(cut), path, 0)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkCoordinatorBest") {
		t.Fatalf("err = %v, want a missing BenchmarkCoordinatorBest", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a short report was written (stat: %v)", err)
	}
	if err := record(strings.NewReader("PASS\n"), path, 0); err == nil {
		t.Error("a run that selected no row recorded a report")
	}
}

func TestReplayFloorFailsAfterWriting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	err := record(strings.NewReader(transcript), path, 300e6)
	if err == nil || !strings.Contains(err.Error(), floorRow) {
		t.Fatalf("err = %v, want %s below the floor", err, floorRow)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("the report of a run below the floor was not written: %v", err)
	}
}

// TestSpeedupFloorFailsAfterWriting slows the coordinator row so that its
// speedup falls below its floor by more than the tolerance: the report is
// still written, and the error names that speedup and no other.
func TestSpeedupFloorFailsAfterWriting(t *testing.T) {
	slow := strings.Replace(transcript, "39154 ns/op", "99154 ns/op", 1)
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	err := record(strings.NewReader(slow), path, 70e6)
	if err == nil || !strings.Contains(err.Error(), "coordinator_vs_single_node") || strings.Count(err.Error(), "speedup ") != 1 {
		t.Fatalf("err = %v, want coordinator_vs_single_node alone below its floor", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("the report of a run below a speedup floor was not written: %v", err)
	}
}

// TestCheckSpeedupsTolerance puts every speedup at its floor less the
// tolerance, which passes, and then each in turn just below that, which
// fails naming it; a speedup above its floor always passes.
func TestCheckSpeedupsTolerance(t *testing.T) {
	at := func(scale float64) report {
		var rep report
		for _, s := range speedups {
			rep.Speedups = append(rep.Speedups, speedupRecord{Name: s.name, Speedup: s.floor * scale})
		}
		return rep
	}
	for _, scale := range []float64{1 - speedupTolerance, 1, 3} {
		if err := checkSpeedups(at(scale)); err != nil {
			t.Errorf("every speedup at %g x its floor: %v", scale, err)
		}
	}
	for i, s := range speedups {
		rep := at(1 - speedupTolerance)
		rep.Speedups[i].Speedup = math.Nextafter(rep.Speedups[i].Speedup, 0)
		if err := checkSpeedups(rep); err == nil || !strings.Contains(err.Error(), s.name) {
			t.Errorf("%s just below its floor less the tolerance: err = %v", s.name, err)
		}
	}
}

// TestBenchPatternSelectsRows checks the pattern against the way go test
// -bench reads it: one top-level alternative per row, and within it one
// anchored pattern per sub-benchmark level that matches the row's name at
// that level and nothing longer.
func TestBenchPatternSelectsRows(t *testing.T) {
	alts := strings.Split(benchPattern(), "|")
	if len(alts) != len(rows) {
		t.Fatalf("%d alternatives for %d rows", len(alts), len(rows))
	}
	for i, row := range rows {
		names, pats := strings.Split(row, "/"), strings.Split(alts[i], "/")
		if len(pats) != len(names) {
			t.Errorf("%s: %d levels in %q", row, len(pats), alts[i])
			continue
		}
		for j, name := range names {
			re := regexp.MustCompile(pats[j])
			if !re.MatchString(name) || re.MatchString(name+"x") || re.MatchString("x"+name) {
				t.Errorf("%s: level %d pattern %q does not select exactly %q", row, j, pats[j], name)
			}
		}
	}
}

// TestCommittedLedgerMatchesRows pins the committed BENCH_sim.json to the
// row and speedup lists, so an edit to either is re-recorded, and holds
// the committed speedups to their floors, so a floor is never set above
// what the committed recording measured less the tolerance.
func TestCommittedLedgerMatchesRows(t *testing.T) {
	rep := readReport(t, "../../BENCH_sim.json")
	var names []string
	for _, r := range rep.Benchmarks {
		names = append(names, r.Name)
	}
	if !slices.Equal(names, rows) {
		t.Errorf("BENCH_sim.json rows %v, want %v", names, rows)
	}
	if len(rep.Speedups) != len(speedups) {
		t.Fatalf("BENCH_sim.json has %d speedups, want %d", len(rep.Speedups), len(speedups))
	}
	for i, s := range speedups {
		got := rep.Speedups[i]
		if got.Name != s.name || got.Baseline != s.baseline || got.Against != s.against {
			t.Errorf("BENCH_sim.json speedup %d = %+v, want %+v", i, got, s)
		}
		if !(s.floor > 0) {
			t.Errorf("speedup %s has floor %v; want a positive floor", s.name, s.floor)
		}
	}
	if err := checkSpeedups(rep); err != nil {
		t.Errorf("BENCH_sim.json: %v", err)
	}
}

func readReport(t *testing.T, path string) report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}
