package main

import (
	"encoding/json"
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
BenchmarkSimulatorThroughput-2   	     478	   7778446 ns/op	  25712076 insts/s
BenchmarkSimInstrumented-2       	     471	   7465114 ns/op	  26791283 insts/s
BenchmarkTraceReplay-2           	    2853	   1437149 ns/op	 139164383 insts/s
BenchmarkCapture-2               	     180	  13750830 ns/op	  29089467 insts/s
BenchmarkPrewarmCold-2           	     124	  31492487 ns/op
BenchmarkSurfaceLookup-2         	  270169	     12737 ns/op
BenchmarkAblationSuite/live-2    	       9	 348576514 ns/op
BenchmarkAblationSuite/replay-2  	      42	 103059926 ns/op
BenchmarkPolicyStudy-2           	      27	 132965634 ns/op
BenchmarkCacheAccess/direct-2    	493801626	         6.823 ns/op
BenchmarkCacheBankAccess/packed-2         	69977504	        17.30 ns/op	         2.883 ns/probe/config
BenchmarkCacheBankAccess/lru4-2           	29125906	        37.72 ns/op	         6.286 ns/probe/config
BenchmarkCacheBankAccess/fifo4-2          	27681256	        42.71 ns/op	         7.119 ns/probe/config
BenchmarkCacheBankAccess/plru4-2          	16841958	        70.06 ns/op	        11.68 ns/probe/config
BenchmarkLabBest-2               	   52923	     60625 ns/op	     240 B/op	       6 allocs/op
BenchmarkServerBest-2            	   64006	     61171 ns/op
BenchmarkCoordinatorBest-2       	   17583	    186376 ns/op
PASS
ok  	pipecache	120.5s
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
				"BenchmarkTraceReplay":           {Iterations: 2853, NsPerOp: 1437149, InstsPerSec: 139164383},
				"BenchmarkAblationSuite/live":    {Iterations: 9, NsPerOp: 348576514},
				"BenchmarkCacheAccess/direct":    {Iterations: 493801626, NsPerOp: 6.823},
				"BenchmarkCacheBankAccess/plru4": {Iterations: 16841958, NsPerOp: 70.06, NsPerProbeConfig: 11.68},
				"BenchmarkLabBest":               {Iterations: 52923, NsPerOp: 60625},
			} {
				want.Name = name
				if got := byName[name]; got != want {
					t.Errorf("%s = %+v, want %+v", name, got, want)
				}
			}
			if len(rep.Speedups) != len(speedups) {
				t.Fatalf("%d speedups, want %d", len(rep.Speedups), len(speedups))
			}
			if s := rep.Speedups[0]; s.Name != "trace_replay_vs_live_pass" || s.Speedup != 7778446.0/1437149 {
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
	err := record(strings.NewReader(transcript), path, 200e6)
	if err == nil || !strings.Contains(err.Error(), floorRow) {
		t.Fatalf("err = %v, want %s below the floor", err, floorRow)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("the report of a run below the floor was not written: %v", err)
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
// row and speedup lists, so an edit to either is re-recorded.
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
