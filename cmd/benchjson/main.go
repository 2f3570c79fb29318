// Command benchjson records the simulator's performance ledger: it runs the
// root package's ledger benchmarks once through `go test -bench` and writes
// their results as a machine-readable summary, so CI can archive
// per-commit performance (make bench-json -> BENCH_sim.json). Every row is
// a func Benchmark… of the root package; this command defines none. A run
// fails, after writing its report, when the replay row falls below the
// -replay-floor or a same-run speedup falls below its checked-in floor.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// rows is the ledger, in report order. A "Name/sub" row is one
// sub-benchmark of Name.
var rows = []string{
	"BenchmarkSimulatorThroughput",
	"BenchmarkSimInstrumented",
	"BenchmarkTraceReplay",
	"BenchmarkCapture",
	"BenchmarkPrewarmCold",
	"BenchmarkSurfaceLookup",
	"BenchmarkAblationSuite/live",
	"BenchmarkAblationSuite/replay",
	"BenchmarkPolicyStudy",
	"BenchmarkCacheAccess/direct",
	"BenchmarkCacheBankAccess/packed",
	"BenchmarkCacheBankAccess/lru4",
	"BenchmarkCacheBankAccess/fifo4",
	"BenchmarkCacheBankAccess/plru4",
	"BenchmarkLabBest",
	"BenchmarkServerBest",
	"BenchmarkCoordinatorBest",
}

// speedups relate two rows: baseline ns/op over against ns/op. Each has a
// floor, the speedup of the recording that last set it: a run whose
// speedup falls more than speedupTolerance below its floor fails. Both
// rows of a speedup run in one go test process, so the ratio moves with
// the code and much less with the host than either row does. Moving a
// floor is an edit to this table.
var speedups = []struct {
	name, baseline, against string
	floor                   float64
}{
	{"trace_replay_vs_live_pass", "BenchmarkSimulatorThroughput", "BenchmarkTraceReplay", 5.45},
	{"surface_lookup_vs_live_pass", "BenchmarkSimulatorThroughput", "BenchmarkSurfaceLookup", 1170},
	{"ablation_suite_replay_vs_live", "BenchmarkAblationSuite/live", "BenchmarkAblationSuite/replay", 5.66},
	// The coordinator's proxy overhead: below 1 by the cost of its hop.
	{"coordinator_vs_single_node", "BenchmarkServerBest", "BenchmarkCoordinatorBest", 0.408},
}

// speedupTolerance is how far, as a fraction of its floor, a speedup may
// fall below the floor before the run fails.
const speedupTolerance = 0.25

// floorRow is the row -replay-floor guards.
const floorRow = "BenchmarkTraceReplay"

// insts is the per-benchmark instruction budget of the ledger fixtures,
// the root package's ledgerInsts (TestLedgerRowsAreBenchmarks checks the
// two agree).
const insts = 200_000

// benchtime is long enough that the ablation-suite rows, hundreds of ms
// per iteration, measure enough iterations to keep the recorded speedups
// steady run to run.
const benchtime = "3s"

// benchRecord is one benchmark's summary row. NsPerProbeConfig is the
// lane-pack figure of merit — bank ns/op normalized by ladder width.
// TraceBytesPerOp is the accounted bytes of the trace a prewarmed lab
// holds, and PlanBytesPerOp the bytes of compiled chunk plans it keeps
// beside that trace (BenchmarkPrewarmCold).
type benchRecord struct {
	Name             string  `json:"name"`
	Iterations       int     `json:"iterations"`
	NsPerOp          float64 `json:"ns_per_op"`
	InstsPerSec      float64 `json:"insts_per_sec,omitempty"`
	NsPerProbeConfig float64 `json:"ns_per_probe_config,omitempty"`
	TraceBytesPerOp  float64 `json:"trace_bytes_per_op,omitempty"`
	PlanBytesPerOp   float64 `json:"plan_bytes_per_op,omitempty"`
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

// benchPattern selects exactly the ledger rows: go test -bench splits its
// pattern at top-level '|' into alternatives and each alternative at '/'
// into one pattern per sub-benchmark level.
func benchPattern() string {
	alts := make([]string, len(rows))
	for i, row := range rows {
		levels := strings.Split(row, "/")
		for j, l := range levels {
			levels[j] = "^" + regexp.QuoteMeta(l) + "$"
		}
		alts[i] = strings.Join(levels, "/")
	}
	return strings.Join(alts, "|")
}

// resultLine matches a benchmark result line: the name with its
// -GOMAXPROCS suffix (absent at GOMAXPROCS 1), the iteration count, then
// value-unit pairs.
var resultLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parse converts a go test -bench transcript into the report. Every ledger
// row must appear in it.
func parse(transcript io.Reader) (report, error) {
	rep := report{
		Schema: "pipecache-bench/v1",
		Go:     runtime.Version(),
		Nproc:  runtime.NumCPU(),
		Insts:  insts,
	}
	found := map[string]benchRecord{}
	sc := bufio.NewScanner(transcript)
	for sc.Scan() {
		m := resultLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		rep.GOMAXPROCS = 1
		if m[2] != "" {
			rep.GOMAXPROCS, _ = strconv.Atoi(m[2])
		}
		rec := benchRecord{Name: m[1]}
		rec.Iterations, _ = strconv.Atoi(m[3])
		f := strings.Fields(m[4])
		for i := 0; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return rep, fmt.Errorf("%s: metric %q: %v", m[1], f[i], err)
			}
			switch f[i+1] {
			case "ns/op":
				rec.NsPerOp = v
			case "insts/s":
				rec.InstsPerSec = v
			case "ns/probe/config":
				rec.NsPerProbeConfig = v
			case "trace_B/op":
				rec.TraceBytesPerOp = v
			case "plan_B/op":
				rec.PlanBytesPerOp = v
			}
		}
		found[m[1]] = rec
	}
	if err := sc.Err(); err != nil {
		return rep, err
	}
	for _, row := range rows {
		rec, ok := found[row]
		if !ok {
			return rep, fmt.Errorf("no result for %s", row)
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
	}
	for _, s := range speedups {
		rep.Speedups = append(rep.Speedups, speedupRecord{
			Name:     s.name,
			Baseline: s.baseline,
			Against:  s.against,
			Speedup:  found[s.baseline].NsPerOp / found[s.against].NsPerOp,
		})
	}
	return rep, nil
}

// record writes the report of transcript to path, then applies the replay
// floor (0 disables it) and the speedup floors. A run below a floor still
// writes its numbers for inspection before it fails.
func record(transcript io.Reader, path string, replayFloor float64) error {
	rep, err := parse(transcript)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	for _, r := range rep.Benchmarks {
		if r.Name == floorRow && r.InstsPerSec < replayFloor {
			return fmt.Errorf("%s at %.0f insts/s is below the floor of %.0f insts/s", r.Name, r.InstsPerSec, replayFloor)
		}
	}
	return checkSpeedups(rep)
}

// checkSpeedups fails, naming each one, the speedups of rep that fall more
// than speedupTolerance below their floors.
func checkSpeedups(rep report) error {
	var errs []error
	for i, s := range rep.Speedups {
		floor := speedups[i].floor
		if min := floor * (1 - speedupTolerance); s.Speedup < min {
			errs = append(errs, fmt.Errorf("speedup %s at %.4g is below %.4g, its floor of %.4g less %.0f%%",
				s.Name, s.Speedup, min, floor, 100*speedupTolerance))
		}
	}
	return errors.Join(errs...)
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output file")
	replayFloor := flag.Float64("replay-floor", 0,
		"fail (exit 1) if "+floorRow+" falls below this insts/s floor; 0 disables the guard")
	flag.Parse()

	// The transcript streams to stderr as it runs.
	var transcript bytes.Buffer
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", benchPattern(), "-benchtime", benchtime, ".")
	cmd.Stdout = io.MultiWriter(&transcript, os.Stderr)
	cmd.Stderr = os.Stderr
	err := cmd.Run()
	if err != nil {
		err = fmt.Errorf("go test: %w", err)
	} else {
		err = record(&transcript, *out, *replayFloor)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
