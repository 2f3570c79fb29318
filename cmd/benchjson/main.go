// Command benchjson records the simulator's performance ledger: it runs the
// root package's ledger benchmarks once through `go test -bench` and writes
// their results as a machine-readable summary, so CI can archive
// per-commit performance (make bench-json -> BENCH_sim.json). Every row is
// a func Benchmark… of the root package; this command defines none.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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
	"BenchmarkSurfaceLookup",
	"BenchmarkAblationSuite/live",
	"BenchmarkAblationSuite/replay",
	"BenchmarkPolicyStudy",
	"BenchmarkCacheAccess/direct",
	"BenchmarkCacheBankAccess",
	"BenchmarkLabBest",
	"BenchmarkServerBest",
	"BenchmarkCoordinatorBest",
}

// speedups relate two rows: baseline ns/op over against ns/op.
var speedups = []struct{ name, baseline, against string }{
	{"trace_replay_vs_live_pass", "BenchmarkSimulatorThroughput", "BenchmarkTraceReplay"},
	{"surface_lookup_vs_live_pass", "BenchmarkSimulatorThroughput", "BenchmarkSurfaceLookup"},
	{"ablation_suite_replay_vs_live", "BenchmarkAblationSuite/live", "BenchmarkAblationSuite/replay"},
	// The coordinator's proxy overhead: below 1 by the cost of its hop.
	{"coordinator_vs_single_node", "BenchmarkServerBest", "BenchmarkCoordinatorBest"},
}

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
// floor (0 disables it). A run below the floor still writes its numbers
// for inspection before it fails.
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
	return nil
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
