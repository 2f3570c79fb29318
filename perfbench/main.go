// Command perfbench is pipecache's end-to-end benchmark. A run executes one
// workload at the shipped defaults, checks its outputs, and prints every
// metric by name and unit; the last line of standard output is the run's
// result as one JSON object. -workload all runs every workload, each in a
// child process of its own, and -compare judges two record files against
// the bounds in BENCHMARK.json. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// workloadNames are the workloads, in the order -workload all runs them.
var workloadNames = []string{"study-cold", "ablation-warm", "serve-mix", "coord-best"}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 0, "seed the workload's inputs are drawn from")
	secs := fs.Float64("seconds", 12, "length of the measured window")
	traced := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory a traced run writes <workload>-seed<seed>.json into")
	out := fs.String("out", "", "append each run's record to this JSON file (required with -workload all)")
	compare := fs.Bool("compare", false, "judge record file NEW against BASE with the bounds in BENCHMARK.json: -compare BASE NEW")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare takes two record files, BASE and NEW")
			return 2
		}
		regressed, err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		if regressed {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 || (*traced != 0 && *traced != 1) || *secs <= 0 {
		fs.Usage()
		return 2
	}
	if *name == "all" {
		if *out == "" {
			fmt.Fprintln(os.Stderr, "perfbench: -workload all needs -out")
			return 2
		}
		return runAll(*seed, *secs, *traced, *spans, *out, stdout)
	}

	e := &env{name: *name, seed: *seed, window: time.Duration(*secs * float64(time.Second))}
	if *traced == 1 {
		e.tr = newTracer(*name)
	}
	rec, err := runOne(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if e.tr != nil {
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.json", e.name, e.seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
		e.logf("wrote spans to %s", path)
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
			return 1
		}
	}
	printRecord(stdout, rec)
	return 0
}

// printRecord prints every metric by name and unit, then the result line.
func printRecord(w io.Writer, rec *record) {
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-36s %14.6g %s\n", rec.Workload, d.name, rec.Result.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "%-14s samples %v  nproc %d  gomaxprocs %d  %s\n",
		rec.Workload, rec.Samples, rec.Nproc, rec.Gomaxprocs, rec.Build)
	b, _ := json.Marshal(rec.Result)
	fmt.Fprintf(w, "%s\n", b)
}

// runAll runs every workload in a child process of this binary, so each
// has its own peak RSS and garbage-collector state, and prints the
// combined result.
func runAll(seed uint64, secs float64, traced int, spans, out string, stdout io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	prior, err := readRecords(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, name := range workloadNames {
		cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.FormatFloat(secs, 'g', -1, 64), "-trace", strconv.Itoa(traced),
			"-spans", spans, "-out", out)
		cmd.Stdout, cmd.Stderr = stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
	}
	all, err := readRecords(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	total := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, rec := range all.Runs[len(prior.Runs):] {
		total.Correct = total.Correct && rec.Result.Correct
		total.Attempted += rec.Result.Attempted
		total.Failed += rec.Result.Failed
		for k, v := range rec.Result.Metrics {
			total.Metrics[rec.Workload+"/"+k] = v
		}
	}
	b, _ := json.Marshal(total)
	fmt.Fprintf(stdout, "%s\n", b)
	if !total.Correct {
		return 1
	}
	return 0
}
