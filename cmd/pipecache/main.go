// Command pipecache reproduces the experiments of "Performance
// Optimization of Pipelined Primary Caches" (Olukotun, Mudge, Brown; ISCA
// 1992) on the synthesized benchmark suite.
//
// Usage:
//
//	pipecache tables   [flags]   reproduce Tables 1-6
//	pipecache figures  [flags]   reproduce Figures 3-11
//	pipecache sweep    [flags]   reproduce the Section 5 TPI analysis
//	                             (Figures 12-13 and the optimal designs)
//	pipecache simulate [flags]   evaluate one design point
//	pipecache serve    [flags]   serve the design space over HTTP/JSON with
//	                             result caching and live metrics
//	pipecache coordinate [flags] front a fleet of serve backends: consistent-
//	                             hash routing with failover, answers
//	                             byte-identical to a single node
//	pipecache bake     [flags]   precompute the design-space surface into a
//	                             PSF1 artifact for O(1) serving
//	pipecache tracegen [flags]   write a multiprogrammed reference trace
//	pipecache timing             print the timing model's Table 6 inputs
//	pipecache metrics  [flags]   run an instrumented pass and print its
//	                             metrics, or render a snapshot with -in
//	pipecache version            print the binary's build identity
//
// Common flags:
//
//	-insts N       instructions per benchmark per pass (default 1000000)
//	-benchmarks s  comma-separated benchmark subset (default: all 16)
//	-metrics file  write a JSON metrics snapshot of the run to file
//	-progress      report live sweep progress (points done/total, ETA)
//	-sweep-workers N  sweep/ablation pool size (default GOMAXPROCS)
//	-trace-budget-mb N  event-trace store budget in MiB (0 = no replay tier)
//	-policy s      cache replacement policy: lru (default), fifo, or plru
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pipecache/internal/cache"
	"pipecache/internal/core"
	"pipecache/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "tables":
		err = runTables(args)
	case "figures":
		err = runFigures(args)
	case "sweep":
		err = runSweep(args)
	case "simulate":
		err = runSimulate(args)
	case "serve":
		err = runServe(args)
	case "coordinate":
		err = runCoordinate(args)
	case "bake":
		err = runBake(args)
	case "version":
		err = runVersion(args)
	case "tracegen":
		err = runTracegen(args)
	case "timing":
		err = runTiming(args)
	case "ablations":
		err = runAblations(args)
	case "metrics":
		err = runMetrics(args)
	case "disasm":
		err = runDisasm(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pipecache: unknown command %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pipecache %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `pipecache - pipelined primary cache study (ISCA 1992 reproduction)

commands:
  tables     reproduce Tables 1-6
  figures    reproduce Figures 3-11
  sweep      TPI design-space analysis (Figures 12-13, optima)
  simulate   evaluate one design point
  serve      HTTP/JSON design-space service (caching, backpressure,
             /metrics, graceful drain)
  coordinate sharded coordinator tier: consistent-hash proxy over serve
             backends with byte-identical answers
  bake       precompute the design-space surface into a PSF1 artifact
             for O(1) serving (pipecache serve -surface)
  version    print the binary's build identity
  tracegen   write a multiprogrammed reference trace
  timing     timing model summary (Table 6, floorplan)
  ablations  extension studies (associativity, block size, L2,
             write policy, replacement policy, BTB capacity,
             profiling, quantum)
  metrics    instrumented smoke run / snapshot viewer
  disasm     disassemble a synthesized benchmark

run "pipecache <command> -h" for flags.
`)
}

// cliOpts bundles the flags shared by every lab-driven subcommand.
type cliOpts struct {
	insts         *int64
	benchmarks    *string
	metricsOut    *string
	progress      *bool
	sweepWorkers  *int
	traceBudgetMB *int64
	policy        *string
}

// commonFlags registers the shared flags on fs.
func commonFlags(fs *flag.FlagSet) *cliOpts {
	return &cliOpts{
		insts:        fs.Int64("insts", 1_000_000, "instructions per benchmark per pass"),
		benchmarks:   fs.String("benchmarks", "", "comma-separated benchmark subset (default all)"),
		metricsOut:   fs.String("metrics", "", "write a JSON metrics snapshot to this file on exit"),
		progress:     fs.Bool("progress", false, "report live sweep progress on stderr"),
		sweepWorkers: fs.Int("sweep-workers", 0, "sweep/ablation worker-pool size (default GOMAXPROCS, 1 = serial)"),
		traceBudgetMB: fs.Int64("trace-budget-mb", 256,
			"event-trace store byte budget in MiB (0 disables the capture/replay tier)"),
		policy: fs.String("policy", "", "cache replacement policy: lru (default), fifo, or plru"),
	}
}

// applyPolicy parses the -policy flag into the lab parameters. The policy
// is part of the params fingerprint, so a baked surface and the server
// loading it must agree on this flag.
func (o *cliOpts) applyPolicy(p *core.Params) error {
	pol, err := cache.ParsePolicy(strings.ToLower(strings.TrimSpace(*o.policy)))
	if err != nil {
		return err
	}
	p.Policy = pol
	return nil
}

// traceBudgetBytes maps the -trace-budget-mb flag onto Params semantics
// (0 on the flag means "off", which Params spells as a negative budget).
func (o *cliOpts) traceBudgetBytes() int64 {
	if *o.traceBudgetMB <= 0 {
		return -1
	}
	return *o.traceBudgetMB << 20
}

// newLab assembles the lab from the parsed flags and attaches a fresh
// metrics registry. It runs no pass: each caller decides whether to
// prewarm.
func newLab(o *cliOpts) (*core.Lab, error) {
	specs, err := selectSpecs(o)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "building %d benchmarks...\n", len(specs))
	suite, err := core.BuildSuite(specs)
	if err != nil {
		return nil, err
	}
	p := core.DefaultParams()
	p.Insts = *o.insts
	p.SweepWorkers = *o.sweepWorkers
	p.TraceBudgetBytes = o.traceBudgetBytes()
	if err := o.applyPolicy(&p); err != nil {
		return nil, err
	}
	lab, err := core.NewLab(suite, p)
	if err != nil {
		return nil, err
	}
	lab.SetObs(obs.NewRegistry())
	return lab, nil
}

// buildLab is newLab for the batch subcommands: it attaches a live
// progress reporter with -progress and runs the prewarm passes.
func buildLab(o *cliOpts) (*core.Lab, error) {
	lab, err := newLab(o)
	if err != nil {
		return nil, err
	}
	if *o.progress {
		lab.SetProgress(obs.NewProgress(os.Stderr))
	} else {
		fmt.Fprintln(os.Stderr, "running simulation passes...")
	}
	if err := lab.Prewarm(); err != nil {
		return nil, err
	}
	return lab, nil
}

// writeMetrics dumps the lab's metrics snapshot to the -metrics file, if
// one was requested.
func writeMetrics(lab *core.Lab, o *cliOpts) error {
	if *o.metricsOut == "" {
		return nil
	}
	f, err := os.Create(*o.metricsOut)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := lab.Obs().Snapshot().WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}
