package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"pipecache/internal/cache"
	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/gen"
	"pipecache/internal/interp"
	"pipecache/internal/obs"
	"pipecache/internal/program"
	"pipecache/internal/sched"
	"pipecache/internal/trace"
)

func runTables(args []string) error {
	fs := flag.NewFlagSet("tables", flag.ExitOnError)
	o := commonFlags(fs)
	fs.Parse(args)
	lab, err := buildLab(o)
	if err != nil {
		return err
	}

	t1, err := lab.Table1()
	if err != nil {
		return err
	}
	fmt.Println(t1)
	t2, err := lab.Table2()
	if err != nil {
		return err
	}
	fmt.Println(t2)
	t3, err := lab.Table3()
	if err != nil {
		return err
	}
	fmt.Println(t3)
	t4, err := lab.Table4()
	if err != nil {
		return err
	}
	fmt.Println(t4)
	t5, err := lab.Table5()
	if err != nil {
		return err
	}
	fmt.Println(t5)
	t6, err := lab.Table6()
	if err != nil {
		return err
	}
	fmt.Println(t6)
	return writeMetrics(lab, o)
}

func runFigures(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ExitOnError)
	o := commonFlags(fs)
	penalty := fs.Int("penalty", 10, "fixed-cycle refill penalty for the CPI figures")
	fs.Parse(args)
	lab, err := buildLab(o)
	if err != nil {
		return err
	}

	f3, err := lab.Figure3(*penalty)
	if err != nil {
		return err
	}
	fmt.Println(f3)
	f4, err := lab.Figure4(*penalty)
	if err != nil {
		return err
	}
	fmt.Println(f4)
	f5, err := lab.Figure5()
	if err != nil {
		return err
	}
	fmt.Println(f5)
	f6, err := lab.Figure6()
	if err != nil {
		return err
	}
	fmt.Println(f6)
	f7, err := lab.Figure7()
	if err != nil {
		return err
	}
	fmt.Println(f7)
	f8, err := lab.Figure8(*penalty)
	if err != nil {
		return err
	}
	fmt.Println(f8)
	f9, err := lab.Figure9()
	if err != nil {
		return err
	}
	fmt.Println(f9)
	fmt.Println(lab.Figure10())
	f11, err := lab.Figure11(*penalty)
	if err != nil {
		return err
	}
	fmt.Println(f11)
	return writeMetrics(lab, o)
}

func runSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	o := commonFlags(fs)
	cpuprofile, memprofile := profileFlags(fs)
	fs.Parse(args)
	stopProfile, err := startCPUProfile(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopProfile()
	lab, err := buildLab(o)
	if err != nil {
		return err
	}

	f12, err := lab.Figure12()
	if err != nil {
		return err
	}
	fmt.Println(f12)
	f13, err := lab.Figure13()
	if err != nil {
		return err
	}
	fmt.Println(f13)

	var pts []core.TPIPoint
	lowQ := lab.Query()
	lowQ.L2TimeNs *= 0.6
	for _, cfg := range []struct {
		q     core.Query
		name  string
		symm  bool
		sched cpisim.LoadScheme
	}{
		{lab.Query(), "default penalty, symmetric", true, cpisim.LoadStatic},
		{lab.Query(), "default penalty, free split", false, cpisim.LoadStatic},
		{lab.Query(), "default penalty, dynamic loads", false, cpisim.LoadDynamic},
		{lowQ, "low penalty, free split", false, cpisim.LoadStatic},
	} {
		opt, err := lab.Best(context.Background(), cfg.q, cfg.sched, cfg.symm)
		if err != nil {
			return err
		}
		pts = append(pts, opt.Best)
		fmt.Printf("best (%s): %s\n", cfg.name, opt.Best)
	}
	fmt.Println()
	fmt.Println(core.SummaryTable("Optimal designs", pts))

	be, err := lab.DynamicBreakEven(3, 3, 16, 16, lab.P.L2TimeNs)
	if err != nil {
		return err
	}
	fmt.Printf("dynamic-load break-even tCPU stretch at b=l=3, 16KW/side: %.1f%%\n\n", 100*be)

	m, err := lab.DepthMatrix(lab.P.L2TimeNs)
	if err != nil {
		return err
	}
	fmt.Println(m)
	fmt.Printf("b = l diagonal optimal: %v\n\n", m.DiagonalOptimal(0.05))

	for _, l2 := range []float64{lab.P.L2TimeNs, lab.P.L2TimeNs * 0.6} {
		asym, err := lab.AsymmetryStudy(l2)
		if err != nil {
			return err
		}
		fmt.Println(asym)
	}
	if err := writeHeapProfile(*memprofile); err != nil {
		return err
	}
	return writeMetrics(lab, o)
}

func runDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	name := fs.String("benchmark", "small", "benchmark to disassemble")
	out := fs.String("o", "", "output file (default stdout)")
	fs.Parse(args)

	spec, ok := gen.LookupSpec(*name)
	if !ok {
		return fmt.Errorf("unknown benchmark %q", *name)
	}
	prog, err := gen.Build(spec, 0)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return program.Disassemble(prog, w)
}

func runSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	o := commonFlags(fs)
	b := fs.Int("b", 2, "branch delay slots (L1-I pipeline depth)")
	l := fs.Int("l", 2, "load delay slots (L1-D pipeline depth)")
	isize := fs.Int("isize", 8, "L1-I size in KW")
	dsize := fs.Int("dsize", 8, "L1-D size in KW")
	dyn := fs.Bool("dynamic-loads", false, "use dynamic (out-of-order) load scheduling")
	fs.Parse(args)
	lab, err := buildLab(o)
	if err != nil {
		return err
	}
	scheme := cpisim.LoadStatic
	if *dyn {
		scheme = cpisim.LoadDynamic
	}
	pt, err := lab.TPI(context.Background(), lab.Query(),
		core.DesignPoint{B: *b, L: *l, ISizeKW: *isize, DSizeKW: *dsize, Scheme: scheme})
	if err != nil {
		return err
	}
	fmt.Println(pt)
	return writeMetrics(lab, o)
}

func runTracegen(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	o := commonFlags(fs)
	out := fs.String("o", "trace.pct", "output trace file")
	slots := fs.Int("b", 0, "branch delay slots encoded in the fetch stream")
	replay := fs.Bool("replay", false,
		"after writing, replay the trace through the fused cache bank and print per-size miss ratios")
	fs.Parse(args)

	lab, err := buildLab(o)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	for i, p := range lab.Suite.Progs {
		xlat, err := sched.Translate(p, *slots)
		if err != nil {
			return err
		}
		it, err := interp.New(p, lab.Suite.Specs[i].Seed^0xC0FFEE)
		if err != nil {
			return err
		}
		cap := &trace.Capture{W: w, Xlat: xlat, PID: uint8(i)}
		it.Run(*o.insts, cap)
		if cap.Err() != nil {
			return cap.Err()
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("wrote %d references to %s\n", w.Count(), *out)
	if *replay {
		if err := replayTrace(*out, lab.P.SizesKW, lab.P.BlockWords); err != nil {
			return err
		}
	}
	return writeMetrics(lab, o)
}

// replayTrace replays a reference trace through one fused cache.Bank per
// side — the whole size ladder in a single pass — and prints the per-size
// miss ratios.
func replayTrace(path string, sizesKW []int, blockWords int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	var cfgs []cache.Config
	for _, s := range sizesKW {
		cfgs = append(cfgs, cache.Config{SizeKW: s, BlockWords: blockWords, Assoc: 1, WriteBack: true})
	}
	ibank, err := cache.NewBank(cfgs)
	if err != nil {
		return err
	}
	dbank, err := cache.NewBank(cfgs)
	if err != nil {
		return err
	}
	st, err := trace.ReplayBank(r, ibank, dbank)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d refs: %d ifetch, %d load, %d store\n",
		st.Refs, st.IFetches, st.Loads, st.Stores)
	for i, s := range sizesKW {
		is, ds := ibank.Stats(i), dbank.Stats(i)
		fmt.Printf("  %2d KW/side: I miss %.4f, D miss %.4f\n",
			s, float64(is.Misses())/float64(max64(is.Accesses(), 1)),
			float64(ds.Misses())/float64(max64(ds.Accesses(), 1)))
	}
	return nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func runTiming(args []string) error {
	fs := flag.NewFlagSet("timing", flag.ExitOnError)
	fs.Parse(args)
	p := core.DefaultParams()
	m := p.Model
	fmt.Printf("technology model: SRAM %gns/%dKW chip, MCM k0=%.2fns k1=%.4fns/chip\n",
		m.SRAM.AccessNs, m.SRAM.ChipKW, m.MCM.K0Ns, m.MCM.K1Ns())
	fmt.Printf("ALU add %.1fns, feedback %.1fns (cycle floor %.1fns), latch %.1fns\n\n",
		m.ALUAddNs, m.ALUFeedbackNs, m.ALULoopNs(), m.LatchNs)
	for _, s := range p.SizesKW {
		fmt.Printf("t_L1(%2d KW) = %.2f ns over %d chips\n", s, m.CacheAccessNs(s), m.Chips(s))
	}
	fmt.Println()
	tab, err := m.Table6(p.SizesKW, []int{0, 1, 2, 3})
	if err != nil {
		return err
	}
	fmt.Println("tCPU (ns) by size x depth:")
	for i, s := range p.SizesKW {
		fmt.Printf("%2d KW:", s)
		for _, v := range tab[i] {
			fmt.Printf(" %6.2f", v)
		}
		fmt.Println()
	}
	return nil
}

func runAblations(args []string) error {
	fs := flag.NewFlagSet("ablations", flag.ExitOnError)
	o := commonFlags(fs)
	cpuprofile, memprofile := profileFlags(fs)
	fs.Parse(args)
	stopProfile, err := startCPUProfile(*cpuprofile)
	if err != nil {
		return err
	}
	defer stopProfile()
	lab, err := buildLab(o)
	if err != nil {
		return err
	}

	assoc, err := lab.AssocStudy(8)
	if err != nil {
		return err
	}
	fmt.Println(assoc)

	blocks, err := lab.BlockSizeStudy(8)
	if err != nil {
		return err
	}
	fmt.Println(blocks)

	two, err := lab.TwoLevelStudy(4, []int{32, 64, 128, 256, 512}, 6, 40)
	if err != nil {
		return err
	}
	fmt.Println(two)

	wp, err := lab.WritePolicyStudy(10)
	if err != nil {
		return err
	}
	fmt.Println(wp)

	rp, err := lab.PolicyStudy(4, 2)
	if err != nil {
		return err
	}
	fmt.Println(rp)

	btbs, err := lab.BTBSizeStudy([]int{64, 128, 256, 512, 1024, 4096})
	if err != nil {
		return err
	}
	fmt.Println(btbs)

	prof, err := lab.ProfileStudy()
	if err != nil {
		return err
	}
	fmt.Println(prof)

	q, err := lab.QuantumStudy(8, 10, []int64{2000, 5000, 20000, 100000})
	if err != nil {
		return err
	}
	fmt.Println(q)

	st, err := lab.StabilityStudy([]uint64{0, 0xA5A5, 0x5A5A})
	if err != nil {
		return err
	}
	fmt.Println(st)
	fmt.Printf("optimal depths agree across seeds: %v\n", st.DepthsAgree())
	if err := writeHeapProfile(*memprofile); err != nil {
		return err
	}
	return writeMetrics(lab, o)
}

// profileFlags registers the pprof flags shared by the long-running
// subcommands (sweep, ablations).
func profileFlags(fs *flag.FlagSet) (cpuprofile, memprofile *string) {
	cpuprofile = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile = fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	return
}

// startCPUProfile begins CPU profiling to path (no-op when path is empty)
// and returns the stop function.
func startCPUProfile(path string) (func(), error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeHeapProfile writes a heap profile to path (no-op when path is
// empty).
func writeHeapProfile(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // bring the allocation statistics up to date
	if err := pprof.WriteHeapProfile(f); err != nil {
		return err
	}
	return f.Close()
}

// runMetrics either renders an existing JSON metrics snapshot as text
// (-in) or performs an instrumented prewarm run and prints its metrics —
// a quick way to inspect what the observability layer records.
func runMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	in := fs.String("in", "", "render an existing JSON metrics snapshot instead of running")
	o := commonFlags(fs)
	fs.Parse(args)

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		snap, err := obs.ReadSnapshot(f)
		if err != nil {
			return err
		}
		return snap.WriteText(os.Stdout)
	}

	lab, err := buildLab(o)
	if err != nil {
		return err
	}
	if err := lab.Obs().Snapshot().WriteText(os.Stdout); err != nil {
		return err
	}
	return writeMetrics(lab, o)
}
