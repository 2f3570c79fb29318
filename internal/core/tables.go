package core

import (
	"context"
	"fmt"

	"pipecache/internal/cpisim"
	"pipecache/internal/interp"
	"pipecache/internal/sched"
	"pipecache/internal/tablefmt"
)

// Table1Row is one benchmark's measured dynamic characteristics.
type Table1Row struct {
	Name     string
	Desc     string
	Kind     string
	MInsts   float64 // Table 1 weight (millions of instructions)
	LoadPct  float64
	StorePct float64
	CTIPct   float64
}

// Table1Result reproduces Table 1 from the synthesized suite.
type Table1Result struct {
	Rows  []Table1Row
	Total Table1Row
}

// Table1 measures every benchmark's dynamic mix over a probe run.
func (l *Lab) Table1() (*Table1Result, error) {
	res := &Table1Result{}
	probe := l.P.Insts / 4
	if probe < 100_000 {
		probe = 100_000
	}
	var wInsts, wLoad, wStore, wCTI float64
	var totalM float64
	for i, p := range l.Suite.Progs {
		spec := l.Suite.Specs[i]
		it, err := interp.New(p, spec.Seed^0xC0FFEE)
		if err != nil {
			return nil, err
		}
		c := interp.NewCollector(8)
		it.Run(probe, c)
		row := Table1Row{
			Name:     spec.Name,
			Desc:     spec.Desc,
			Kind:     spec.Kind.String(),
			MInsts:   spec.DynMInsts,
			LoadPct:  100 * c.LoadFrac(),
			StorePct: 100 * c.StoreFrac(),
			CTIPct:   100 * c.CTIFrac(),
		}
		res.Rows = append(res.Rows, row)
		totalM += spec.DynMInsts
		wInsts += spec.DynMInsts
		wLoad += spec.DynMInsts * row.LoadPct
		wStore += spec.DynMInsts * row.StorePct
		wCTI += spec.DynMInsts * row.CTIPct
	}
	res.Total = Table1Row{
		Name:     "Total",
		MInsts:   totalM,
		LoadPct:  wLoad / wInsts,
		StorePct: wStore / wInsts,
		CTIPct:   wCTI / wInsts,
	}
	return res, nil
}

// String renders Table 1.
func (r *Table1Result) String() string {
	t := tablefmt.New("Table 1: benchmark dynamic characteristics",
		"Benchmark", "Description", "Kind", "Inst (M)", "Loads %", "Stores %", "Branches %")
	for _, row := range r.Rows {
		t.Row(row.Name, row.Desc, row.Kind,
			fmt.Sprintf("%.1f", row.MInsts),
			fmt.Sprintf("%.1f", row.LoadPct),
			fmt.Sprintf("%.1f", row.StorePct),
			fmt.Sprintf("%.1f", row.CTIPct))
	}
	t.Row(r.Total.Name, "", "",
		fmt.Sprintf("%.1f", r.Total.MInsts),
		fmt.Sprintf("%.1f", r.Total.LoadPct),
		fmt.Sprintf("%.1f", r.Total.StorePct),
		fmt.Sprintf("%.1f", r.Total.CTIPct))
	return t.String()
}

// Table2Result is the static code expansion versus delay slots.
type Table2Result struct {
	Slots       []int
	IncreasePct []float64
}

// Table2 computes the suite-average static code size increase for 1-3
// branch delay slots (paper: 6%, 14%, 23%).
func (l *Lab) Table2() (*Table2Result, error) {
	res := &Table2Result{}
	for b := 1; b <= 3; b++ {
		var sum float64
		for _, p := range l.Suite.Progs {
			tr, err := sched.Translate(p, b)
			if err != nil {
				return nil, err
			}
			sum += tr.Expansion()
		}
		res.Slots = append(res.Slots, b)
		res.IncreasePct = append(res.IncreasePct, 100*sum/float64(len(l.Suite.Progs)))
	}
	return res, nil
}

// String renders Table 2.
func (r *Table2Result) String() string {
	t := tablefmt.New("Table 2: static code size versus branch delay slots",
		"Delay slots", "% code increase")
	for i, b := range r.Slots {
		t.Row(b, fmt.Sprintf("%.1f", r.IncreasePct[i]))
	}
	return t.String()
}

// Table3Row is one delay-slot count of the static-prediction table.
type Table3Row struct {
	Slots           int
	PredTakenPct    float64 // CTIs predicted taken, % of all CTIs
	PredTakenAccPct float64
	PredNTPct       float64
	PredNTAccPct    float64
	CyclesPerCTI    float64
	AdditionalCPI   float64
}

// Table3Result reproduces the static branch prediction performance table.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 runs the static scheme for 1-3 delay slots.
func (l *Lab) Table3() (*Table3Result, error) {
	res := &Table3Result{}
	for b := 1; b <= 3; b++ {
		pass, err := l.StaticPass(context.Background(), b, l.P.Policy)
		if err != nil {
			return nil, err
		}
		tf, ta := pass.PredTakenFrac()
		nf, na := pass.PredNotTakenFrac()
		res.Rows = append(res.Rows, Table3Row{
			Slots:           b,
			PredTakenPct:    100 * tf,
			PredTakenAccPct: 100 * ta,
			PredNTPct:       100 * nf,
			PredNTAccPct:    100 * na,
			CyclesPerCTI:    1 + pass.BranchStallPerCTI(),
			AdditionalCPI:   pass.BranchCPIComponent(),
		})
	}
	return res, nil
}

// String renders Table 3.
func (r *Table3Result) String() string {
	t := tablefmt.New("Table 3: static branch prediction versus delay slots",
		"Delay slots", "Pred taken %", "correct %", "Pred not-taken %", "correct %",
		"Cycles per CTI", "Additional CPI")
	for _, row := range r.Rows {
		t.Row(row.Slots,
			fmt.Sprintf("%.0f", row.PredTakenPct),
			fmt.Sprintf("%.0f", row.PredTakenAccPct),
			fmt.Sprintf("%.0f", row.PredNTPct),
			fmt.Sprintf("%.0f", row.PredNTAccPct),
			fmt.Sprintf("%.2f", row.CyclesPerCTI),
			fmt.Sprintf("%.3f", row.AdditionalCPI))
	}
	return t.String()
}

// Table4Row is one delay count of the BTB table.
type Table4Row struct {
	DelayCycles   int
	CyclesPerCTI  float64
	AdditionalCPI float64
	HitRatioPct   float64
}

// Table4Result reproduces the BTB prediction performance table.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 runs the BTB scheme once and scales the penalty to each depth.
func (l *Lab) Table4() (*Table4Result, error) {
	pass, err := l.BTBPass(context.Background())
	if err != nil {
		return nil, err
	}
	var hits, lookups int64
	for i := range pass.Benches {
		b := &pass.Benches[i]
		// Correct + wrong-direction + wrong-target resolved in the buffer.
		hits += b.BTBOutcomes[0] + b.BTBOutcomes[1] + b.BTBOutcomes[2]
		for _, c := range b.BTBOutcomes {
			lookups += c
		}
	}
	res := &Table4Result{}
	for d := 1; d <= 3; d++ {
		row := Table4Row{
			DelayCycles:   d,
			CyclesPerCTI:  1 + pass.BTBStallPerCTIFor(d),
			AdditionalCPI: pass.BTBCPIComponentFor(d),
		}
		if lookups > 0 {
			row.HitRatioPct = 100 * float64(hits) / float64(lookups)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders Table 4.
func (r *Table4Result) String() string {
	t := tablefmt.New("Table 4: BTB prediction performance (256 entries)",
		"Delay cycles", "Cycles per CTI", "Additional CPI", "BTB hit %")
	for _, row := range r.Rows {
		t.Row(row.DelayCycles,
			fmt.Sprintf("%.2f", row.CyclesPerCTI),
			fmt.Sprintf("%.3f", row.AdditionalCPI),
			fmt.Sprintf("%.0f", row.HitRatioPct))
	}
	return t.String()
}

// Table5Row is one load-delay depth.
type Table5Row struct {
	Slots               int
	StaticCyclesPerLoad float64
	StaticCPI           float64
	DynCyclesPerLoad    float64
	DynCPI              float64
}

// Table5Result reproduces the load-delay CPI table.
type Table5Result struct {
	Rows []Table5Row
}

// Table5 derives the static and dynamic load-delay costs from the epsilon
// distributions of one pass.
func (l *Lab) Table5() (*Table5Result, error) {
	pass, err := l.StaticPass(context.Background(), 0, l.P.Policy)
	if err != nil {
		return nil, err
	}
	res := &Table5Result{}
	for slots := 1; slots <= 3; slots++ {
		res.Rows = append(res.Rows, Table5Row{
			Slots:               slots,
			StaticCyclesPerLoad: pass.LoadStallPerLoadFor(slots, cpisim.LoadStatic),
			StaticCPI:           pass.LoadCPIComponentFor(slots, cpisim.LoadStatic),
			DynCyclesPerLoad:    pass.LoadStallPerLoadFor(slots, cpisim.LoadDynamic),
			DynCPI:              pass.LoadCPIComponentFor(slots, cpisim.LoadDynamic),
		})
	}
	return res, nil
}

// String renders Table 5.
func (r *Table5Result) String() string {
	t := tablefmt.New("Table 5: CPI increase due to load delay cycles",
		"Delay slots", "Static cycles/load", "Static CPI", "Dynamic cycles/load", "Dynamic CPI")
	for _, row := range r.Rows {
		t.Row(row.Slots,
			fmt.Sprintf("%.2f", row.StaticCyclesPerLoad),
			fmt.Sprintf("%.3f", row.StaticCPI),
			fmt.Sprintf("%.2f", row.DynCyclesPerLoad),
			fmt.Sprintf("%.3f", row.DynCPI))
	}
	return t.String()
}

// Table6Result is the cycle-time table.
type Table6Result struct {
	SizesKW []int
	Depths  []int
	TCPUNs  [][]float64 // [size][depth]
}

// Table6 evaluates the timing analyzer over the size/depth grid.
func (l *Lab) Table6() (*Table6Result, error) {
	depths := []int{0, 1, 2, 3}
	tab, err := l.P.Model.Table6(l.P.SizesKW, depths)
	if err != nil {
		return nil, err
	}
	return &Table6Result{SizesKW: l.P.SizesKW, Depths: depths, TCPUNs: tab}, nil
}

// String renders Table 6.
func (r *Table6Result) String() string {
	headers := []string{"Size (KW)"}
	for _, d := range r.Depths {
		headers = append(headers, fmt.Sprintf("depth %d", d))
	}
	t := tablefmt.New("Table 6: optimal cycle times (ns) per cache size and pipeline depth", headers...)
	for i, s := range r.SizesKW {
		cells := []any{s}
		for j := range r.Depths {
			cells = append(cells, fmt.Sprintf("%.2f", r.TCPUNs[i][j]))
		}
		t.Row(cells...)
	}
	return t.String()
}
