package surface

import (
	"context"
	"fmt"
	"sort"

	"pipecache/internal/core"
	"pipecache/internal/cpisim"
)

// FigureKey names a baked figure section: the figure number, plus the
// penalty parameter for the figures that take one. The server derives the
// same key from a request to address the baked record.
func FigureKey(n string, penalty int) string {
	if n == "11" {
		return fmt.Sprintf("11?penalty=%d", penalty)
	}
	return n
}

// Figure11Penalties returns the penalty values figure 11 is baked at: the
// lab's configured refill penalties plus the endpoint's default of 10,
// deduplicated and sorted so the baked set is canonical.
func Figure11Penalties(p core.Params) []int {
	seen := map[int]bool{10: true}
	for _, pen := range p.Penalties {
		seen[pen] = true
	}
	out := make([]int, 0, len(seen))
	for pen := range seen {
		out = append(out, pen)
	}
	sort.Ints(out)
	return out
}

// Bake evaluates the whole design space of lab — every point with its CPI
// breakdown and miss ratios, the four /v1/best optimizations, the figures
// at every baked penalty, and the rendered tables — into a Data ready for
// Encode. Point evaluation runs on the lab's bounded sweep pool; the
// result is bit-identical at every Params.SweepWorkers setting, so baked
// surfaces are reproducible artifacts.
func Bake(ctx context.Context, lab *core.Lab) (*Data, error) {
	d := &Data{ParamsHash: HashParams(core.Fingerprint(lab.Suite, lab.P))}

	evals, err := lab.EvalRange(ctx, lab.Query(), 0, len(core.DesignSpace(lab.P)))
	if err != nil {
		return nil, err
	}
	d.Points = make([]PointRecord, len(evals))
	for i, e := range evals {
		d.Points[i] = PointRecord{
			PenCycles:   e.Point.PenCycles,
			TCPUNs:      e.Point.TCPUNs,
			CPI:         e.Point.CPI,
			TPINs:       e.Point.TPINs,
			Base:        e.Breakdown.Base,
			BranchStall: e.Breakdown.BranchStall,
			LoadStall:   e.Breakdown.LoadStall,
			IMiss:       e.Breakdown.IMiss,
			DMiss:       e.Breakdown.DMiss,
			IMissRate:   e.IMissRate,
			DMissRate:   e.DMissRate,
		}
	}

	for _, scheme := range []cpisim.LoadScheme{cpisim.LoadStatic, cpisim.LoadDynamic} {
		for _, symmetric := range []bool{false, true} {
			opt, err := lab.Best(ctx, lab.Query(), scheme, symmetric)
			if err != nil {
				return nil, err
			}
			b := opt.Best
			d.Best = append(d.Best, BestRecord{
				Scheme: uint8(scheme), Symmetric: symmetric, Evaluated: opt.Evaluated,
				B: b.B, L: b.L, ISizeKW: b.ISizeKW, DSizeKW: b.DSizeKW,
				PenCycles: b.PenCycles, TCPUNs: b.TCPUNs, CPI: b.CPI, TPINs: b.TPINs,
			})
		}
	}

	for _, pen := range Figure11Penalties(lab.P) {
		f, err := lab.Figure11Context(ctx, pen)
		if err != nil {
			return nil, err
		}
		d.Figures = append(d.Figures, figureRecord(FigureKey("11", pen), f))
	}
	f12, err := lab.Figure12Context(ctx)
	if err != nil {
		return nil, err
	}
	d.Figures = append(d.Figures, figureRecord("12", f12))
	f13, err := lab.Figure13Context(ctx)
	if err != nil {
		return nil, err
	}
	d.Figures = append(d.Figures, figureRecord("13", f13))

	for n := 1; n <= 6; n++ {
		var v fmt.Stringer
		switch n {
		case 1:
			v, err = lab.Table1()
		case 2:
			v, err = lab.Table2()
		case 3:
			v, err = lab.Table3()
		case 4:
			v, err = lab.Table4()
		case 5:
			v, err = lab.Table5()
		case 6:
			v, err = lab.Table6()
		}
		if err != nil {
			return nil, fmt.Errorf("surface: baking table %d: %w", n, err)
		}
		d.Tables = append(d.Tables, TableRecord{N: n, Text: v.String()})
	}
	return d, nil
}

func figureRecord(key string, f *core.FigureResult) FigureRecord {
	return FigureRecord{
		Key: key, Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel,
		X: f.X, Labels: f.Labels, Y: f.Y,
	}
}
