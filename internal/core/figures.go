package core

import (
	"context"
	"fmt"

	"pipecache/internal/cpisim"
	"pipecache/internal/tablefmt"
	"pipecache/internal/timing"
)

// FigureResult is a family of curves: one Y series per label over shared X
// values, rendered by tablefmt.Chart.
type FigureResult struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Labels []string
	Y      [][]float64 // [label][x]
}

// String renders the figure.
func (f *FigureResult) String() string {
	c := &tablefmt.Chart{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel, X: f.X}
	for i, lab := range f.Labels {
		if err := c.Add(lab, f.Y[i]); err != nil {
			return fmt.Sprintf("%s: %v", f.Title, err)
		}
	}
	return c.String()
}

// Series returns the Y values for a label.
func (f *FigureResult) Series(label string) ([]float64, bool) {
	for i, l := range f.Labels {
		if l == label {
			return f.Y[i], true
		}
	}
	return nil, false
}

// iSideCPI assembles the instruction-side CPI: base + branch stalls +
// instruction miss cycles at the indexed cache size.
func iSideCPI(pass *cpisim.Result, sizeIdx, penalty int) (float64, error) {
	return pass.CPIFor(0, cpisim.LoadStatic, sizeIdx, -1, penalty, 0)
}

// dSideCPI assembles the data-side CPI: base + load stalls at depth l +
// data miss cycles.
func dSideCPI(pass *cpisim.Result, l int, scheme cpisim.LoadScheme, sizeIdx, penalty int) (float64, error) {
	return pass.CPIFor(l, scheme, -1, sizeIdx, 0, penalty)
}

// Figure3 reproduces "Effect of cache misses due to branch delay slots on
// L1-I performance": instruction-side CPI versus the number of branch
// delay slots, one curve per L1-I size, at the default block size and the
// middle penalty (the paper: B=4W, P=10).
func (l *Lab) Figure3(penalty int) (*FigureResult, error) {
	slots := []int{0, 1, 2, 3}
	f := &FigureResult{
		Title:  fmt.Sprintf("Figure 3: I-side CPI vs branch delay slots (B=%dW, P=%d)", l.P.BlockWords, penalty),
		XLabel: "delay slots",
		YLabel: "CPI",
	}
	for _, b := range slots {
		f.X = append(f.X, float64(b))
	}
	for si, size := range l.P.SizesKW {
		var ys []float64
		for _, b := range slots {
			pass, err := l.StaticPass(context.Background(), b, l.P.Policy)
			if err != nil {
				return nil, err
			}
			cpi, err := iSideCPI(pass, si, penalty)
			if err != nil {
				return nil, err
			}
			ys = append(ys, cpi)
		}
		f.Labels = append(f.Labels, fmt.Sprintf("%dKW", size))
		f.Y = append(f.Y, ys)
	}
	return f, nil
}

// Figure4 reproduces "Branch delay slots versus L1-I cache size": I-side
// CPI versus cache size, one curve per delay-slot count.
func (l *Lab) Figure4(penalty int) (*FigureResult, error) {
	f := &FigureResult{
		Title:  fmt.Sprintf("Figure 4: I-side CPI vs L1-I size (B=%dW, P=%d)", l.P.BlockWords, penalty),
		XLabel: "L1-I size (KW)",
		YLabel: "CPI",
	}
	for _, s := range l.P.SizesKW {
		f.X = append(f.X, float64(s))
	}
	for b := 0; b <= 3; b++ {
		pass, err := l.StaticPass(context.Background(), b, l.P.Policy)
		if err != nil {
			return nil, err
		}
		var ys []float64
		for si := range l.P.SizesKW {
			cpi, err := iSideCPI(pass, si, penalty)
			if err != nil {
				return nil, err
			}
			ys = append(ys, cpi)
		}
		f.Labels = append(f.Labels, fmt.Sprintf("b=%d", b))
		f.Y = append(f.Y, ys)
	}
	return f, nil
}

// Figure5 reproduces "CPI versus tCPU": with a constant-time miss service,
// the cycle penalty — and so CPI — falls as the cycle time grows. One curve
// per L1-I size, b = 2.
func (l *Lab) Figure5() (*FigureResult, error) {
	pass, err := l.StaticPass(context.Background(), 2, l.P.Policy)
	if err != nil {
		return nil, err
	}
	tcpus := []float64{2.5, 3.5, 4.5, 5.5, 7, 9, 12}
	f := &FigureResult{
		Title:  fmt.Sprintf("Figure 5: I-side CPI vs tCPU (b=2, %gns miss service)", l.P.L2TimeNs),
		XLabel: "tCPU (ns)",
		YLabel: "CPI",
		X:      tcpus,
	}
	for si, size := range l.P.SizesKW {
		var ys []float64
		for _, t := range tcpus {
			cpi, err := iSideCPI(pass, si, l.P.PenaltyCycles(t))
			if err != nil {
				return nil, err
			}
			ys = append(ys, cpi)
		}
		f.Labels = append(f.Labels, fmt.Sprintf("%dKW", size))
		f.Y = append(f.Y, ys)
	}
	return f, nil
}

// Figure6 reproduces the unrestricted dynamic epsilon distribution.
func (l *Lab) Figure6() (*FigureResult, error) {
	return l.epsilonFigure(true)
}

// Figure7 reproduces the block-restricted epsilon distribution.
func (l *Lab) Figure7() (*FigureResult, error) {
	return l.epsilonFigure(false)
}

func (l *Lab) epsilonFigure(dynamic bool) (*FigureResult, error) {
	pass, err := l.StaticPass(context.Background(), 0, l.P.Policy)
	if err != nil {
		return nil, err
	}
	h := pass.EpsHist(dynamic)
	name, fig := "restricted by basic blocks (Figure 7)", "Figure 7"
	if dynamic {
		name, fig = "unrestricted (Figure 6)", "Figure 6"
	}
	f := &FigureResult{
		Title:  fmt.Sprintf("%s: distribution of epsilon, %s", fig, name),
		XLabel: "epsilon",
		YLabel: "fraction of loads",
	}
	const bins = 8
	var ys []float64
	for e := 0; e < bins; e++ {
		f.X = append(f.X, float64(e))
		ys = append(ys, h.Frac(e))
	}
	// Final bin: everything at or above bins.
	f.X = append(f.X, float64(bins))
	ys = append(ys, h.FracAtLeast(bins))
	f.Labels = []string{"fraction"}
	f.Y = [][]float64{ys}
	return f, nil
}

// Figure8 reproduces "CPI versus L1-D cache size for different load delay
// cycles" with static in-block scheduling.
func (l *Lab) Figure8(penalty int) (*FigureResult, error) {
	pass, err := l.StaticPass(context.Background(), 0, l.P.Policy)
	if err != nil {
		return nil, err
	}
	f := &FigureResult{
		Title:  fmt.Sprintf("Figure 8: D-side CPI vs L1-D size (B=%dW, P=%d, static scheduling)", l.P.BlockWords, penalty),
		XLabel: "L1-D size (KW)",
		YLabel: "CPI",
	}
	for _, s := range l.P.SizesKW {
		f.X = append(f.X, float64(s))
	}
	for ld := 0; ld <= 3; ld++ {
		var ys []float64
		for si := range l.P.SizesKW {
			cpi, err := dSideCPI(pass, ld, cpisim.LoadStatic, si, penalty)
			if err != nil {
				return nil, err
			}
			ys = append(ys, cpi)
		}
		f.Labels = append(f.Labels, fmt.Sprintf("l=%d", ld))
		f.Y = append(f.Y, ys)
	}
	return f, nil
}

// Figure9 combines the D-side CPI at l=2 with the timing model: TPI versus
// L1-D cache size.
func (l *Lab) Figure9() (*FigureResult, error) {
	pass, err := l.StaticPass(context.Background(), 0, l.P.Policy)
	if err != nil {
		return nil, err
	}
	const depth = 2
	f := &FigureResult{
		Title:  "Figure 9: D-side TPI vs L1-D size (l=2)",
		XLabel: "L1-D size (KW)",
		YLabel: "TPI (ns)",
	}
	var ys []float64
	for si, size := range l.P.SizesKW {
		f.X = append(f.X, float64(size))
		tcpu, err := l.P.Model.TCPU(size, depth)
		if err != nil {
			return nil, err
		}
		cpi, err := dSideCPI(pass, depth, cpisim.LoadStatic, si, l.P.PenaltyCycles(tcpu))
		if err != nil {
			return nil, err
		}
		ys = append(ys, cpi*tcpu)
	}
	f.Labels = []string{"TPI"}
	f.Y = [][]float64{ys}
	return f, nil
}

// Figure10Result is the floorplan geometry of Figure 10.
type Figure10Result struct {
	Plans []timing.Floorplan
	MCM   timing.MCM
}

// Figure10 evaluates the MCM floorplan model over the chip counts of the
// study.
func (l *Lab) Figure10() *Figure10Result {
	res := &Figure10Result{MCM: l.P.Model.MCM}
	for _, s := range l.P.SizesKW {
		res.Plans = append(res.Plans, timing.PlanFloor(l.P.Model.Chips(s), l.P.Model.MCM.PitchCm))
	}
	return res
}

// String renders Figure 10 as a geometry table.
func (r *Figure10Result) String() string {
	t := tablefmt.New("Figure 10: MCM floorplan geometry (CPU at middle of long side)",
		"Chips", "Rows", "Cols", "Max wire (cm)", "t_MCM round trip (ns)")
	for _, p := range r.Plans {
		t.Row(p.Chips, p.Rows, p.Cols,
			fmt.Sprintf("%.2f", p.MaxWireCm),
			fmt.Sprintf("%.2f", r.MCM.RoundTripNs(p.Chips)))
	}
	return t.String()
}

// Figure11 reproduces the Equation 7 analysis: the relative CPI increase
// from adding l load delay cycles — the relative tCPU reduction pipelining
// must deliver before performance improves — versus D-cache size.
func (l *Lab) Figure11(penalty int) (*FigureResult, error) {
	return l.Figure11Context(context.Background(), penalty)
}

// Figure11Context is Figure11 with cooperative cancellation.
func (l *Lab) Figure11Context(ctx context.Context, penalty int) (*FigureResult, error) {
	pass, err := l.StaticPass(ctx, 0, l.P.Policy)
	if err != nil {
		return nil, err
	}
	f := &FigureResult{
		Title:  fmt.Sprintf("Figure 11: relative CPI increase vs L1-D size (P=%d)", penalty),
		XLabel: "L1-D size (KW)",
		YLabel: "delta CPI / CPI",
	}
	for _, s := range l.P.SizesKW {
		f.X = append(f.X, float64(s))
	}
	base := make([]float64, len(l.P.SizesKW))
	for si := range l.P.SizesKW {
		cpi, err := dSideCPI(pass, 0, cpisim.LoadStatic, si, penalty)
		if err != nil {
			return nil, err
		}
		base[si] = cpi
	}
	for ld := 1; ld <= 3; ld++ {
		var ys []float64
		for si := range l.P.SizesKW {
			cpi, err := dSideCPI(pass, ld, cpisim.LoadStatic, si, penalty)
			if err != nil {
				return nil, err
			}
			ys = append(ys, (cpi-base[si])/base[si])
		}
		f.Labels = append(f.Labels, fmt.Sprintf("l=%d", ld))
		f.Y = append(f.Y, ys)
	}
	return f, nil
}
