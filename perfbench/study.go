package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"time"

	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/obs"
	"pipecache/internal/trace"
)

// testdata holds the seed-0 output digests of the batch workloads at the
// default scale: <workload>.seed0.sha256.
//
//go:embed testdata/*.sha256
var testdata embed.FS

// seed0Digest returns the checked-in digest of a workload's seed-0 output.
func seed0Digest(workload string) (string, error) {
	b, err := testdata.ReadFile("testdata/" + workload + ".seed0.sha256")
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// studyCold is the paper-reproduction user: every iteration builds a fresh
// Lab, and so a fresh trace store, and reproduces the whole evaluation.
// Each iteration pays a live interpretation-plus-capture pass over the
// suite, plan compilation, and the replays; the HTTP tiers stay idle.
type studyCold struct {
	s       *core.Suite
	reg     *obs.Registry
	last    *core.Lab
	digests []string
	fig12   []bool // whether each iteration's Figure 12 optimum sat at 2-3 stages
}

func (w *studyCold) setup(e *env, span int64) error {
	s, err := e.buildSuite(span)
	w.s, w.reg = s, obs.NewRegistry()
	return err
}

func (w *studyCold) warmup(e *env) (int, error) { return 1, w.iteration(e) }

func (w *studyCold) measure(e *env, window time.Duration) *phase {
	return runBatch(e, window, func() error { return w.iteration(e) })
}

func (w *studyCold) iteration(e *env) error {
	id := e.tr.begin(0, "bench.iteration")
	defer e.tr.end(id)
	lab, err := core.NewLab(w.s, e.params())
	if err != nil {
		return err
	}
	lab.SetObs(w.reg)
	out, fig12ok, err := renderStudy(e.tr, id, lab)
	if err != nil {
		return err
	}
	w.last = lab
	w.digests = append(w.digests, digest(out))
	w.fig12 = append(w.fig12, fig12ok)
	return nil
}

// step is one Lab call of an iteration, spanned as core.<group>.
type step struct {
	group string
	f     func() (any, error)
}

// render runs the steps in order, each in its span, and returns their
// outputs rendered as text.
func render(tr *tracer, parent int64, steps []step) (string, error) {
	var b strings.Builder
	for _, s := range steps {
		err := tr.span(parent, "core."+s.group, func(int64) error {
			v, err := s.f()
			if err != nil {
				return err
			}
			fmt.Fprintln(&b, v)
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	return b.String(), nil
}

// renderStudy reproduces every table and figure of the paper plus the
// optimizations, rendered as text, and reports whether the Figure 12
// optimum sits at two or three pipeline stages.
func renderStudy(tr *tracer, parent int64, lab *core.Lab) (string, bool, error) {
	var fig12 *core.FigureResult
	p := lab.P
	out, err := render(tr, parent, []step{
		{"prewarm", func() (any, error) { return "prewarmed", lab.Prewarm() }},
		{"tables", func() (any, error) { return lab.Table1() }},
		{"tables", func() (any, error) { return lab.Table2() }},
		{"tables", func() (any, error) { return lab.Table3() }},
		{"tables", func() (any, error) { return lab.Table4() }},
		{"tables", func() (any, error) { return lab.Table5() }},
		{"tables", func() (any, error) { return lab.Table6() }},
		{"figures", func() (any, error) { return lab.Figure3(10) }},
		{"figures", func() (any, error) { return lab.Figure4(10) }},
		{"figures", func() (any, error) { return lab.Figure5() }},
		{"figures", func() (any, error) { return lab.Figure6() }},
		{"figures", func() (any, error) { return lab.Figure7() }},
		{"figures", func() (any, error) { return lab.Figure8(10) }},
		{"figures", func() (any, error) { return lab.Figure9() }},
		{"figures", func() (any, error) { return lab.Figure10(), nil }},
		{"figures", func() (any, error) { return lab.Figure11(10) }},
		{"figures", func() (any, error) {
			f, err := lab.Figure12()
			fig12 = f
			return f, err
		}},
		{"figures", func() (any, error) { return lab.Figure13() }},
		{"sweeps", func() (any, error) {
			var pts []core.TPIPoint
			for _, scheme := range []cpisim.LoadScheme{cpisim.LoadStatic, cpisim.LoadDynamic} {
				for _, symmetric := range []bool{false, true} {
					opt, err := lab.BestDesign(p.L2TimeNs, scheme, symmetric)
					if err != nil {
						return nil, err
					}
					pts = append(pts, opt.Best)
				}
			}
			return core.SummaryTable("Optimal designs", pts), nil
		}},
		{"sweeps", func() (any, error) { return lab.DepthMatrix(p.L2TimeNs) }},
		{"sweeps", func() (any, error) { return lab.AsymmetryStudy(p.L2TimeNs) }},
	})
	if err != nil {
		return "", false, err
	}
	return out, fig12Optimal(fig12), nil
}

// fig12Optimal reports whether the lowest TPI of Figure 12 lies on the
// b=l=2 or b=l=3 curve: the paper's central result.
func fig12Optimal(f *core.FigureResult) bool {
	best, bestDepth := math.Inf(1), -1
	for d := 0; d <= 3; d++ {
		ys, ok := f.Series(fmt.Sprintf("b=l=%d", d))
		if !ok {
			return false
		}
		for _, y := range ys {
			if y < best {
				best, bestDepth = y, d
			}
		}
	}
	return bestDepth == 2 || bestDepth == 3
}

// check compares every iteration against a live-only oracle lab (no trace
// store, so every pass interprets) and, at the default scale with seed 0,
// against the checked-in digest.
func (w *studyCold) check(e *env) (int, int, error) {
	p := e.params()
	p.TraceBudgetBytes = -1
	oracle, err := core.NewLab(w.s, p)
	if err != nil {
		return 0, 0, err
	}
	out, _, err := renderStudy(nil, 0, oracle)
	if err != nil {
		return 0, 0, err
	}
	want := digest(out)
	e.logf("oracle digest %s", want)
	wantOK := true
	if e.defaultScale() && e.seed == 0 {
		golden, err := seed0Digest(e.name)
		if err != nil {
			return 0, 0, err
		}
		wantOK = golden == want
	}
	failed := 0
	for i, d := range w.digests {
		if d != want || !wantOK || !w.fig12[i] {
			failed++
		}
	}
	return len(w.digests), failed, nil
}

func (w *studyCold) registries() []*obs.Registry { return []*obs.Registry{w.reg} }
func (w *studyCold) suite() *core.Suite          { return w.s }
func (w *studyCold) lab() *core.Lab              { return w.last }
func (w *studyCold) close()                      { *w = studyCold{} }

// ablationWarm is the ablation user on a warm trace store: captures and
// plan compilation happen in setup, so every iteration is replay work
// through each replay gate — packed direct-mapped plans, the general
// set-associative kernel, the FIFO and Tree-PLRU kernels, and the generic
// path of the BTB and L2 studies. StabilityStudy is left out because it
// re-captures.
type ablationWarm struct {
	s       *core.Suite
	store   *trace.EventStore
	reg     *obs.Registry
	last    *core.Lab
	digests []string
}

// newLab is a fresh lab, so a cold result memo, over the shared store.
func (w *ablationWarm) newLab(e *env) (*core.Lab, error) {
	p := e.params()
	p.TraceBudgetBytes = -1 // replaced by the shared store below
	lab, err := core.NewLab(w.s, p)
	if err != nil {
		return nil, err
	}
	lab.SetTraceStore(w.store)
	lab.SetObs(w.reg)
	return lab, nil
}

func (w *ablationWarm) setup(e *env, span int64) error {
	s, err := e.buildSuite(span)
	if err != nil {
		return err
	}
	w.s, w.reg = s, obs.NewRegistry()
	w.store = trace.NewStore(core.DefaultTraceBudgetBytes)
	lab, err := w.newLab(e)
	if err != nil {
		return err
	}
	w.last = lab
	return e.tr.span(span, "core.prewarm", func(int64) error { return lab.Prewarm() })
}

func (w *ablationWarm) warmup(*env) (int, error) { return 0, nil }

func (w *ablationWarm) measure(e *env, window time.Duration) *phase {
	return runBatch(e, window, func() error { return w.iteration(e) })
}

func (w *ablationWarm) iteration(e *env) error {
	id := e.tr.begin(0, "bench.iteration")
	defer e.tr.end(id)
	lab, err := w.newLab(e)
	if err != nil {
		return err
	}
	out, err := render(e.tr, id, []step{
		{"prewarm", func() (any, error) { return "prewarmed", lab.Prewarm() }},
		{"assoc", func() (any, error) { return lab.AssocStudy(8) }},
		{"blocksize", func() (any, error) { return lab.BlockSizeStudy(8) }},
		{"writepolicy", func() (any, error) { return lab.WritePolicyStudy(10) }},
		{"btbsize", func() (any, error) { return lab.BTBSizeStudy([]int{64, 256, 1024, 4096}) }},
		{"profile", func() (any, error) { return lab.ProfileStudy() }},
		{"quantum", func() (any, error) { return lab.QuantumStudy(8, 10, []int64{2_000, 20_000, 100_000}) }},
		{"policy", func() (any, error) { return lab.PolicyStudy(4, 2) }},
		{"twolevel", func() (any, error) { return lab.TwoLevelStudy(4, []int{32, 64, 128, 256, 512}, 6, 40) }},
	})
	if err != nil {
		return err
	}
	w.last = lab
	w.digests = append(w.digests, digest(out))
	return nil
}

// check requires every iteration to agree with the first and, at the
// default scale with seed 0, with the checked-in digest.
func (w *ablationWarm) check(e *env) (int, int, error) {
	if len(w.digests) == 0 {
		return 0, 0, nil
	}
	want := w.digests[0]
	e.logf("digest %s", want)
	if e.defaultScale() && e.seed == 0 {
		golden, err := seed0Digest(e.name)
		if err != nil {
			return 0, 0, err
		}
		want = golden
	}
	failed := 0
	for _, d := range w.digests {
		if d != want {
			failed++
		}
	}
	return len(w.digests), failed, nil
}

func (w *ablationWarm) registries() []*obs.Registry { return []*obs.Registry{w.reg} }
func (w *ablationWarm) suite() *core.Suite          { return w.s }
func (w *ablationWarm) lab() *core.Lab              { return w.last }
func (w *ablationWarm) close()                      { *w = ablationWarm{} }
