package core

import (
	"context"
	"fmt"
	"strings"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
)

// maxDelaySlots is the deepest pipelining the study evaluates: every sweep
// and every service endpoint ranges b and l over 0..maxDelaySlots.
const maxDelaySlots = 3

// everyDepth returns the depths 0..maxDelaySlots in order.
func everyDepth() []int {
	depths := make([]int, maxDelaySlots+1)
	for d := range depths {
		depths[d] = d
	}
	return depths
}

// DesignPoint identifies one point of the finite design space the service
// answers from: branch depth, load depth, per-side cache sizes, and the
// load-delay hiding scheme. The L2 service time is a Params-level constant,
// not a per-point coordinate — surfaces are baked at the lab's default.
type DesignPoint struct {
	B, L             int
	ISizeKW, DSizeKW int
	Scheme           cpisim.LoadScheme
}

// Query carries the per-request coordinates of a design-space question:
// the ones that are not dimensions of the DesignSpace enumeration. The
// enumeration has the same shape at every Query; only the per-point
// results differ.
type Query struct {
	// L2TimeNs is the constant-time L1 miss service (Params.L2TimeNs is
	// the lab's default).
	L2TimeNs float64
	// Policy is the replacement policy of the cache banks; passes are
	// memoized per (depth, policy).
	Policy cache.Policy
}

// Query returns the lab's default query: its miss-service time and
// replacement policy.
func (l *Lab) Query() Query { return l.queryAt(l.P.L2TimeNs) }

// queryAt is the lab's default query at another miss-service time.
func (l *Lab) queryAt(l2TimeNs float64) Query {
	return Query{L2TimeNs: l2TimeNs, Policy: l.P.Policy}
}

// DesignSpace enumerates the full design space of p in the canonical
// order every precomputed surface indexes by: b outermost, then l, then
// the I-size bank in Params order, the D-size bank, and finally the load
// scheme (static before dynamic). The ordering is part of the PSF1 surface
// contract (DESIGN.md §13): a surface's point section stores one record
// per entry of this slice, in this order, and DesignIndex inverts it.
func DesignSpace(p Params) []DesignPoint {
	schemes := []cpisim.LoadScheme{cpisim.LoadStatic, cpisim.LoadDynamic}
	pts := make([]DesignPoint, 0, (maxDelaySlots+1)*(maxDelaySlots+1)*len(p.SizesKW)*len(p.SizesKW)*len(schemes))
	for b := 0; b <= maxDelaySlots; b++ {
		for l := 0; l <= maxDelaySlots; l++ {
			for _, iSize := range p.SizesKW {
				for _, dSize := range p.SizesKW {
					for _, sc := range schemes {
						pts = append(pts, DesignPoint{B: b, L: l, ISizeKW: iSize, DSizeKW: dSize, Scheme: sc})
					}
				}
			}
		}
	}
	return pts
}

// DesignIndex returns pt's index in DesignSpace(p), or -1 when the point
// lies outside the space (size not in the bank, depth out of range, or an
// unknown scheme). It is pure arithmetic — no enumeration — so the serving
// hot path can map a request onto a baked record in O(len(SizesKW)).
func DesignIndex(p Params, pt DesignPoint) int {
	if pt.B < 0 || pt.B > maxDelaySlots || pt.L < 0 || pt.L > maxDelaySlots {
		return -1
	}
	iIdx, dIdx := -1, -1
	for i, s := range p.SizesKW {
		if s == pt.ISizeKW {
			iIdx = i
		}
		if s == pt.DSizeKW {
			dIdx = i
		}
	}
	if iIdx < 0 || dIdx < 0 {
		return -1
	}
	var sc int
	switch pt.Scheme {
	case cpisim.LoadStatic:
		sc = 0
	case cpisim.LoadDynamic:
		sc = 1
	default:
		return -1
	}
	ns := len(p.SizesKW)
	return ((((pt.B*(maxDelaySlots+1))+pt.L)*ns+iIdx)*ns+dIdx)*2 + sc
}

// Breakdown decomposes a design point's CPI into its stall sources; the
// components sum to the point's CPI. IMiss is measured against a miss-free
// machine and DMiss is the remainder, so the (small) I/D miss interaction
// is attributed to the data side.
type Breakdown struct {
	Base        float64
	BranchStall float64
	LoadStall   float64
	IMiss       float64
	DMiss       float64
}

// PointEval is one fully evaluated design point: the TPI result, the CPI
// breakdown, and the miss ratios of the two cache sides — the per-point
// tuple a baked surface stores.
type PointEval struct {
	Point     TPIPoint
	Breakdown Breakdown
	IMissRate float64
	DMissRate float64
}

// EvalPoint evaluates one design point with its CPI breakdown and miss
// ratios, all from one lookup of the point's memoized pass. It is the
// single definition of the /v1/simulate result and of a baked surface
// record, shared by the live serving path and the surface baker so they
// can never drift.
func (l *Lab) EvalPoint(ctx context.Context, q Query, dp DesignPoint) (PointEval, error) {
	if err := ValidateL2TimeNs(q.L2TimeNs); err != nil {
		return PointEval{}, err
	}
	tab, err := l.staticTable(ctx, dp.B, q.Policy)
	if err != nil {
		return PointEval{}, err
	}
	l.obs.Counter("lab.tpi_points").Inc()
	return l.eval(tab, q, dp)
}

// eval is EvalPoint over the CPI table of dp's resolved pass: the point
// evaluator tpi plus the breakdown and miss ratios. The caller has
// validated q.
func (l *Lab) eval(tab *cpisim.CPITable, q Query, dp DesignPoint) (PointEval, error) {
	c := l.candidate(dp)
	pt, err := tpi(tab, q, &c)
	if err != nil {
		return PointEval{}, err
	}
	noMiss, err := tab.CPIFor(dp.L, dp.Scheme, -1, -1, 0, 0)
	if err != nil {
		return PointEval{}, err
	}
	withIMiss, err := tab.CPIFor(dp.L, dp.Scheme, c.iIdx, -1, pt.PenCycles, 0)
	if err != nil {
		return PointEval{}, err
	}
	pass := tab.Result()
	branch := pass.BranchCPIComponent()
	load := pass.LoadCPIComponentFor(dp.L, dp.Scheme)
	return PointEval{
		Point: pt,
		Breakdown: Breakdown{
			Base:        noMiss - branch - load,
			BranchStall: branch,
			LoadStall:   load,
			IMiss:       withIMiss - noMiss,
			DMiss:       pt.CPI - withIMiss,
		},
		IMissRate: pass.IMissRatio(c.iIdx),
		DMissRate: pass.DMissRatio(c.dIdx),
	}, nil
}

// EvalSpace evaluates every point of the canonical enumeration
// DesignSpace(l.P), returning the results in enumeration order: the whole
// space a surface bakes. The points behind a fixed b share one memoized
// simulation pass, resolved once before the points (on the lab's bounded
// sweep pool when any is cold), so a sweep costs a handful of passes plus
// per-point table arithmetic, which runs on the calling goroutine; the
// output is bit-identical at any Params.SweepWorkers setting.
func (l *Lab) EvalSpace(ctx context.Context, q Query) ([]PointEval, error) {
	if err := ValidateL2TimeNs(q.L2TimeNs); err != nil {
		return nil, err
	}
	pts := DesignSpace(l.P)
	passes, err := l.sweepPasses(ctx, q.Policy, everyDepth())
	if err != nil {
		return nil, err
	}
	points := l.obs.Counter("lab.tpi_points")
	out := make([]PointEval, len(pts))
	l.progress.StartPhase("design space", int64(len(pts)))
	defer l.progress.Finish()
	err = eachSerial(ctx, len(pts), func(ctx context.Context, i int) error {
		points.Inc()
		ev, err := l.eval(passes[pts[i].B], q, pts[i])
		if err != nil {
			return err
		}
		out[i] = ev
		l.progress.Step(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Fingerprint canonically describes everything the design-space results
// depend on: the experiment parameters, the technology model, and the
// identity of every benchmark in the suite. Two labs with equal
// fingerprints produce bit-identical surfaces; a baked surface records the
// SHA-256 of this string so a server can refuse a surface baked for a
// different space. Execution knobs that cannot change results
// (SweepWorkers, TraceBudgetBytes) are deliberately absent.
func Fingerprint(s *Suite, p Params) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "psf-fingerprint/v1\n")
	fmt.Fprintf(&sb, "insts=%d quantum=%d block=%d l2ns=%g seedoff=%#x\n",
		p.Insts, p.Quantum, p.BlockWords, p.L2TimeNs, p.SeedOffset)
	if p.Policy != cache.PolicyLRU {
		// Appended only for non-default policies so every pre-policy
		// fingerprint (and the params-hash of every already-baked surface)
		// is byte-identical.
		fmt.Fprintf(&sb, "policy=%s\n", p.Policy)
	}
	fmt.Fprintf(&sb, "sizes=%v penalties=%v\n", p.SizesKW, p.Penalties)
	m := p.Model
	fmt.Fprintf(&sb, "model=sram:%d,%g mcm:%g,%g,%g,%g,%g,%g alu:%g,%g latch:%g drive:%g\n",
		m.SRAM.ChipKW, m.SRAM.AccessNs,
		m.MCM.Z0Ohms, m.MCM.ChipPF, m.MCM.ROhmsPerCm, m.MCM.CPFPerCm, m.MCM.PitchCm, m.MCM.K0Ns,
		m.ALUAddNs, m.ALUFeedbackNs, m.LatchNs, m.DriveNs)
	for i, spec := range s.Specs {
		fmt.Fprintf(&sb, "bench=%s seed=%#x weight=%g\n", spec.Name, spec.Seed, s.Weights[i])
	}
	return sb.String()
}
