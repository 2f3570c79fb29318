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

// DesignPoint identifies one point of the finite design space the service
// answers from: branch depth, load depth, per-side cache sizes, and the
// load-delay hiding scheme. The L2 service time is a Params-level constant,
// not a per-point coordinate — surfaces are baked at the lab's default.
type DesignPoint struct {
	B, L             int
	ISizeKW, DSizeKW int
	Scheme           cpisim.LoadScheme
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

// EvalPoint evaluates one design point plus its CPI breakdown; this is the
// single definition of the /v1/simulate result, shared by the live serving
// path and the surface baker so the two can never drift.
func (l *Lab) EvalPoint(b, ld, iSizeKW, dSizeKW int, scheme cpisim.LoadScheme, l2TimeNs float64) (TPIPoint, Breakdown, error) {
	return l.EvalPointContext(context.Background(), b, ld, iSizeKW, dSizeKW, scheme, l2TimeNs)
}

// EvalPointContext is EvalPoint with cooperative cancellation.
func (l *Lab) EvalPointContext(ctx context.Context, b, ld, iSizeKW, dSizeKW int, scheme cpisim.LoadScheme, l2TimeNs float64) (TPIPoint, Breakdown, error) {
	return l.EvalPointPolicyContext(ctx, b, ld, iSizeKW, dSizeKW, scheme, l2TimeNs, l.P.Policy)
}

// EvalPointPolicyContext is EvalPointContext with an explicit replacement
// policy: the per-request policy override of /v1/simulate resolves here,
// against the (depth, policy)-memoized pass.
func (l *Lab) EvalPointPolicyContext(ctx context.Context, b, ld, iSizeKW, dSizeKW int, scheme cpisim.LoadScheme, l2TimeNs float64, pol cache.Policy) (TPIPoint, Breakdown, error) {
	var bd Breakdown
	pt, err := l.TPIPolicyContext(ctx, b, ld, iSizeKW, dSizeKW, scheme, l2TimeNs, pol)
	if err != nil {
		return pt, bd, err
	}
	pass, err := l.StaticPassPolicyContext(ctx, b, pol)
	if err != nil {
		return pt, bd, err
	}
	iIdx, err := l.sizeIndex(iSizeKW)
	if err != nil {
		return pt, bd, err
	}
	noMiss, err := pass.CPIFor(ld, scheme, -1, -1, 0, 0)
	if err != nil {
		return pt, bd, err
	}
	withIMiss, err := pass.CPIFor(ld, scheme, iIdx, -1, pt.PenCycles, 0)
	if err != nil {
		return pt, bd, err
	}
	branch := pass.BranchCPIComponent()
	load := pass.LoadCPIComponentFor(ld, scheme)
	bd = Breakdown{
		Base:        noMiss - branch - load,
		BranchStall: branch,
		LoadStall:   load,
		IMiss:       withIMiss - noMiss,
		DMiss:       pt.CPI - withIMiss,
	}
	return pt, bd, nil
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

// EvalDesignSpaceContext evaluates every point of DesignSpace(l.P) at the
// given miss-service time on the lab's bounded sweep pool, returning the
// results in canonical order. The points behind a fixed b share one
// memoized simulation pass, so the sweep costs a handful of passes plus
// cheap per-point arithmetic regardless of worker count, and the output is
// bit-identical at any Params.SweepWorkers setting.
func (l *Lab) EvalDesignSpaceContext(ctx context.Context, l2TimeNs float64) ([]PointEval, error) {
	return l.EvalDesignRangeContext(ctx, l2TimeNs, 0, len(DesignSpace(l.P)))
}

// EvalDesignRangeContext evaluates the contiguous sub-range [lo, hi) of the
// canonical enumeration at the given miss-service time, returning hi-lo
// results in enumeration order. It is the backend entry point of the
// coordinator tier's fan-out (/v1/sweep-range): because each shard's output
// is a slice of the same canonical order the full surface uses, a
// coordinator that concatenates sub-range results in range order
// reconstructs exactly the single-node sweep, point for point and bit for
// bit. The per-point math is EvalPointContext — the one definition the
// single-node server and the surface baker share — so sharded and unsharded
// evaluations cannot drift.
func (l *Lab) EvalDesignRangeContext(ctx context.Context, l2TimeNs float64, lo, hi int) ([]PointEval, error) {
	return l.EvalDesignRangePolicyContext(ctx, l2TimeNs, l.P.Policy, lo, hi)
}

// EvalDesignRangePolicyContext is EvalDesignRangeContext with an explicit
// replacement policy. The policy is a per-request coordinate like the
// miss-service time, not a dimension of the canonical enumeration: the
// point order (and so the coordinator's sub-range merge) is identical for
// every policy, only the per-point results differ.
func (l *Lab) EvalDesignRangePolicyContext(ctx context.Context, l2TimeNs float64, pol cache.Policy, lo, hi int) ([]PointEval, error) {
	pts := DesignSpace(l.P)
	if lo < 0 || hi > len(pts) || lo > hi {
		return nil, fmt.Errorf("core: design range [%d, %d) outside the %d-point space", lo, hi, len(pts))
	}
	// Run the range's passes first, one per worker. The enumeration puts b
	// outermost and every point behind one b shares a memoized pass, so a
	// cold point sweep would park all workers on the same pass, one depth
	// at a time, while each pass runs on a single core.
	var depths []int
	for _, dp := range pts[lo:hi] {
		if len(depths) == 0 || depths[len(depths)-1] != dp.B {
			depths = append(depths, dp.B)
		}
	}
	err := l.forEach(ctx, len(depths), func(ctx context.Context, i int) error {
		_, err := l.StaticPassPolicyContext(ctx, depths[i], pol)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]PointEval, hi-lo)
	l.progress.StartPhase("design-space range", int64(hi-lo))
	defer l.progress.Finish()
	err = l.forEach(ctx, hi-lo, func(ctx context.Context, i int) error {
		dp := pts[lo+i]
		tp, bd, err := l.EvalPointPolicyContext(ctx, dp.B, dp.L, dp.ISizeKW, dp.DSizeKW, dp.Scheme, l2TimeNs, pol)
		if err != nil {
			return err
		}
		pass, err := l.StaticPassPolicyContext(ctx, dp.B, pol)
		if err != nil {
			return err
		}
		iIdx, err := l.sizeIndex(dp.ISizeKW)
		if err != nil {
			return err
		}
		dIdx, err := l.sizeIndex(dp.DSizeKW)
		if err != nil {
			return err
		}
		out[i] = PointEval{
			Point:     tp,
			Breakdown: bd,
			IMissRate: pass.IMissRatio(iIdx),
			DMissRate: pass.DMissRatio(dIdx),
		}
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
