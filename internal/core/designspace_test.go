package core

import (
	"context"
	"slices"
	"testing"

	"pipecache/internal/cpisim"
	"pipecache/internal/gen"
)

// TestDesignSpaceEnumeration pins the canonical enumeration: every point
// once, b outermost, then l, the I-size bank, the D-size bank and the load
// scheme, static before dynamic.
func TestDesignSpaceEnumeration(t *testing.T) {
	p := DefaultParams()
	var want []DesignPoint
	for b := 0; b <= 3; b++ {
		for l := 0; l <= 3; l++ {
			for _, is := range p.SizesKW {
				for _, ds := range p.SizesKW {
					for _, sc := range []cpisim.LoadScheme{cpisim.LoadStatic, cpisim.LoadDynamic} {
						want = append(want, DesignPoint{B: b, L: l, ISizeKW: is, DSizeKW: ds, Scheme: sc})
					}
				}
			}
		}
	}
	if got := DesignSpace(p); !slices.Equal(got, want) {
		t.Fatalf("DesignSpace has %d points, not the %d of the canonical order", len(got), len(want))
	}
}

// TestFingerprintSensitivity: the fingerprint must move with every
// result-bearing parameter and stay put for execution-only knobs, so
// baked surfaces are accepted exactly when they answer the same space.
func TestFingerprintSensitivity(t *testing.T) {
	// Fingerprint reads only the spec identities and weights, so a suite
	// literal avoids synthesizing programs here.
	s := &Suite{
		Specs:   []gen.Spec{{Name: "gcc", Seed: 0x1}, {Name: "yacc", Seed: 0x2}},
		Weights: []float64{0.5, 0.5},
	}
	p := DefaultParams()
	base := Fingerprint(s, p)

	same := p
	same.SweepWorkers = 7
	same.TraceBudgetBytes = 123
	if Fingerprint(s, same) != base {
		t.Error("fingerprint moved with an execution-only knob")
	}

	for name, mut := range map[string]func(*Params){
		"insts":     func(q *Params) { q.Insts++ },
		"l2ns":      func(q *Params) { q.L2TimeNs++ },
		"sizes":     func(q *Params) { q.SizesKW = []int{1, 2} },
		"penalties": func(q *Params) { q.Penalties = []int{7} },
		"seed":      func(q *Params) { q.SeedOffset = 0xDEAD },
	} {
		q := p
		mut(&q)
		if Fingerprint(s, q) == base {
			t.Errorf("fingerprint did not move with %s", name)
		}
	}
}

// TestEvalPointNoObsAllocs: on a lab without a registry, a warm EvalPoint
// allocates nothing. A nil registry hands out nil instruments whose
// methods do nothing, so counting a point costs no allocation.
func TestEvalPointNoObsAllocs(t *testing.T) {
	spec, ok := gen.LookupSpec("loops")
	if !ok {
		t.Fatal("spec loops missing")
	}
	suite, err := BuildSuite([]gen.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Insts = 20_000
	lab, err := NewLab(suite, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := lab.Query()
	dp := DesignPoint{B: 1, L: 1, ISizeKW: 4, DSizeKW: 4, Scheme: cpisim.LoadStatic}
	if _, err := lab.EvalPoint(ctx, q, dp); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := lab.EvalPoint(ctx, q, dp); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm EvalPoint without a registry makes %.1f allocations, want 0", allocs)
	}
}
