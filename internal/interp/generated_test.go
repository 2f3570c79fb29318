package interp_test

import (
	"math"
	"testing"

	"pipecache/internal/gen"
	"pipecache/internal/interp"
)

func TestGeneratedBenchmarkDynamicMix(t *testing.T) {
	// The headline calibration check: the generated programs' dynamic
	// mixes must track Table 1.
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"gcc", "matrix500", "yacc", "linpack"} {
		spec, ok := gen.LookupSpec(name)
		if !ok {
			t.Fatalf("spec %s missing", name)
		}
		p, err := gen.Build(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		it, err := interp.New(p, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		c := interp.NewCollector(p, 8)
		it.Run(400_000, c)
		if math.Abs(c.LoadFrac()-spec.LoadFrac) > 0.05 {
			t.Errorf("%s: dynamic load fraction %.3f, target %.3f", name, c.LoadFrac(), spec.LoadFrac)
		}
		if math.Abs(c.StoreFrac()-spec.StoreFrac) > 0.05 {
			t.Errorf("%s: dynamic store fraction %.3f, target %.3f", name, c.StoreFrac(), spec.StoreFrac)
		}
		if math.Abs(c.CTIFrac()-spec.BranchFrac) > 0.05 {
			t.Errorf("%s: dynamic CTI fraction %.3f, target %.3f", name, c.CTIFrac(), spec.BranchFrac)
		}
	}
}

func TestEpsilonDistributionsShapedLikePaper(t *testing.T) {
	// Figure 6: over 80% of loads have unrestricted epsilon >= 3.
	// Figure 7: block boundaries sharply reduce that fraction.
	if testing.Short() {
		t.Skip("short mode")
	}
	spec, _ := gen.LookupSpec("gcc")
	p, err := gen.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := interp.New(p, 99)
	c := interp.NewCollector(p, 8)
	it.Run(400_000, c)
	un := c.Eps.FracAtLeast(3)
	re := c.EpsBlock.FracAtLeast(3)
	if un < 0.6 {
		t.Errorf("unrestricted eps>=3 fraction %.2f, paper reports > 0.8", un)
	}
	if re >= un {
		t.Errorf("block-restricted eps>=3 (%.2f) not below unrestricted (%.2f)", re, un)
	}
	if c.Eps.Total() == 0 {
		t.Fatal("no load uses recorded")
	}
}
