// Designsweep: the paper's Section 5 multilevel optimization on a
// sub-suite — sweep pipeline depth and cache size, print the TPI surface
// and the optimal design, and compare static versus dynamic load
// scheduling.
//
// Run with: go run ./examples/designsweep
package main

import (
	"context"
	"fmt"
	"log"

	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/gen"
)

func main() {
	var specs []gen.Spec
	for _, name := range []string{"gcc", "espresso", "yacc", "loops", "matrix500", "tex"} {
		s, ok := gen.LookupSpec(name)
		if !ok {
			log.Fatalf("spec %s missing", name)
		}
		specs = append(specs, s)
	}
	suite, err := core.BuildSuite(specs)
	if err != nil {
		log.Fatal(err)
	}
	params := core.DefaultParams()
	params.Insts = 400_000
	lab, err := core.NewLab(suite, params)
	if err != nil {
		log.Fatal(err)
	}

	fig12, err := lab.Figure12()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fig12)

	ctx, q := context.Background(), lab.Query()
	var pts []core.TPIPoint
	for depth := 0; depth <= 3; depth++ {
		best := core.TPIPoint{TPINs: 1e18}
		for _, side := range params.SizesKW {
			pt, err := lab.TPI(ctx, q, core.DesignPoint{B: depth, L: depth, ISizeKW: side, DSizeKW: side})
			if err != nil {
				log.Fatal(err)
			}
			if pt.TPINs < best.TPINs {
				best = pt
			}
		}
		pts = append(pts, best)
	}
	fmt.Println(core.SummaryTable("Best design per pipeline depth", pts))

	opt, err := lab.Best(ctx, q, cpisim.LoadStatic, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overall optimum (static loads):  %s\n", opt.Best)
	optDyn, err := lab.Best(ctx, q, cpisim.LoadDynamic, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("overall optimum (dynamic loads): %s\n", optDyn.Best)

	be, err := lab.DynamicBreakEven(optDyn.Best.B, optDyn.Best.L,
		optDyn.Best.ISizeKW, optDyn.Best.DSizeKW, params.L2TimeNs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndynamic out-of-order load issue may stretch tCPU by at most %.1f%%\n", 100*be)
	fmt.Println("before it loses to static scheduling (the paper's ~10% figure).")
}
