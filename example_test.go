package pipecache_test

import (
	"fmt"

	"pipecache"
)

// The refill penalty model of the study: a 2-cycle startup plus the block
// transfer at the given rate (Section 3.1's 6/10/18-cycle penalties are
// 16-word blocks at 4, 2 and 1 words per cycle).
func ExampleRefillPenalty() {
	for _, rate := range []int{4, 2, 1} {
		fmt.Println(pipecache.RefillPenalty(16, rate))
	}
	// Output:
	// 6
	// 10
	// 18
}

// The timing analyzer on the paper's ALU feedback loop: a 2.1 ns add plus
// a 1.4 ns forward path around one latch gives the 3.5 ns cycle floor.
func ExampleTimingGraph() {
	m := pipecache.DefaultTimingModel()
	g, _ := m.CPUGraph(8, 3) // 8 KW side, three pipeline stages
	period, _ := g.MinPeriod()
	fmt.Printf("%.1f ns\n", period)
	// Output:
	// 3.5 ns
}

// Delay-slot translation of a synthesized benchmark: code grows as slots
// are added (Table 2's effect).
func ExampleTranslate() {
	spec, _ := pipecache.LookupBenchmark("small")
	prog, _ := pipecache.BuildProgram(spec, 0)
	t0, _ := pipecache.Translate(prog, 0)
	t3, _ := pipecache.Translate(prog, 3)
	fmt.Println(t0.Expansion() == 0, t3.Expansion() > 0)
	// Output:
	// true true
}
