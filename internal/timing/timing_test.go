package timing

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestK1Composition(t *testing.T) {
	m := MCM{Z0Ohms: 50, ChipPF: 1, ROhmsPerCm: 0, CPFPerCm: 1, PitchCm: 1, K0Ns: 0}
	// Pure lumped term: 50 ohm * 1 pF = 50 ps.
	if got := m.K1Ns(); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("K1 = %g, want 0.05", got)
	}
	m2 := MCM{Z0Ohms: 0, ChipPF: 1, ROhmsPerCm: 1, CPFPerCm: 1, PitchCm: 2, K0Ns: 0}
	// Pure RC term: 2*d^2*R*C = 2*4*1*1 pF*ohm = 8 ps.
	if got := m2.K1Ns(); math.Abs(got-0.008) > 1e-12 {
		t.Fatalf("K1 = %g, want 0.008", got)
	}
}

func TestMCMLinearInChips(t *testing.T) {
	m := DefaultModel().MCM
	d1 := m.OneWayNs(10) - m.OneWayNs(5)
	d2 := m.OneWayNs(15) - m.OneWayNs(10)
	if math.Abs(d1-d2) > 1e-12 {
		t.Fatalf("t_MCM not linear: %g vs %g", d1, d2)
	}
	if m.RoundTripNs(4) != 2*m.OneWayNs(4) {
		t.Fatal("round trip not twice one way")
	}
}

func TestMCMValidate(t *testing.T) {
	if err := DefaultModel().MCM.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := MCM{Z0Ohms: -1, ChipPF: 1, CPFPerCm: 1, PitchCm: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("bad MCM accepted")
	}
}

func TestPlanFloorShape(t *testing.T) {
	f := PlanFloor(32, 1.0)
	if f.Rows*f.Cols < 32 {
		t.Fatalf("floorplan %dx%d holds fewer than 32 chips", f.Rows, f.Cols)
	}
	// Long side roughly twice the short side (sqrt(2n) vs sqrt(n/2) = 2x).
	ratio := float64(f.Cols) / float64(f.Rows)
	if ratio < 1.5 || ratio > 3.5 {
		t.Fatalf("aspect ratio %g, want ~2", ratio)
	}
	if f.MaxWireCm <= 0 {
		t.Fatal("no wire length")
	}
}

func TestPlanFloorWireGrowsWithChips(t *testing.T) {
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		f := PlanFloor(n, 1.2)
		if f.MaxWireCm < prev {
			t.Fatalf("wire length shrank at %d chips", n)
		}
		prev = f.MaxWireCm
	}
	if f := PlanFloor(0, 1); f.Chips != 0 {
		t.Fatal("zero chips should be empty")
	}
}

func TestCacheAccessGrowsWithSize(t *testing.T) {
	m := DefaultModel()
	prev := 0.0
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		tl1 := m.CacheAccessNs(s)
		if tl1 <= prev {
			t.Fatalf("t_L1 not increasing at %d KW", s)
		}
		prev = tl1
	}
}

func TestGraphMinPeriodSimpleLoop(t *testing.T) {
	g := &Graph{}
	a := g.AddLatch("a")
	if err := g.AddPath(a, a, 3.5); err != nil {
		t.Fatal(err)
	}
	p, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-3.5) > 1e-9 {
		t.Fatalf("period = %g, want 3.5", p)
	}
}

func TestGraphMinPeriodMeanOfCycle(t *testing.T) {
	// Two latches, delays 5 and 1: mean 3 with time borrowing.
	g := &Graph{}
	a := g.AddLatch("a")
	b := g.AddLatch("b")
	g.AddPath(a, b, 5)
	g.AddPath(b, a, 1)
	p, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-3) > 1e-9 {
		t.Fatalf("period = %g, want 3", p)
	}
}

func TestGraphMinPeriodPicksWorstCycle(t *testing.T) {
	g := &Graph{}
	a := g.AddLatch("a")
	b := g.AddLatch("b")
	c := g.AddLatch("c")
	g.AddPath(a, a, 2) // mean 2
	g.AddPath(b, c, 6)
	g.AddPath(c, b, 2) // mean 4 <- critical
	p, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-4) > 1e-9 {
		t.Fatalf("period = %g, want 4", p)
	}
}

func TestGraphErrors(t *testing.T) {
	g := &Graph{}
	if _, err := g.MinPeriod(); err == nil {
		t.Fatal("empty graph accepted")
	}
	a := g.AddLatch("a")
	b := g.AddLatch("b")
	if err := g.AddPath(a, 5, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := g.AddPath(a, b, -1); err == nil {
		t.Fatal("negative delay accepted")
	}
	g.AddPath(a, b, 1)
	if _, err := g.MinPeriod(); err == nil {
		t.Fatal("acyclic graph should error")
	}
}

func TestGraphMinPeriodProperty(t *testing.T) {
	// For a ring of k latches with total delay D, the period is D/k.
	f := func(seed uint64) bool {
		k := int(seed%6) + 1
		total := float64(seed%100)/10 + 1
		g := &Graph{}
		first := g.AddLatch("l0")
		prev := first
		for i := 1; i < k; i++ {
			n := g.AddLatch("l")
			g.AddPath(prev, n, total/float64(k))
			prev = n
		}
		g.AddPath(prev, first, total/float64(k))
		p, err := g.MinPeriod()
		if err != nil {
			return false
		}
		return math.Abs(p-total/float64(k)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPUPaperAnchors(t *testing.T) {
	m := DefaultModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// Anchor 1: the ALU loop floor is 3.5 ns (2.1 add + 1.4 feedback).
	if got := m.ALULoopNs(); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("ALU loop %g, want 3.5", got)
	}
	// Anchor 2: depth 0 leaves tCPU above 10 ns for every size.
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		tc, err := m.TCPU(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tc < 10 {
			t.Errorf("depth-0 tCPU at %d KW = %g, paper says > 10 ns", s, tc)
		}
	}
	// Anchor 3: depth 3 is ALU-limited (3.5 ns) at every size up to 32 KW.
	for _, s := range []int{1, 2, 4, 8, 16, 32} {
		tc, err := m.TCPU(s, 3)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(tc-3.5) > 1e-6 {
			t.Errorf("depth-3 tCPU at %d KW = %g, want ALU floor 3.5", s, tc)
		}
	}
}

// TestTCPUPaperAnchorsUnsatisfiable pins the claim EXPERIMENTS.md makes
// about Figure 13: the paper's depth-0 anchor (tCPU above 10 ns at every
// size), its depth-2 anchor (read here as Figure 13's b=l=2, 16 KW-total
// optimum running at the ALU floor at 8 KW per side) and its depth-3
// anchor (ALU-limited up to 32 KW) cannot all hold under the model, so
// the calibration keeps depths 0 and 3 and lets depth 2 float. The
// model's cycle time at depth d is max(ALU, (t_addr + tL1)/(d+1) + latch)
// with t_addr = add + drive: the cache loop holds d+1 latches around
// t_addr, tL1 and d+1 latch overheads. Depth 0 above 10 ns at 1 KW and
// depth 2 at the floor F at 8 KW together require tL1(8) - tL1(1) +
// 2 latch < 3F - 10, whatever t_addr and the SRAM access time are; the
// calibrated MCM growth and latch overhead do not meet it. The test fails
// if a constant moves so that all three anchors hold, or so that some add
// and SRAM time could make the first two hold.
func TestTCPUPaperAnchorsUnsatisfiable(t *testing.T) {
	m := DefaultModel()
	sizes := []int{1, 2, 4, 8, 16, 32}
	floor := m.ALULoopNs()
	tcpu := func(s, d int) float64 {
		tc, err := m.TCPU(s, d)
		if err != nil {
			t.Fatal(err)
		}
		return tc
	}
	// The closed form is the analyzer's answer.
	taddr := m.ALUAddNs + m.DriveNs
	for _, s := range sizes {
		for d := 0; d <= 3; d++ {
			want := math.Max(floor, (taddr+m.CacheAccessNs(s))/float64(d+1)+m.LatchNs)
			if got := tcpu(s, d); math.Abs(got-want) > 1e-9 {
				t.Fatalf("TCPU(%d, %d) = %g, closed form %g", s, d, got, want)
			}
		}
	}

	depth0, depth3 := true, true
	for _, s := range sizes {
		depth0 = depth0 && tcpu(s, 0) > 10
		depth3 = depth3 && math.Abs(tcpu(s, 3)-floor) <= 1e-6
	}
	depth2 := math.Abs(tcpu(8, 2)-floor) <= 1e-6
	if !depth0 || !depth3 {
		t.Fatalf("the kept anchors fail: depth 0 above 10 ns %v, depth 3 at the floor %v", depth0, depth3)
	}
	if depth2 {
		t.Fatalf("all three anchors hold (depth 2 at 8 KW = %g ns): EXPERIMENTS.md's Figure 13 account is stale", tcpu(8, 2))
	}
	slack := 3*floor - 10 - (m.CacheAccessNs(8) - m.CacheAccessNs(1)) - 2*m.LatchNs
	if slack > 0 {
		t.Fatalf("slack %g ns > 0: some add and SRAM access time satisfy the depth-0 and depth-2 anchors together", slack)
	}
	t.Logf("depth 2 at 8 KW: %.2f ns against the %.2f ns floor; slack %.2f ns", tcpu(8, 2), floor, slack)
}

func TestTCPUMonotonic(t *testing.T) {
	m := DefaultModel()
	// Deeper pipeline never increases cycle time; larger cache never
	// decreases it.
	for _, s := range []int{1, 4, 16, 32} {
		prev := math.Inf(1)
		for d := 0; d <= 3; d++ {
			tc, err := m.TCPU(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if tc > prev+1e-9 {
				t.Fatalf("tCPU increased with depth at %d KW d=%d", s, d)
			}
			prev = tc
		}
	}
	for d := 0; d <= 3; d++ {
		prev := 0.0
		for _, s := range []int{1, 2, 4, 8, 16, 32} {
			tc, _ := m.TCPU(s, d)
			if tc < prev-1e-9 {
				t.Fatalf("tCPU decreased with size at d=%d s=%d", d, s)
			}
			prev = tc
		}
	}
}

func TestTCPUSlopeIsInverseDepth(t *testing.T) {
	// The paper: optimized clocking makes tCPU grow by 1/(d+1) per unit of
	// t_L1 (above the ALU floor).
	m := DefaultModel()
	for d := 1; d <= 2; d++ {
		t8, _ := m.TCPU(8, d)
		t32, _ := m.TCPU(32, d)
		dtl1 := m.CacheAccessNs(32) - m.CacheAccessNs(8)
		slope := (t32 - t8) / dtl1
		want := 1 / float64(d+1)
		if math.Abs(slope-want) > 0.02 {
			t.Errorf("depth %d slope %g, want %g", d, slope, want)
		}
	}
}

func TestTCPUSplitTakesMax(t *testing.T) {
	m := DefaultModel()
	ti, _ := m.TCPU(32, 1)
	td, _ := m.TCPU(1, 3)
	got, err := m.TCPUSplit(32, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got != math.Max(ti, td) {
		t.Fatalf("split tCPU %g, want max(%g,%g)", got, ti, td)
	}
}

func TestTable6Shape(t *testing.T) {
	m := DefaultModel()
	sizes := []int{1, 2, 4, 8, 16, 32}
	depths := []int{0, 1, 2, 3}
	tab, err := m.Table6(sizes, depths)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab) != len(sizes) || len(tab[0]) != len(depths) {
		t.Fatalf("table shape %dx%d", len(tab), len(tab[0]))
	}
	// Every entry at least the ALU floor.
	for i := range tab {
		for j := range tab[i] {
			if tab[i][j] < 3.5-1e-9 {
				t.Fatalf("entry [%d][%d] = %g below ALU floor", i, j, tab[i][j])
			}
		}
	}
}

func TestModelErrors(t *testing.T) {
	m := DefaultModel()
	if _, err := m.TCPU(0, 1); err == nil {
		t.Fatal("zero size accepted")
	}
	if _, err := m.TCPU(4, -1); err == nil {
		t.Fatal("negative depth accepted")
	}
	bad := Model{}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero model validated")
	}
}

func TestChips(t *testing.T) {
	m := DefaultModel()
	if m.Chips(8) != 8 || m.Chips(0) != 0 {
		t.Fatalf("chips: %d %d", m.Chips(8), m.Chips(0))
	}
	m.SRAM.ChipKW = 4
	if m.Chips(6) != 2 {
		t.Fatalf("chips(6) with 4KW chips = %d, want 2", m.Chips(6))
	}
}

func TestAssocAccessTime(t *testing.T) {
	m := DefaultModel()
	dm := m.CacheAccessNs(8)
	a1, err := m.CacheAccessAssocNs(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != dm {
		t.Fatalf("1-way access %.3f != direct %.3f", a1, dm)
	}
	a4, err := m.CacheAccessAssocNs(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a4-(dm+2*AssocOverheadNs)) > 1e-9 {
		t.Fatalf("4-way access %.3f, want direct+%.2f", a4, 2*AssocOverheadNs)
	}
	if _, err := m.CacheAccessAssocNs(8, 3); err == nil {
		t.Fatal("non-power-of-two associativity accepted")
	}
}

func TestTCPUAssocMonotonicInWays(t *testing.T) {
	m := DefaultModel()
	for _, d := range []int{0, 1, 2} {
		prev := 0.0
		for _, a := range []int{1, 2, 4, 8} {
			tc, err := m.TCPUAssoc(8, d, a)
			if err != nil {
				t.Fatal(err)
			}
			if tc < prev-1e-9 {
				t.Fatalf("tCPU fell with associativity at d=%d a=%d", d, a)
			}
			prev = tc
		}
	}
}

func TestAssocCheaperWhenPipelined(t *testing.T) {
	// The paper's conjecture, timing side: the cycle-time cost of
	// associativity shrinks with pipeline depth (1/(d+1) of the added
	// access time), and vanishes when the ALU loop is critical.
	m := DefaultModel()
	cost := func(d int) float64 {
		dm, _ := m.TCPUAssoc(8, d, 1)
		aw, _ := m.TCPUAssoc(8, d, 4)
		return aw - dm
	}
	c0, c2, c3 := cost(0), cost(2), cost(3)
	if !(c0 > c2 && c2 >= c3) {
		t.Fatalf("associativity cycle cost not shrinking with depth: %.3f %.3f %.3f", c0, c2, c3)
	}
	if c3 > 1e-9 {
		t.Fatalf("ALU-limited depth should hide the associativity cost, got %.3f", c3)
	}
}

func TestTCPUSplitAssoc(t *testing.T) {
	m := DefaultModel()
	ti, _ := m.TCPUAssoc(8, 2, 4)
	td, _ := m.TCPUAssoc(8, 2, 1)
	got, err := m.TCPUSplitAssoc(8, 2, 4, 8, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got != math.Max(ti, td) {
		t.Fatalf("split assoc tCPU %.3f", got)
	}
}

func TestParseCircuit(t *testing.T) {
	src := `
# the paper's ALU loop plus a two-stage cache loop
latch alu
path alu alu 3.5

latch agen
latch c0
path agen c0 4.2
path c0 agen 4.2
`
	g, err := ParseCircuit(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Latches() != 3 {
		t.Fatalf("latches = %d", g.Latches())
	}
	p, err := g.MinPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-4.2) > 1e-9 {
		t.Fatalf("period = %g, want 4.2 (cache loop mean)", p)
	}
}

func TestParseCircuitErrors(t *testing.T) {
	cases := []string{
		"latch",                 // missing name
		"latch a\nlatch a",      // duplicate
		"path a b 1",            // unknown latches
		"latch a\npath a a",     // missing delay
		"latch a\npath a a xyz", // bad delay
		"latch a\npath a a -1",  // negative delay
		"widget a",              // unknown directive
	}
	for i, src := range cases {
		if _, err := ParseCircuit(strings.NewReader(src)); err == nil {
			t.Errorf("case %d accepted: %q", i, src)
		}
	}
}
