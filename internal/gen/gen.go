package gen

import (
	"fmt"
	"math"

	"pipecache/internal/interp"
	"pipecache/internal/isa"
	"pipecache/internal/program"
	"pipecache/internal/stats"
)

// Address-space layout of one synthesized program, as word offsets from its
// base. Each process in a multiprogrammed trace gets its own base, so
// processes never alias in a physically-indexed cache.
const (
	textOffset  = 0x000000
	gpOffset    = 0x100000 // 1 MW into the slice
	stackOffset = 0x180000
	dataOffset  = 0x200000

	gpAreaWords  = 16 * 1024 // the paper's 64 KB gp area
	frameWords   = 64
	maxLoopDepth = 2
)

// Build synthesizes the benchmark described by spec, placing its text and
// data at the given word-address base. The generator self-calibrates: it
// regenerates up to four times, nudging its internal emission rates until
// the static instruction mix is within tolerance of the spec's targets.
func Build(spec Spec, base uint32) (*program.Program, error) {
	if spec.BranchFrac <= 0 || spec.BranchFrac >= 0.5 {
		return nil, fmt.Errorf("gen: %s: branch fraction %g out of range", spec.Name, spec.BranchFrac)
	}
	if spec.LoadFrac <= 0 || spec.StoreFrac < 0 || spec.LoadFrac+spec.StoreFrac >= 0.8 {
		return nil, fmt.Errorf("gen: %s: memory fractions %g/%g out of range", spec.Name, spec.LoadFrac, spec.StoreFrac)
	}
	if spec.CodeKW <= 0 || spec.DataKW <= 0 {
		return nil, fmt.Errorf("gen: %s: zero code or data size", spec.Name)
	}

	// Initial emission rates: targets scaled to the non-CTI share of the
	// stream (CTIs do not accrue load/store credit); refined by
	// calibration below.
	tune := tuning{
		qLoad:     spec.LoadFrac / (1 - spec.BranchFrac),
		qStore:    spec.StoreFrac / (1 - spec.BranchFrac),
		meanBlock: clampF(1/spec.BranchFrac, 3, 30),
	}

	var (
		best      *program.Program
		bestScore = math.Inf(1)
	)
	for iter := 0; iter < 18; iter++ {
		g := newGenerator(spec, base, tune, spec.Seed+uint64(iter)*0x9E37)
		p, err := g.generate()
		if err != nil {
			return nil, err
		}
		m, err := DynamicMix(p, spec.Seed)
		if err != nil {
			return nil, err
		}
		// Relative errors, so low-frequency components (e.g. a 5% CTI
		// fraction) are weighted as strongly as the large ones.
		score := math.Abs(m.LoadFrac-spec.LoadFrac)/spec.LoadFrac +
			math.Abs(m.StoreFrac-spec.StoreFrac)/math.Max(spec.StoreFrac, 0.02) +
			math.Abs(m.CTIFrac-spec.BranchFrac)/spec.BranchFrac
		if score < bestScore {
			best, bestScore = p, score
		}
		if score < 0.08 {
			break
		}
		// Damped multiplicative updates: the dynamic mix is noisy across
		// regenerations, so full-strength steps oscillate.
		tune.qLoad = clampF(tune.qLoad*damp(spec.LoadFrac, m.LoadFrac), 0.01, 0.75)
		tune.qStore = clampF(tune.qStore*damp(spec.StoreFrac, m.StoreFrac), 0.005, 0.6)
		tune.meanBlock = clampF(tune.meanBlock*damp(m.CTIFrac, spec.BranchFrac), 2.2, 48)
	}
	return best, nil
}

// damp returns (target/actual)^0.85, a mildly damped correction factor;
// with error-diffusion emission the response is nearly linear, so strong
// steps converge quickly without oscillating.
func damp(target, actual float64) float64 {
	if actual <= 0 || target <= 0 {
		return 1
	}
	return math.Pow(target/actual, 0.85)
}

// DynamicMix measures a program's executed instruction mix over a short,
// deterministic run. Build calibrates against this (not the static mix)
// because loops weight the executed stream toward their bodies.
func DynamicMix(p *program.Program, seed uint64) (Mix, error) {
	it, err := interp.New(p, seed)
	if err != nil {
		return Mix{}, err
	}
	c := interp.NewCollector(p, 4)
	const probe = 120_000
	it.Run(probe, c)
	return Mix{
		Insts:     int(c.Insts),
		LoadFrac:  c.LoadFrac(),
		StoreFrac: c.StoreFrac(),
		CTIFrac:   c.CTIFrac(),
	}, nil
}

type tuning struct {
	qLoad, qStore float64
	meanBlock     float64
}

// Mix summarizes an instruction mix.
type Mix struct {
	Insts     int
	LoadFrac  float64
	StoreFrac float64
	CTIFrac   float64
}

func within(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// tail is a deferred control-flow edge: calling it with the successor block
// completes the edge (fallthrough, jump, branch fall-path, or call return).
type tail func(next int)

type pendingUse struct {
	reg isa.Reg
	due int // instructions until the consumer is emitted
}

type generator struct {
	spec Spec
	tune tuning
	rng  *stats.RNG
	bd   *program.Builder
	base uint32

	budget  int // static instructions remaining
	regions []program.DataRegion

	// Register rotation for destinations; recent defs serve as sources.
	pool    []isa.Reg
	poolIdx int
	fpool   []isa.Reg
	fpIdx   int
	recent  []isa.Reg

	pending []pendingUse

	// Error-diffusion credit for load/store emission (see afterEmit).
	loadCarry  float64
	storeCarry float64

	memWeights []float64 // gp, stack, array, heap
	fpFrac     float64

	numProcs     int
	callsEmitted int
}

func newGenerator(spec Spec, base uint32, tune tuning, seed uint64) *generator {
	g := &generator{
		spec: spec,
		tune: tune,
		rng:  stats.NewRNG(seed),
		base: base,
	}
	// Reserved registers: T9 branch conditions, T8 array pointer, AT
	// chase/dispatch pointer, GP/SP/FP/RA conventions.
	g.pool = []isa.Reg{
		isa.V0, isa.V1, isa.A0, isa.A1, isa.A2, isa.A3,
		isa.T0, isa.T1, isa.T2, isa.T3, isa.T4, isa.T5, isa.T6, isa.T7,
		isa.S0, isa.S1, isa.S2, isa.S3,
	}
	for i := 0; i < 12; i++ {
		g.fpool = append(g.fpool, isa.F(2*i))
	}
	g.recent = []isa.Reg{isa.A0, isa.A1, isa.V0}
	switch spec.Kind {
	case Integer:
		g.memWeights = []float64{0.30, 0.34, 0.16, 0.20}
		g.fpFrac = 0.02
	default:
		g.memWeights = []float64{0.10, 0.12, 0.70, 0.08}
		g.fpFrac = 0.45
	}
	return g
}

func (g *generator) generate() (*program.Program, error) {
	codeWords := int(g.spec.CodeKW * 1024)
	g.budget = codeWords
	// Many small procedures: a procedure executes every call site on its
	// straight-line spine once per visit, so the dynamic call-tree
	// branching factor is (call sites per proc); small procedures keep it
	// near one and let execution sweep breadth-first across the image the
	// way real integer code does.
	g.numProcs = clampI(codeWords/96, 3, 1536) + 1 // +1 driver

	g.bd = program.NewBuilder(g.spec.Name, g.base+textOffset)
	g.buildRegions()

	// Per-procedure budgets: random split of the non-driver budget.
	bodyBudget := g.budget - 64 // reserve a sliver for the driver
	shares := make([]float64, g.numProcs-1)
	var sum float64
	for i := range shares {
		shares[i] = 0.4 + g.rng.Float64()
		sum += shares[i]
	}

	g.genDriver()
	for i := 1; i < g.numProcs; i++ {
		b := int(float64(bodyBudget) * shares[i-1] / sum)
		if b < 40 {
			b = 40
		}
		g.genProc(i, b)
	}

	prog, err := g.bd.Finish()
	if err != nil {
		return nil, err
	}
	prog.Data = program.DataLayout{
		GPBase:    g.base + gpOffset,
		GPSize:    gpAreaWords,
		StackBase: g.base + stackOffset,
		FrameSize: frameWords,
		Regions:   g.regions,
	}
	if err := prog.Data.Validate(prog); err != nil {
		return nil, err
	}
	return prog, nil
}

func clampI(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// buildRegions splits the data working set into array regions plus one heap
// region.
func (g *generator) buildRegions() {
	dataWords := uint32(g.spec.DataKW * 1024)
	heap := dataWords / 4
	arrays := dataWords - heap
	n := g.rng.Range(3, 8)
	addr := g.base + dataOffset
	remaining := arrays
	for i := 0; i < n; i++ {
		var size uint32
		if i == n-1 {
			size = remaining
		} else {
			size = remaining / uint32(n-i) / 2 * uint32(g.rng.Range(1, 3))
			if size == 0 {
				size = 1
			}
			if size > remaining {
				size = remaining
			}
		}
		if size == 0 {
			size = 64
		}
		g.regions = append(g.regions, program.DataRegion{
			Name: fmt.Sprintf("array%d", i),
			Base: addr,
			Size: size,
		})
		addr += size
		remaining -= size
		if remaining == 0 {
			remaining = 64 // keep later regions non-empty
		}
	}
	g.regions = append(g.regions, program.DataRegion{Name: "heap", Base: addr, Size: heap + 64})
}

func (g *generator) heapRegion() int { return len(g.regions) - 1 }

// genDriver emits procedure 0: an infinite loop over calls to the other
// procedures with Zipf-skewed frequencies, modelling a program with hot and
// cold phases.
func (g *generator) genDriver() {
	g.bd.StartProc("main")
	entry := g.bd.NewBlock()
	g.emitALUInst(entry, isa.Inst{Op: isa.ADDIU, Rd: isa.SP, Rs: isa.SP, Imm: -frameWords})
	g.fill(entry, 2, fillOpts{})

	head := g.bd.NewBlock()
	g.fill(head, 2, fillOpts{})
	g.bd.Fallthrough(entry, head)

	// The driver's loop visits many call sites per cycle: programs move
	// through phases, and the breadth of code the driver reaches per
	// cycle is what the instruction cache sees as the program's working
	// set.
	nCalls := clampI(g.numProcs-1, 1, 64)
	weights := make([]float64, g.numProcs-1)
	for i := range weights {
		// Soft Zipf: hot functions exist but do not monopolize the
		// driver's cycle.
		weights[i] = 1 / math.Sqrt(float64(i+1))
	}
	// Sites are grouped into phases: a phase's group of call subtrees (a
	// few KW of code) repeats several times before the driver moves to
	// the next phase. This mid-scale temporal reuse puts the knees into
	// the miss-ratio-versus-cache-size curves, the way real programs'
	// phases do.
	prev := head
	c := 0
	for c < nCalls {
		phaseSites := clampI(6+g.rng.Intn(5), 1, nCalls-c)
		phaseHead := g.bd.NewBlock()
		g.fill(phaseHead, 2, fillOpts{})
		g.bd.Fallthrough(prev, phaseHead)
		prev = phaseHead

		for si := 0; si < phaseSites; si++ {
			// Seed half the sites uniformly across the image and half by
			// Zipf (hot functions).
			var callee int
			if c%2 == 0 && g.numProcs > 2 {
				callee = 1 + (c/2*(g.numProcs-1))/((nCalls+1)/2)%(g.numProcs-1)
			} else {
				callee = 1 + g.rng.Pick(weights)
			}
			c++
			ret := g.bd.NewBlock()
			g.fill(ret, 1+g.rng.Intn(2), fillOpts{})
			g.bd.Call(prev, callee, ret)
			prev = ret
		}

		latchB := g.bd.NewBlock()
		g.fill(latchB, 2, fillOpts{hasCond: true, condGap: 0})
		g.bd.Fallthrough(prev, latchB)
		next := g.bd.NewBlock()
		g.fill(next, 1, fillOpts{})
		repeats := g.rng.Range(2, 4)
		g.bd.Branch(latchB, isa.BNE, isa.T9, isa.Zero, phaseHead, next, 1-1/float64(repeats))
		prev = next
	}
	g.bd.Jump(prev, head)
}

// genProc emits procedure pi with roughly the given instruction budget.
func (g *generator) genProc(pi, budget int) {
	g.bd.StartProc(fmt.Sprintf("p%02d", pi))
	g.pending = g.pending[:0]

	entry := g.bd.NewBlock()
	g.emitALUInst(entry, isa.Inst{Op: isa.ADDIU, Rd: isa.SP, Rs: isa.SP, Imm: -frameWords})
	g.fill(entry, g.blockLen()-1, fillOpts{})

	remaining := budget
	chainEntry, tails := g.chain(&remaining, 0, pi, 0)
	g.bd.Fallthrough(entry, chainEntry)

	epi := g.bd.NewBlock()
	g.fill(epi, 2, fillOpts{})
	// Epilogue reloads the return address before the jr, as the MIPS
	// calling convention does; the jr's hoisting distance is then limited
	// by a real dependency.
	g.emitInst(epi, program.Inst{
		Inst: isa.Inst{Op: isa.LW, Rd: isa.RA, Rs: isa.SP, Imm: frameWords - 4},
		Mem:  program.MemBehavior{Kind: program.MemStack, Offset: frameWords - 4},
	})
	g.emitALUInst(epi, isa.Inst{Op: isa.ADDIU, Rd: isa.SP, Rs: isa.SP, Imm: frameWords})
	g.bd.Return(epi)
	for _, t := range tails {
		t(epi)
	}
}

// chain generates a sequence of segments until the budget runs out,
// linking each segment's loose ends to the next segment's entry. It always
// produces at least one segment. maxSegs of 0 means unbounded.
func (g *generator) chain(budget *int, depth, pi, maxSegs int) (int, []tail) {
	entry := program.None
	var prevTails []tail
	segs := 0
	for {
		segEntry, segTails := g.segment(budget, depth, pi)
		if entry == program.None {
			entry = segEntry
		}
		for _, t := range prevTails {
			t(segEntry)
		}
		prevTails = segTails
		segs++
		if *budget <= 0 {
			break
		}
		if maxSegs > 0 && segs >= maxSegs {
			break
		}
	}
	return entry, prevTails
}

// segment generates one control-flow construct and returns its entry block
// and loose-end tails.
func (g *generator) segment(budget *int, depth, pi int) (int, []tail) {
	type segKind int
	const (
		segStraight segKind = iota
		segLoop
		segDiamond
		segCall
		segSwitch
	)
	// Inner loop bodies are the hot code. Numeric benchmarks iterate over
	// straight-line kernels with a small instruction footprint; integer
	// benchmarks call procedures from inside their loops, which is what
	// spreads their dynamic code footprint across the image and gives
	// them their instruction-cache miss behaviour. Branchy integer codes
	// (short blocks) additionally need CTI-dense bodies or the hot loops
	// dilute the executed CTI fraction below target.
	var w []float64
	switch {
	case depth == 0 && g.spec.Kind != Integer:
		w = []float64{0.12, 0.34, 0.30, 0.16, 0.08}
	case depth == 0:
		// Integer codes spend most of their time in linear code and
		// call chains, not tight loops — that is what gives them their
		// instruction-cache footprint.
		w = []float64{0.30, 0.14, 0.38, 0.12, 0.06}
	case g.spec.Kind != Integer:
		w = []float64{0.68, 0.13, 0.08, 0.08, 0.03}
	case g.tune.meanBlock < 8:
		w = []float64{0.29, 0.10, 0.51, 0.04, 0.06}
	default:
		w = []float64{0.48, 0.12, 0.30, 0.04, 0.06}
	}
	if depth >= maxLoopDepth {
		w[segLoop] = 0
	}
	if pi >= g.numProcs-1 {
		w[segCall] = 0 // last procedure has no callees
	}
	if *budget < 3*int(g.tune.meanBlock) {
		// Not enough room for compound constructs.
		w[segLoop], w[segDiamond], w[segSwitch] = 0, 0, 0
	}

	switch segKind(g.rng.Pick(w)) {
	case segLoop:
		return g.loopSegment(budget, depth, pi)
	case segDiamond:
		return g.diamondSegment(budget, depth, pi)
	case segCall:
		return g.callSegment(budget, pi)
	case segSwitch:
		return g.switchSegment(budget)
	default:
		b := g.bd.NewBlock()
		g.fill(b, g.blockLen(), fillOpts{})
		*budget -= g.bd.BlockLen(b)
		return b, []tail{func(next int) { g.bd.Fallthrough(b, next) }}
	}
}

// loopSegment builds body-blocks plus a latch with a backward branch. For
// short blocks the body gets more segments, so the repeating unit is big
// enough for the per-block load/store rationing to average out.
//
// Loops whose bodies contain procedure calls iterate only a few times:
// otherwise nested loop/call amplification multiplies without bound and a
// single call subtree absorbs the whole execution, collapsing the dynamic
// code footprint to a sliver of the image.
func (g *generator) loopSegment(budget *int, depth, pi int) (int, []tail) {
	bodySegs := 1 + g.rng.Intn(2)
	if g.tune.meanBlock < 6 {
		bodySegs = 2 + g.rng.Intn(2)
	}
	callsBefore := g.callsEmitted
	bodyEntry, bodyTails := g.chain(budget, depth+1, pi, bodySegs)

	latch := g.bd.NewBlock()
	n := g.blockLen()
	condReg := g.condSetup(latch, n-1, fillOpts{bumpPointer: true})
	*budget -= g.bd.BlockLen(latch) + 1
	for _, t := range bodyTails {
		t(latch)
	}

	trip := g.tripCount()
	if g.callsEmitted > callsBefore {
		trip = g.rng.Range(2, 4)
	}
	prob := 1 - 1/float64(trip)
	return bodyEntry, []tail{func(next int) {
		g.bd.Branch(latch, isa.BNE, condReg, isa.Zero, bodyEntry, next, prob)
	}}
}

// diamondSegment builds an if/else: a forward conditional branch to the
// else arm, a then arm ending in a jump to the join, and an else arm
// falling through to the join.
func (g *generator) diamondSegment(budget *int, depth, pi int) (int, []tail) {
	cond := g.bd.NewBlock()
	n := g.blockLen()
	condReg := g.condSetup(cond, n-1, fillOpts{})

	thenB := g.bd.NewBlock()
	g.fill(thenB, g.blockLen()-1, fillOpts{})
	elseB := g.bd.NewBlock()
	g.fill(elseB, g.blockLen(), fillOpts{})

	prob := 0.2 + 0.4*g.rng.Float64() // forward branches: usually not taken
	g.bd.Branch(cond, isa.BEQ, condReg, isa.Zero, elseB, thenB, prob)
	*budget -= g.bd.BlockLen(cond) + g.bd.BlockLen(thenB) + g.bd.BlockLen(elseB) + 1

	return cond, []tail{
		func(next int) { g.bd.Jump(thenB, next) },
		func(next int) { g.bd.Fallthrough(elseB, next) },
	}
}

// callExecProb is the probability a call site's guard branch routes
// execution into the call. Guarded calls keep the dynamic call-tree
// branching factor near one, so execution heat spreads evenly across the
// procedures instead of concentrating at the call-DAG sinks.
const callExecProb = 0.3

// callSegment builds a conditional call to a nearby later procedure: a
// guard block whose forward branch enters the call block with probability
// callExecProb and otherwise skips it.
func (g *generator) callSegment(budget *int, pi int) (int, []tail) {
	// Locality in the call graph: procedures call procedures laid out
	// close after them.
	jump := 1 + g.rng.Geometric(1.0/12)
	callee := pi + jump
	if callee > g.numProcs-1 {
		callee = g.numProcs - 1
	}

	cond := g.bd.NewBlock()
	n := g.blockLen()
	condReg := g.condSetup(cond, n-1, fillOpts{})

	callB := g.bd.NewBlock()
	g.fill(callB, 1+g.rng.Intn(3), fillOpts{})

	*budget -= g.bd.BlockLen(cond) + g.bd.BlockLen(callB) + 2
	g.callsEmitted++
	return cond, []tail{
		func(next int) {
			g.bd.Branch(cond, isa.BEQ, condReg, isa.Zero, callB, next, callExecProb)
		},
		func(next int) { g.bd.Call(callB, callee, next) },
	}
}

// switchSegment builds a register-indirect dispatch (jr through a computed
// register) to a case block.
func (g *generator) switchSegment(budget *int) (int, []tail) {
	d := g.bd.NewBlock()
	g.fill(d, g.blockLen()-1, fillOpts{})
	// Compute the dispatch target into AT right before the jr.
	g.emitALUInst(d, isa.Inst{Op: isa.ADDU, Rd: isa.AT, Rs: g.recentReg(), Rt: isa.Zero})
	caseB := g.bd.NewBlock()
	g.fill(caseB, g.blockLen(), fillOpts{})
	g.bd.IndirectJump(d, caseB, isa.AT)
	*budget -= g.bd.BlockLen(d) + g.bd.BlockLen(caseB) + 1
	return d, []tail{func(next int) { g.bd.Fallthrough(caseB, next) }}
}

// blockLen draws a block length with mean equal to the tuned mean and
// deliberately low variance (+/- 25%). A handful of hot loops dominates
// each benchmark's executed stream, so a heavy-tailed length distribution
// would make the dynamic CTI rate a lottery over which blocks happen to be
// hot; keeping lengths tight keeps every potential hot path representative.
func (g *generator) blockLen() int {
	m := g.tune.meanBlock
	n := int(m*(0.75+0.5*g.rng.Float64()) + 0.5)
	return clampI(n, 2, int(3*m)+4)
}

// condSetup fills a block that will end in a conditional branch and returns
// the condition register. A bit over half the branches get an explicit
// comparison (slt into $t9) at a drawn distance before the block end; the
// rest test a recently computed register directly, as MIPS branches often
// do.
func (g *generator) condSetup(block, bodyLen int, opts fillOpts) isa.Reg {
	if g.rng.Bool(0.55) {
		opts.hasCond = true
		opts.condGap = g.condGap(bodyLen - 1)
		g.fill(block, bodyLen, opts)
		return isa.T9
	}
	g.fill(block, bodyLen, opts)
	// Loop latches without an explicit comparison usually branch on the
	// just-bumped induction pointer.
	if opts.bumpPointer && g.rng.Bool(0.8) {
		return isa.T8
	}
	// Otherwise branch on a register: usually the most recently computed
	// value (pinning the CTI in place, r = 0), sometimes an older one.
	if g.rng.Bool(0.7) && len(g.recent) > 0 {
		return g.recent[len(g.recent)-1]
	}
	return g.recentReg()
}

// condGap draws the distance between the condition-setting instruction and
// the branch, calibrated so roughly half of first delay slots can be filled
// from before the CTI (the paper measures 54%).
func (g *generator) condGap(bodyLen int) int {
	gap := g.rng.Pick([]float64{0.58, 0.18, 0.12, 0.12})
	if gap == 3 {
		gap += g.rng.Intn(3)
	}
	if gap > bodyLen-1 {
		gap = bodyLen - 1
	}
	if gap < 0 {
		gap = 0
	}
	return gap
}

// tripCount draws a loop trip count around the spec's mean; integer codes
// iterate briefly, numeric kernels long.
func (g *generator) tripCount() int {
	m := g.spec.MeanTrip
	lo, hi := m/2, m*2
	if g.spec.Kind == Integer {
		lo, hi = 2, 2*m/3
	}
	if lo < 2 {
		lo = 2
	}
	if hi <= lo {
		hi = lo + 1
	}
	return g.rng.Range(lo, hi)
}
