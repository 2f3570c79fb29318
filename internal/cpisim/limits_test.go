package cpisim

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/gen"
	"pipecache/internal/isa"
	"pipecache/internal/program"
	"pipecache/internal/sched"
)

// longBlockLoop builds a loop whose body is one block of exactly
// program.MaxBlockInsts instructions, the longest the one-byte B column
// carries: loads consumed at growing distances (block-truncated epsilons
// up to the cap), stores, and a closing branch back to itself.
func longBlockLoop(t *testing.T) *program.Program {
	t.Helper()
	bd := program.NewBuilder("long", 0x400)
	main := bd.StartProc("main")
	body := bd.NewBlock()
	exit := bd.NewBlock()
	gp := func(off int32) program.MemBehavior { return program.MemBehavior{Kind: program.MemGP, Offset: off} }
	for i := 0; bd.BlockLen(body) < program.MaxBlockInsts-1; i++ {
		switch i % 7 {
		case 0:
			bd.Load(body, isa.T2, isa.GP, int32(4*i), gp(int32(4*i)))
		case 3:
			bd.Store(body, isa.T3, isa.GP, int32(4*i), gp(int32(4*i)))
		case 5:
			bd.ALU(body, isa.ADDU, isa.T3, isa.T2, isa.T0)
		default:
			bd.ALU(body, isa.ADDU, isa.T0, isa.T0, isa.A0)
		}
	}
	bd.Branch(body, isa.BNE, isa.T3, isa.Zero, body, exit, 0.8)
	bd.Jump(exit, body)
	bd.SetEntry(main)
	p, err := bd.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Blocks[body].Insts); got != program.MaxBlockInsts {
		t.Fatalf("body block has %d instructions, want %d", got, program.MaxBlockInsts)
	}
	p.Data = program.DataLayout{GPBase: 0x10000, GPSize: 4096, StackBase: 0x20000, FrameSize: 64}
	return p
}

// columns collects a replayed stream's B column.
type columns struct{ b []uint8 }

func (c *columns) Events(_ []uint8, _ []uint32, b []uint8) { c.b = append(c.b, b...) }

// TestMaxBlockReplay: a block of program.MaxBlockInsts instructions
// survives the one-byte B column: the captured stream carries its full
// length, and replays through the compiled plans and through the generic
// handlers equal live passes bit for bit.
func TestMaxBlockReplay(t *testing.T) {
	ws := []Workload{
		{Prog: longBlockLoop(t), Seed: 3, Weight: 0.5},
		{Prog: replayWorkloads(t)[1].Prog, Seed: 77, Weight: 0.5},
	}
	const insts = 20_000
	_, tr := captureTrace(t, Config{Quantum: 700}, ws, insts)
	var col columns
	c := tr.Cursor(0)
	c.Turn(math.MaxInt64, &col)
	if !slices.Contains(col.b, program.MaxBlockInsts) {
		t.Fatalf("no event carries B = %d", program.MaxBlockInsts)
	}
	big := cache.Config{SizeKW: 8, BlockWords: 8, Assoc: 2, WriteBack: false}
	for name, cfg := range map[string]Config{
		"plans": {BranchSlots: 2, LoadSlots: 2,
			ICaches: packedLadder(), DCaches: writeThroughLadder(), Quantum: 900},
		"dynamic-loads": {BranchSlots: 1, LoadSlots: 3, LoadScheme: LoadDynamic,
			ICaches: []cache.Config{icfg()}, DCaches: []cache.Config{big}, Quantum: 2_000},
		"btb": {BranchScheme: BranchBTB,
			ICaches: []cache.Config{icfg(), big}, DCaches: []cache.Config{icfg()}, Quantum: 900},
	} {
		t.Run(name, func(t *testing.T) { checkLiveAndReplay(t, cfg, ws, insts, tr) })
	}
}

// TestBlockMetaFitsGate pins the plans' fetch-run encoding limits on
// hand-built translations: a fetch span of 2^22-1 words above the lowest
// fetched word and a 1023-word block compile plans, while a span of 2^22
// words or a 1024-word block replay through the generic handlers. Either
// way the replay must equal a live pass over the same translation.
func TestBlockMetaFitsGate(t *testing.T) {
	ws := replayWorkloads(t)[:1]
	const insts = 6_000
	cfg := Config{BranchSlots: 2, LoadSlots: 1,
		ICaches: packedLadder(), DCaches: packedLadder(), Quantum: 500}

	// Block 2 of tinyLoop (the jump back to the loop head) is the one the
	// cases relocate or stretch; block 0 keeps the lowest fetch address.
	base, err := sched.Translate(ws[0].Prog, cfg.BranchSlots)
	if err != nil {
		t.Fatal(err)
	}
	if lo, _ := fetchBounds(base); lo != base.Blocks[0].NewAddr {
		t.Fatalf("lowest fetch address %#x, want block 0's %#x", lo, base.Blocks[0].NewAddr)
	}
	edit := func(f func(x *sched.BlockXlat)) *sched.Translation {
		x := *base
		x.Blocks = append([]sched.BlockXlat(nil), base.Blocks...)
		f(&x.Blocks[2])
		return &x
	}
	spanTo := func(span uint32) func(x *sched.BlockXlat) {
		return func(x *sched.BlockXlat) {
			x.NewAddr = base.Blocks[0].NewAddr + span - uint32(x.NewLen) + 1
		}
	}
	for _, c := range []struct {
		name string
		xlat *sched.Translation
		fits bool
	}{
		{"span-2^22-1", edit(spanTo(1<<22 - 1)), true},
		{"span-2^22", edit(spanTo(1 << 22)), false},
		{"block-1023", edit(func(x *sched.BlockXlat) { x.NewLen = 1023 }), true},
		{"block-1024", edit(func(x *sched.BlockXlat) { x.NewLen = 1024 }), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := blockMetaFits(c.xlat); got != c.fits {
				t.Fatalf("blockMetaFits = %v, want %v", got, c.fits)
			}
			pass := func(run func(*Sim) (*Result, error)) (*Sim, *Result) {
				sim, err := New(cfg, ws)
				if err != nil {
					t.Fatal(err)
				}
				bs := sim.benches[0]
				bs.xlat, bs.tab = c.xlat, newBlockTable(c.xlat)
				if (bs.tab != nil) != c.fits {
					t.Fatalf("block table built = %v, want %v", bs.tab != nil, c.fits)
				}
				res, err := run(sim)
				if err != nil {
					t.Fatal(err)
				}
				return sim, res
			}
			liveSim, live := pass(func(s *Sim) (*Result, error) { return s.Run(insts) })
			// A fresh trace per case: its plan cache is keyed by the
			// program's translation identity, which the edits share.
			_, tr := captureTrace(t, Config{Quantum: 500}, ws, insts)
			replaySim, replay := pass(func(s *Sim) (*Result, error) { return s.Replay(insts, tr) })
			if !reflect.DeepEqual(live, replay) {
				t.Errorf("replay differs from live:\n live:   %+v\n replay: %+v", live, replay)
			}
			if got, want := bankStats(replaySim.ibank, len(cfg.ICaches)), bankStats(liveSim.ibank, len(cfg.ICaches)); !reflect.DeepEqual(got, want) {
				t.Errorf("I-bank stats differ:\n live:   %+v\n replay: %+v", want, got)
			}
			if compiled := replaySim.plansCompiled > 0; compiled != c.fits {
				t.Errorf("replay compiled %d plans; want plans only when the translation fits", replaySim.plansCompiled)
			}
		})
	}
}

// FuzzPlanReplay is the generated differential check of the compiled
// chunk plans: a drawn program seed builds a small two-process generated
// workload, and a drawn branch-slot count (0-3, the slots byte's low bits;
// its next two bits pick the load slots, bit 4 the load scheme and the top
// bit the D-cache write policy), quantum, associativity and replacement
// policy configure the pass. Replaying it from a trace captured at another quantum must
// compile plans and equal a live Run bit for bit.
func FuzzPlanReplay(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(1_000), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(1), uint16(333), uint8(1), uint8(1))
	f.Add(uint64(3), uint8(2), uint16(4_096), uint8(2), uint8(2))
	f.Add(uint64(4), uint8(3), uint16(77), uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, slots uint8, quantum uint16, assoc, policy uint8) {
		var ws []Workload
		for i, name := range []string{"gcc", "espresso"} {
			spec, ok := gen.LookupSpec(name)
			if !ok {
				t.Fatalf("spec %s missing", name)
			}
			spec.Seed = seed + uint64(i)
			spec.CodeKW, spec.DataKW = 1+float64(seed%4), 2
			p, err := gen.Build(spec, uint32(i+1)<<26)
			if err != nil {
				t.Fatal(err)
			}
			ws = append(ws, Workload{Prog: p, Seed: spec.Seed, Weight: 0.5})
		}
		const insts = 15_000
		b := int(slots % 4)
		ladder := func(writeBack bool) []cache.Config {
			var cs []cache.Config
			for _, kw := range []int{1, 2, 4} {
				cs = append(cs, cache.Config{SizeKW: kw, BlockWords: 4, Assoc: 1 << (assoc % 4),
					WriteBack: writeBack, Policy: cache.Policy(policy % 3)})
			}
			return append(cs, cache.Config{SizeKW: 1, BlockWords: 8, Assoc: 1, WriteBack: writeBack})
		}
		cfg := Config{BranchSlots: b, LoadSlots: int(slots/4) % 4, LoadScheme: LoadScheme(slots >> 4 & 1),
			ICaches: ladder(true), DCaches: ladder(slots&0x80 != 0), Quantum: 1 + int64(quantum)}
		_, tr := captureTrace(t, Config{Quantum: 2_500}, ws, insts)
		checkLiveAndReplay(t, cfg, ws, insts, tr)
		plans := 0
		tr.Aux().Range(func(_, v any) bool {
			if _, ok := v.(*chunkPlan); ok {
				plans++
			}
			return true
		})
		if plans == 0 {
			t.Fatal("the replay compiled no plan")
		}
	})
}
