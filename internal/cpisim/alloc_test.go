package cpisim

import (
	"testing"

	"pipecache/internal/cache"
)

// TestReplaySteadyStateAllocs pins the allocation guarantee of the replay
// tier: once a trace's chunk plans are compiled, a replay pass allocates only its fixed per-pass bookkeeping (cursor
// and budget slices, the Result) — nothing proportional to the
// instruction count. A regression here means the hot loop started
// allocating per event, per chunk, or per probe.
func TestReplaySteadyStateAllocs(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 30_000
	cfg := Config{
		BranchSlots: 2,
		LoadSlots:   2,
		ICaches:     []cache.Config{icfg()},
		DCaches:     []cache.Config{icfg()},
		Quantum:     20_000,
	}
	_, tr := captureTrace(t, Config{Quantum: 20_000}, ws, insts)

	sim, err := New(cfg, ws)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: compiles the chunk plans onto the trace's aux cache.
	if _, err := sim.Replay(insts, tr); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sim.Replay(insts, tr); err != nil {
			t.Fatal(err)
		}
	})
	// ~10 fixed allocations today (names/seeds/cursors/remaining slices,
	// Result and its bench slice); the bound leaves headroom for harmless
	// drift while catching anything that scales with the stream.
	if allocs > 64 {
		t.Errorf("steady-state replay makes %.0f allocations per pass; want fixed per-pass bookkeeping only (<= 64)", allocs)
	}
}

// TestSimConstructionCostIndependentOfBudget pins the construction side
// of the allocation guarantee: building a simulator and replaying one pass
// costs the bank slabs, the per-pass bookkeeping and nothing per
// instruction. The bound is loose, since the slabs are proportional to
// the cache geometry, not the pass; the point is that it does not scale
// with the instruction budget.
func TestSimConstructionCostIndependentOfBudget(t *testing.T) {
	ws := replayWorkloads(t)
	const insts = 30_000
	cfg := Config{
		BranchSlots: 2,
		ICaches:     []cache.Config{icfg()},
		DCaches:     []cache.Config{icfg()},
		Quantum:     20_000,
	}
	_, tr := captureTrace(t, Config{Quantum: 20_000}, ws, insts)

	run := func() {
		sim, err := New(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Replay(insts, tr); err != nil {
			t.Fatal(err)
		}
	}
	run() // compile the chunk plans
	perInst := testing.AllocsPerRun(10, run) / float64(insts)
	if perInst > 0.01 {
		t.Errorf("construct+replay allocates %.4f allocations per instruction; construction cost must not scale with the budget", perInst)
	}
}
