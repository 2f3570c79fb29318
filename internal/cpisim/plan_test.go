package cpisim

import (
	"reflect"
	"testing"

	"pipecache/internal/obs"
)

// TestPlanLayout pins what a compiled chunk plan keeps on the trace: one
// probe stream, the resolved I-fetch stream of 4-byte runs, allocated at
// its exact length. The D probes read the trace's own columns, so a plan
// holds no copy of the data references. The plan counters must account for every
// stored plan and its stream bytes once, on the replay that compiled it.
func TestPlanLayout(t *testing.T) {
	var slices []string
	typ := reflect.TypeOf(chunkPlan{})
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Type.Kind() == reflect.Slice {
			slices = append(slices, typ.Field(i).Name)
		}
	}
	if !reflect.DeepEqual(slices, []string{"fetches"}) {
		t.Errorf("chunkPlan slice fields %v, want only the fetch stream", slices)
	}
	if size := reflect.TypeOf(chunkPlan{}.fetches).Elem().Size(); size != 4 {
		t.Errorf("fetch run entries take %d bytes, want 4", size)
	}

	ws := replayWorkloads(t)
	const insts = 20_000
	_, tr := captureTrace(t, Config{Quantum: 1_000}, ws, insts)
	cfg := Config{BranchSlots: 2, LoadSlots: 1,
		ICaches: packedLadder(), DCaches: writeThroughLadder(), Quantum: 1_000}
	replay := func() map[string]int64 {
		sim, err := New(cfg, ws)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		sim.SetObs(reg)
		if _, err := sim.Replay(insts, tr); err != nil {
			t.Fatal(err)
		}
		sim.PublishReplayGate()
		return reg.Snapshot().Counters
	}
	cold := replay()

	var plans, bytes int64
	tr.Aux().Range(func(_, v any) bool {
		p, ok := v.(*chunkPlan)
		if !ok {
			return true
		}
		plans++
		bytes += 4 * int64(cap(p.fetches))
		if cap(p.fetches) != len(p.fetches) {
			t.Errorf("fetch stream cap %d, len %d: want an exact allocation", cap(p.fetches), len(p.fetches))
		}
		return true
	})
	if plans == 0 {
		t.Fatal("the replay compiled no plan")
	}
	if cold["cpisim.plans_compiled"] != plans || cold["cpisim.plan_bytes"] != bytes {
		t.Errorf("cold replay published %d plans, %d bytes; the trace holds %d plans, %d bytes",
			cold["cpisim.plans_compiled"], cold["cpisim.plan_bytes"], plans, bytes)
	}
	if warm := replay(); warm["cpisim.plans_compiled"] != 0 || warm["cpisim.plan_bytes"] != 0 {
		t.Errorf("warm replay published %d plans, %d bytes; want none compiled",
			warm["cpisim.plans_compiled"], warm["cpisim.plan_bytes"])
	}
}
