package cpisim

import (
	"fmt"

	"pipecache/internal/btb"
	"pipecache/internal/obs"
)

// SetObs attaches a run-scoped metrics registry. The simulator keeps its
// zero-allocation per-pass accounting (BenchResult, cache.Stats,
// btb.Stats) on the hot path and folds the totals into reg when Run
// completes, so instrumentation adds no per-event synchronization.
func (s *Sim) SetObs(reg *obs.Registry) { s.obs = reg }

// publish folds one completed run into the registry: interpreter
// instructions retired, reference and stall totals, delay-slot fill
// statistics of the static schedule, the per-level cache counters, and
// the BTB outcome counters.
func (s *Sim) publish(res *Result) {
	reg := s.obs
	if reg == nil {
		return
	}
	reg.Counter("sim.runs").Inc()

	var insts, ifetches, dreads, dwrites, ctis, loads, loadUses int64
	var branchStall, fillStall, loadStall int64
	var outcomes [5]int64
	for i := range res.Benches {
		b := &res.Benches[i]
		insts += b.Insts
		ifetches += b.IFetches
		dreads += b.DReads
		dwrites += b.DWrites
		ctis += b.CTIs
		loads += b.Loads
		loadUses += b.LoadUses
		branchStall += b.BranchStall
		fillStall += b.FillStall
		loadStall += b.LoadStall
		for o, n := range b.BTBOutcomes {
			outcomes[o] += n
		}
	}
	reg.Counter("interp.insts_retired").Add(insts)
	reg.Counter("sim.ifetches").Add(ifetches)
	reg.Counter("sim.dreads").Add(dreads)
	reg.Counter("sim.dwrites").Add(dwrites)
	reg.Counter("sim.ctis").Add(ctis)
	reg.Counter("sim.loads").Add(loads)
	reg.Counter("sim.load_uses").Add(loadUses)
	reg.Counter("sim.branch_stall_cycles").Add(branchStall)
	reg.Counter("sim.btb_fill_stall_cycles").Add(fillStall)
	reg.Counter("sim.load_stall_cycles").Add(loadStall)

	// Static delay-slot fill accounting, summed over the workloads'
	// translations: slots filled by hoisting (useful on both paths), from
	// the predicted path (squashed on mispredicts), and with noops.
	var hoisted, predicted, noops int64
	for _, b := range s.benches {
		for i := range b.xlat.Blocks {
			x := &b.xlat.Blocks[i]
			hoisted += int64(x.R)
			predicted += int64(x.S)
			noops += int64(x.Noops)
		}
	}
	reg.Counter("sched.slots_hoisted").Add(hoisted)
	reg.Counter("sched.slots_predicted").Add(predicted)
	reg.Counter("sched.slots_noop").Add(noops)

	if s.ibank != nil {
		s.ibank.Publish(reg, "cache.l1i.")
	}
	if s.dbank != nil {
		s.dbank.Publish(reg, "cache.l1d.")
	}
	if s.l2bank != nil {
		s.l2bank.Publish(reg, "cache.l2.")
	}
	if s.btb != nil {
		s.btb.Publish(reg, "btb")
		for o, n := range outcomes {
			reg.Counter(fmt.Sprintf("btb.outcome.%s", btb.Outcome(o))).Add(n)
		}
	}
}

// PublishReplayGate counts, once for a completed replay, each reason the
// plan gate (planOK) sent it to the generic handlers instead of the
// compiled chunk plans: the BTB scheme (cpisim.replay.generic.btb) and a
// second cache level (cpisim.replay.generic.l2); a replay the plans cover
// counts no reason. It also adds the chunk plans the replay compiled and
// stored on the trace (cpisim.plans_compiled) and the bytes of their
// fetch streams (cpisim.plan_bytes): plans ride on the trace outside the
// trace store's byte budget, so this is where their memory shows.
// publish leaves all of these out, so a live pass and its replay still
// publish the same counters.
func (s *Sim) PublishReplayGate() {
	if s.btb != nil {
		s.obs.Counter("cpisim.replay.generic.btb").Inc()
	}
	if s.l2bank != nil {
		s.obs.Counter("cpisim.replay.generic.l2").Inc()
	}
	s.obs.Counter("cpisim.plans_compiled").Add(s.plansCompiled)
	s.obs.Counter("cpisim.plan_bytes").Add(s.planBytes)
}
