package cpisim

import (
	"context"
	"fmt"

	"pipecache/internal/trace"
)

// The capture/replay tier. A live pass interprets every workload to
// produce its event stream; that stream is a pure function of (program,
// seed, budget) — see the stream invariance contract in internal/interp —
// while every architectural knob (branch scheme and slots, load scheme,
// cache banks, profiles, even the multiprogramming quantum) is applied by
// benchSink on the way down. A trace.EventTrace holds those streams:
// core.Lab records one with its capture stage, the interpreters alone, and
// SetCapture records one from a live pass. ReplayContext then drives
// benchSink straight from the stored columns for any configuration, with
// no interpreter decode, and produces bit-identical Results and published
// obs counters.

// SetCapture tees every workload's event stream into rec while the next
// live run executes: the events still reach the simulator unchanged, and
// are appended to the recorder's per-benchmark columnar streams on the
// way. Call once, before Run/RunContext, on a fresh simulator. The lab
// does not use it (its capture stage runs no simulator); it serves
// callers that want a live pass and its trace at once, such as the replay
// benchmarks' fixture and perfbench's trace.capture_overhead layer.
func (s *Sim) SetCapture(rec *trace.Recorder) {
	for _, b := range s.benches {
		b.drive = rec.Bench(b.prog.Name, b.seed, b.sink)
	}
}

// Replay is ReplayContext without cancellation.
func (s *Sim) Replay(instsPerBench int64, tr *trace.EventTrace) (*Result, error) {
	return s.ReplayContext(context.Background(), instsPerBench, tr)
}

// ReplaySharded is Replay; workers is ignored. It remains for callers of
// the former time-axis sharded replay, which cut one pass across workers
// and ran at half the sequential pass's speed or less (DESIGN §15).
func (s *Sim) ReplaySharded(instsPerBench int64, tr *trace.EventTrace, workers int) (*Result, error) {
	return s.Replay(instsPerBench, tr)
}

// ReplayContext runs the pass from a captured event trace instead of the
// interpreters: per-benchmark cursors re-interleave the stored streams
// round-robin at this simulator's quantum, delivering whole blocks until
// each turn's target is met — exactly the rule interp.Run applies —
// so the sequence of state transitions, the Result, and the published
// counters are bit-identical to a live run of the same configuration.
//
// The trace must have been captured over the same workloads (names and
// seeds, in order) at the same per-benchmark budget; the quantum and every
// architectural knob may differ from the capturing pass. A validation or
// exhaustion error leaves the simulator in an undefined intermediate
// state; build a fresh Sim to fall back to live interpretation.
func (s *Sim) ReplayContext(ctx context.Context, instsPerBench int64, tr *trace.EventTrace) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("cpisim: nil trace")
	}
	names := make([]string, len(s.benches))
	seeds := make([]uint64, len(s.benches))
	for i, b := range s.benches {
		names[i] = b.prog.Name
		seeds[i] = b.seed
	}
	if err := tr.Validate(instsPerBench, names, seeds); err != nil {
		return nil, err
	}
	cursors := make([]trace.Cursor, len(s.benches))
	for i := range cursors {
		cursors[i] = tr.Cursor(i)
	}
	// Expose the trace's plan cache to the column dispatch for the
	// duration of the pass (plan.go); cleared afterwards so the simulator
	// does not keep an evicted trace alive.
	s.replayAux = tr.Aux()
	defer func() { s.replayAux = nil }()
	s.plansCompiled, s.planBytes = 0, 0
	quantum := s.cfg.Quantum
	if len(s.benches) == 1 {
		// A single workload has no interleaving: its turns concatenate
		// into the same event sequence whatever the quantum, so one
		// whole-stream turn replaces the per-quantum loop and lets Turn
		// deliver whole chunks wholesale.
		quantum = instsPerBench
	}
	return s.multiprogram(ctx, instsPerBench, quantum, func(i int, q, remaining int64) (int64, error) {
		b := s.benches[i]
		ran := cursors[i].Turn(q, b.sink)
		if ran == 0 {
			return 0, fmt.Errorf("cpisim: trace %q exhausted for %s with %d instructions remaining",
				tr.Key(), b.prog.Name, remaining)
		}
		return ran, nil
	})
}
