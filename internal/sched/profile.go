package sched

import (
	"fmt"

	"pipecache/internal/interp"
	"pipecache/internal/isa"
	"pipecache/internal/program"
)

// Profile-guided static prediction. The paper's delayed-branch results use
// the backward-taken/forward-not-taken heuristic and note that "static
// branch prediction techniques using sophisticated program profiling ...
// are competitive with much larger BTBs" [HCC89, KT91]. This file provides
// that upgrade: measure each branch's bias on a training run, then
// predict each CTI in its biased direction.

// Profile holds per-block branch bias measured on a training run.
type Profile struct {
	// Executions and Takens are indexed by block ID; blocks that never
	// executed have zero counts and fall back to the heuristic.
	Executions []int64
	Takens     []int64
}

// TakenFrac returns the measured taken fraction of block id's CTI and
// whether the block was observed at all.
func (pr *Profile) TakenFrac(id int) (float64, bool) {
	if id < 0 || id >= len(pr.Executions) || pr.Executions[id] == 0 {
		return 0, false
	}
	return float64(pr.Takens[id]) / float64(pr.Executions[id]), true
}

// profileCollector counts CTI outcomes per block from the interpreter's
// event stream.
type profileCollector struct {
	prof *Profile
}

func (c *profileCollector) Events(kind []uint8, a []uint32, _ []uint8) {
	for i, k := range kind {
		switch interp.EventKind(k) {
		case interp.EvCTITaken:
			c.prof.Executions[a[i]]++
			c.prof.Takens[a[i]]++
		case interp.EvCTINotTaken:
			c.prof.Executions[a[i]]++
		}
	}
}

// profKey memoizes collected profiles per program (see CollectProfile).
type profKey struct {
	seed  uint64
	insts int64
}

// CollectProfile executes insts instructions of the program and returns
// its branch bias profile. Use a different seed than the evaluation run to
// model training/evaluation input separation (the paper's profiling
// references trained and measured on different inputs).
//
// The profile is memoized on the program: the interpreter stream is a pure
// function of (program, seed), so a training run with the same budget
// always yields the same counts, and repeated studies share one immutable
// Profile instead of re-interpreting. Callers must not mutate the result.
func CollectProfile(p *program.Program, seed uint64, insts int64) (*Profile, error) {
	v, err := p.Memo(profKey{seed, insts}, func() (any, error) { return collectProfile(p, seed, insts) })
	if err != nil {
		return nil, err
	}
	return v.(*Profile), nil
}

func collectProfile(p *program.Program, seed uint64, insts int64) (*Profile, error) {
	it, err := interp.New(p, seed)
	if err != nil {
		return nil, fmt.Errorf("sched: profiling: %w", err)
	}
	prof := &Profile{
		Executions: make([]int64, len(p.Blocks)),
		Takens:     make([]int64, len(p.Blocks)),
	}
	it.Run(insts, &profileCollector{prof: prof})
	return prof, nil
}

// TranslateProfiled is Translate with each conditional branch predicted in
// its profiled direction; unobserved branches use the backward/forward
// heuristic. Jumps, calls, and register-indirect CTIs are unaffected.
// xlatProfKey memoizes profiled translations per program. Profiles are
// keyed by identity: they are immutable once collected (CollectProfile
// returns a shared memoized instance), so one pointer means one set of
// predictions.
type xlatProfKey struct {
	b    int
	prof *Profile
}

func TranslateProfiled(p *program.Program, b int, prof *Profile) (*Translation, error) {
	if b < 0 {
		return nil, fmt.Errorf("sched: negative delay slots %d", b)
	}
	if prof == nil {
		return Translate(p, b)
	}
	v, err := p.Memo(xlatProfKey{b, prof}, func() (any, error) { return translateProfiled(p, b, prof) })
	if err != nil {
		return nil, err
	}
	return v.(*Translation), nil
}

func translateProfiled(p *program.Program, b int, prof *Profile) (*Translation, error) {
	// A private, uncached translation: the profile pass below edits it in
	// place; once memoized it is shared read-only like Translate's.
	t, err := translate(p, b)
	if err != nil {
		return nil, err
	}
	// Re-resolve conditional branch predictions, then redo the layout,
	// since predicted-taken branches replicate target instructions.
	for id, blk := range p.Blocks {
		x := &t.Blocks[id]
		if !x.HasCTI || x.Indirect {
			continue
		}
		// Only conditional branches have a prediction choice; jumps and
		// calls always transfer.
		term, _ := blk.Terminator()
		if term.Op.Class() != isa.ClassBranch {
			continue
		}
		frac, ok := prof.TakenFrac(id)
		if !ok {
			continue
		}
		// Predicting taken is the costlier direction: its delay slots
		// replicate target instructions (code growth, extra cold misses)
		// and short targets force pad noops. Flip toward taken only on a
		// clear majority; flip toward not-taken at the break-even point.
		newPred := x.PredTaken
		if !x.PredTaken && frac >= 0.6 {
			newPred = true
		}
		if x.PredTaken && frac < 0.5 {
			newPred = false
		}
		if newPred == x.PredTaken {
			continue
		}
		// Adjust the block's growth: predicted-taken branches carry S
		// replicated words, predicted-not-taken none.
		if newPred {
			x.NewLen += x.S
		} else {
			x.NewLen -= x.S
		}
		x.PredTaken = newPred
	}
	t.layout(p)
	return t, nil
}
