package core

import (
	"context"
	"fmt"

	"pipecache/internal/btb"
	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
	"pipecache/internal/sched"
	"pipecache/internal/tablefmt"
)

// This file implements the study's ablations and extensions: the paper's
// closing conjecture (set associativity under pipelining), its block-size
// versus refill-rate co-selection, the two-level hierarchy of Figure 1,
// write policies, profile-guided static prediction, BTB sizing, and
// multiprogramming quantum sensitivity.

// AssocRow is one (depth, associativity) point of the associativity study.
type AssocRow struct {
	Depth     int
	Assoc     int
	MissRatio float64 // combined L1 miss ratio at the study size
	TCPUNs    float64
	CPI       float64
	TPINs     float64
}

// AssocStudyResult evaluates the paper's conclusion-section conjecture:
// "if tCPU is less dependent on the access time of pipelined L1 caches,
// then increasing the associativity of the cache to lower the miss ratio
// will have a larger performance benefit for pipelined caches."
type AssocStudyResult struct {
	SizeKW int
	Rows   []AssocRow
}

// AssocStudy sweeps associativity 1-4 at pipeline depths 0, 2 and 3 for a
// fixed per-side cache size.
func (l *Lab) AssocStudy(sizeKW int) (*AssocStudyResult, error) {
	assocs := []int{1, 2, 4}
	var bank []cache.Config
	for _, a := range assocs {
		bank = append(bank, cache.Config{
			SizeKW: sizeKW, BlockWords: l.P.BlockWords, Assoc: a, WriteBack: true,
		})
	}
	res := &AssocStudyResult{SizeKW: sizeKW}
	depths := []int{0, 2, 3}
	rowsByDepth := make([][]AssocRow, len(depths))
	err := l.forEach(context.Background(), len(depths), func(ctx context.Context, di int) error {
		depth := depths[di]
		pass, err := l.RunPass(ctx, cpisim.Config{
			BranchSlots: depth,
			ICaches:     bank,
			DCaches:     bank,
		})
		if err != nil {
			return err
		}
		rows := make([]AssocRow, 0, len(assocs))
		for ai, a := range assocs {
			tcpu, err := l.P.Model.TCPUAssoc(sizeKW, depth, a)
			if err != nil {
				return err
			}
			pen := l.P.PenaltyCycles(tcpu)
			cpi, err := pass.CPIFor(depth, cpisim.LoadStatic, ai, ai, pen, pen)
			if err != nil {
				return err
			}
			rows = append(rows, AssocRow{
				Depth:     depth,
				Assoc:     a,
				MissRatio: (pass.IMissRatio(ai) + pass.DMissRatio(ai)) / 2,
				TCPUNs:    tcpu,
				CPI:       cpi,
				TPINs:     cpi * tcpu,
			})
		}
		rowsByDepth[di] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowsByDepth {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// Best returns the winning associativity at the given depth.
func (r *AssocStudyResult) Best(depth int) AssocRow {
	best := AssocRow{TPINs: 1e18}
	for _, row := range r.Rows {
		if row.Depth == depth && row.TPINs < best.TPINs {
			best = row
		}
	}
	return best
}

// String renders the study.
func (r *AssocStudyResult) String() string {
	t := tablefmt.New(
		fmt.Sprintf("Ablation: set associativity under pipelining (%d KW per side)", r.SizeKW),
		"Depth", "Assoc", "Miss ratio", "tCPU (ns)", "CPI", "TPI (ns)")
	for _, row := range r.Rows {
		t.Row(row.Depth, row.Assoc,
			fmt.Sprintf("%.4f", row.MissRatio),
			fmt.Sprintf("%.2f", row.TCPUNs),
			fmt.Sprintf("%.3f", row.CPI),
			fmt.Sprintf("%.2f", row.TPINs))
	}
	return t.String()
}

// BlockRow is one (refill rate, block size) point.
type BlockRow struct {
	WordsPerCycle int
	BlockWords    int
	Penalty       int
	CPI           float64
}

// BlockSizeStudyResult reproduces the paper's block-size selection: "for
// each value of miss penalty the block size was selected to achieve the
// lowest CPI" with penalties from the 2-cycle-startup refill model.
type BlockSizeStudyResult struct {
	SizeKW int
	Rows   []BlockRow
}

// BlockSizeStudy evaluates block sizes 4/8/16 words under refill rates of
// 4, 2 and 1 words per cycle at a fixed cache size.
func (l *Lab) BlockSizeStudy(sizeKW int) (*BlockSizeStudyResult, error) {
	blocks := []int{4, 8, 16}
	var bank []cache.Config
	for _, bw := range blocks {
		bank = append(bank, cache.Config{
			SizeKW: sizeKW, BlockWords: bw, Assoc: 1, WriteBack: true,
		})
	}
	pass, err := l.RunPass(context.Background(), cpisim.Config{ICaches: bank, DCaches: bank})
	if err != nil {
		return nil, err
	}
	res := &BlockSizeStudyResult{SizeKW: sizeKW}
	for _, rate := range []int{4, 2, 1} {
		for bi, bw := range blocks {
			pen := cache.RefillPenalty(bw, rate)
			cpi, err := pass.CPIFor(0, cpisim.LoadStatic, bi, bi, pen, pen)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, BlockRow{
				WordsPerCycle: rate,
				BlockWords:    bw,
				Penalty:       pen,
				CPI:           cpi,
			})
		}
	}
	return res, nil
}

// Best returns the lowest-CPI block size for a refill rate.
func (r *BlockSizeStudyResult) Best(wordsPerCycle int) BlockRow {
	best := BlockRow{CPI: 1e18}
	for _, row := range r.Rows {
		if row.WordsPerCycle == wordsPerCycle && row.CPI < best.CPI {
			best = row
		}
	}
	return best
}

// String renders the study.
func (r *BlockSizeStudyResult) String() string {
	t := tablefmt.New(
		fmt.Sprintf("Ablation: block size vs refill rate (%d KW per side, 2-cycle startup)", r.SizeKW),
		"Refill (w/cyc)", "Block (W)", "Penalty (cyc)", "CPI")
	for _, row := range r.Rows {
		t.Row(row.WordsPerCycle, row.BlockWords, row.Penalty, fmt.Sprintf("%.3f", row.CPI))
	}
	return t.String()
}

// TwoLevelRow is one L2 size point.
type TwoLevelRow struct {
	L2SizeKW    int
	L2MissRatio float64
	CPI         float64
}

// TwoLevelStudyResult evaluates the Figure 1 hierarchy: a small fast L1
// backed by a unified L2, versus the constant-penalty abstraction the
// paper's main experiments use.
type TwoLevelStudyResult struct {
	L1SizeKW   int
	L2Hit, Mem int
	ConstCPI   float64 // constant-penalty reference at L2Hit cycles
	Rows       []TwoLevelRow
}

// TwoLevelStudy sweeps the unified L2 size behind a fixed split L1.
func (l *Lab) TwoLevelStudy(l1SizeKW int, l2SizesKW []int, l2Hit, mem int) (*TwoLevelStudyResult, error) {
	l1 := cache.Config{SizeKW: l1SizeKW, BlockWords: l.P.BlockWords, Assoc: 1, WriteBack: true}
	var l2bank []cache.Config
	for _, s := range l2SizesKW {
		l2bank = append(l2bank, cache.Config{SizeKW: s, BlockWords: 16, Assoc: 2, WriteBack: true})
	}
	pass, err := l.RunPass(context.Background(), cpisim.Config{
		ICaches: []cache.Config{l1},
		DCaches: []cache.Config{l1},
		L2:      cpisim.L2Config{Caches: l2bank},
	})
	if err != nil {
		return nil, err
	}
	res := &TwoLevelStudyResult{L1SizeKW: l1SizeKW, L2Hit: l2Hit, Mem: mem}
	constCPI, err := pass.CPI(0, 0, l2Hit, l2Hit)
	if err != nil {
		return nil, err
	}
	res.ConstCPI = constCPI
	for i, s := range l2SizesKW {
		cpi, err := pass.CPITwoLevel(i, l2Hit, mem)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, TwoLevelRow{
			L2SizeKW:    s,
			L2MissRatio: pass.L2MissRatio(i),
			CPI:         cpi,
		})
	}
	return res, nil
}

// String renders the study.
func (r *TwoLevelStudyResult) String() string {
	t := tablefmt.New(
		fmt.Sprintf("Ablation: unified L2 behind %d KW split L1 (L2 hit %d cyc, memory %d cyc)",
			r.L1SizeKW, r.L2Hit, r.Mem),
		"L2 size (KW)", "L2 local miss", "CPI")
	for _, row := range r.Rows {
		t.Row(row.L2SizeKW, fmt.Sprintf("%.3f", row.L2MissRatio), fmt.Sprintf("%.3f", row.CPI))
	}
	t.Row("always-hit", "-", fmt.Sprintf("%.3f", r.ConstCPI))
	return t.String()
}

// WritePolicyRow is one write-policy point.
type WritePolicyRow struct {
	SizeKW      int
	Policy      string
	DMissRatio  float64
	CPIAllStall float64 // write misses stall (write-back refill)
	CPIBuffered float64 // only read misses stall (write buffer)
}

// WritePolicyStudyResult compares write-back/write-allocate against
// write-through/no-allocate under the two store-stall models.
type WritePolicyStudyResult struct {
	Rows []WritePolicyRow
}

// WritePolicyStudy runs both policies across the size bank (the two
// passes run concurrently on the lab's worker pool).
func (l *Lab) WritePolicyStudy(penalty int) (*WritePolicyStudyResult, error) {
	res := &WritePolicyStudyResult{}
	policies := []bool{true, false}
	rowsByPolicy := make([][]WritePolicyRow, len(policies))
	err := l.forEach(context.Background(), len(policies), func(ctx context.Context, pi int) error {
		wb := policies[pi]
		var bank []cache.Config
		for _, s := range l.P.SizesKW {
			bank = append(bank, cache.Config{
				SizeKW: s, BlockWords: l.P.BlockWords, Assoc: 1, WriteBack: wb,
			})
		}
		pass, err := l.RunPass(ctx, cpisim.Config{DCaches: bank})
		if err != nil {
			return err
		}
		policy := "write-back"
		if !wb {
			policy = "write-through"
		}
		rows := make([]WritePolicyRow, 0, len(l.P.SizesKW))
		for si, s := range l.P.SizesKW {
			all, err := pass.CPI(-1, si, 0, penalty)
			if err != nil {
				return err
			}
			// Buffered stores: only read misses stall.
			var insts, stalls int64
			for i := range pass.Benches {
				bch := &pass.Benches[i]
				insts += bch.Insts
				stalls += bch.DReadMisses[si] * int64(penalty)
			}
			buffered := 1 + float64(stalls)/float64(insts)
			rows = append(rows, WritePolicyRow{
				SizeKW:      s,
				Policy:      policy,
				DMissRatio:  pass.DMissRatio(si),
				CPIAllStall: all,
				CPIBuffered: buffered,
			})
		}
		rowsByPolicy[pi] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowsByPolicy {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// String renders the study.
func (r *WritePolicyStudyResult) String() string {
	t := tablefmt.New("Ablation: write policy (D-side only)",
		"Size (KW)", "Policy", "D miss ratio", "CPI (stores stall)", "CPI (write buffer)")
	for _, row := range r.Rows {
		t.Row(row.SizeKW, row.Policy,
			fmt.Sprintf("%.4f", row.DMissRatio),
			fmt.Sprintf("%.3f", row.CPIAllStall),
			fmt.Sprintf("%.3f", row.CPIBuffered))
	}
	return t.String()
}

// BTBSizeRow is one BTB capacity point.
type BTBSizeRow struct {
	Entries      int
	StorageBytes int
	HitRatio     float64
	CyclesPerCTI float64 // at 2 delay cycles
}

// BTBSizeStudyResult sweeps BTB capacity; the paper restricted its BTB to
// 256 entries "to ensure single cycle access".
type BTBSizeStudyResult struct {
	Rows []BTBSizeRow
}

// BTBSizeStudy evaluates BTB capacities with the full suite, one pooled
// pass per capacity.
func (l *Lab) BTBSizeStudy(entries []int) (*BTBSizeStudyResult, error) {
	res := &BTBSizeStudyResult{Rows: make([]BTBSizeRow, len(entries))}
	err := l.forEach(context.Background(), len(entries), func(ctx context.Context, i int) error {
		cfg := btb.Config{Entries: entries[i], Assoc: 1}
		pass, err := l.RunPass(ctx, cpisim.Config{
			BranchScheme: cpisim.BranchBTB,
			BTB:          cfg,
		})
		if err != nil {
			return err
		}
		var hits, lookups int64
		for bi := range pass.Benches {
			b := &pass.Benches[bi]
			hits += b.BTBOutcomes[0] + b.BTBOutcomes[1] + b.BTBOutcomes[2]
			for _, c := range b.BTBOutcomes {
				lookups += c
			}
		}
		row := BTBSizeRow{
			Entries:      entries[i],
			StorageBytes: cfg.StorageBytes(),
			CyclesPerCTI: 1 + pass.BTBStallPerCTIFor(2),
		}
		if lookups > 0 {
			row.HitRatio = float64(hits) / float64(lookups)
		}
		res.Rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the study.
func (r *BTBSizeStudyResult) String() string {
	t := tablefmt.New("Ablation: BTB capacity (2 delay cycles)",
		"Entries", "Storage (B)", "Hit ratio", "Cycles per CTI")
	for _, row := range r.Rows {
		t.Row(row.Entries, row.StorageBytes,
			fmt.Sprintf("%.3f", row.HitRatio),
			fmt.Sprintf("%.2f", row.CyclesPerCTI))
	}
	return t.String()
}

// ProfileRow compares prediction schemes at one delay-slot count.
type ProfileRow struct {
	Slots                 int
	HeuristicCyclesPerCTI float64
	ProfiledCyclesPerCTI  float64
	BTBCyclesPerCTI       float64
}

// ProfileStudyResult upgrades Table 3's static prediction with
// profile-guided direction selection (the [HCC89] technique the paper
// references).
type ProfileStudyResult struct {
	Rows []ProfileRow
}

// ProfileStudy trains per-benchmark branch profiles on a different seed
// and compares heuristic, profiled, and BTB schemes. Profile training and
// the per-depth profiled passes both run on the lab's worker pool.
func (l *Lab) ProfileStudy() (*ProfileStudyResult, error) {
	// Train profiles once, one independent collection per benchmark.
	profiles := make([]*sched.Profile, len(l.Suite.Progs))
	err := l.forEach(context.Background(), len(l.Suite.Progs), func(_ context.Context, i int) error {
		prof, err := sched.CollectProfile(l.Suite.Progs[i], l.Suite.Specs[i].Seed^0xBEEF, l.P.Insts/2)
		if err != nil {
			return err
		}
		profiles[i] = prof
		return nil
	})
	if err != nil {
		return nil, err
	}
	btbPass, err := l.BTBPass(context.Background())
	if err != nil {
		return nil, err
	}
	depths := []int{1, 2, 3}
	res := &ProfileStudyResult{Rows: make([]ProfileRow, len(depths))}
	err = l.forEach(context.Background(), len(depths), func(ctx context.Context, di int) error {
		b := depths[di]
		heur, err := l.StaticPass(ctx, b, l.P.Policy)
		if err != nil {
			return err
		}
		ws := l.workloads()
		for i := range ws {
			ws[i].Profile = profiles[i]
		}
		// Profiles change the delay-slot translation, not the event
		// stream, so the profiled pass replays the same captured trace
		// as the heuristic passes.
		prof, err := l.runWorkloads(ctx, cpisim.Config{BranchSlots: b, Quantum: l.P.Quantum}, ws,
			"lab.adhoc_passes_run")
		if err != nil {
			return err
		}
		res.Rows[di] = ProfileRow{
			Slots:                 b,
			HeuristicCyclesPerCTI: 1 + heur.BranchStallPerCTI(),
			ProfiledCyclesPerCTI:  1 + prof.BranchStallPerCTI(),
			BTBCyclesPerCTI:       1 + btbPass.BTBStallPerCTIFor(b),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the study.
func (r *ProfileStudyResult) String() string {
	t := tablefmt.New("Ablation: profile-guided static prediction (cycles per CTI)",
		"Delay slots", "Heuristic", "Profiled", "BTB")
	for _, row := range r.Rows {
		t.Row(row.Slots,
			fmt.Sprintf("%.2f", row.HeuristicCyclesPerCTI),
			fmt.Sprintf("%.2f", row.ProfiledCyclesPerCTI),
			fmt.Sprintf("%.2f", row.BTBCyclesPerCTI))
	}
	return t.String()
}

// QuantumRow is one context-switch interval point.
type QuantumRow struct {
	Quantum    int64
	IMissRatio float64
	DMissRatio float64
	CPI        float64
}

// QuantumStudyResult measures multiprogramming interference: shorter
// quanta flush the shared caches more often.
type QuantumStudyResult struct {
	SizeKW  int
	Penalty int
	Rows    []QuantumRow
}

// QuantumStudy sweeps the context-switch interval at a fixed cache pair,
// one pooled pass per quantum.
func (l *Lab) QuantumStudy(sizeKW, penalty int, quanta []int64) (*QuantumStudyResult, error) {
	cc := cache.Config{SizeKW: sizeKW, BlockWords: l.P.BlockWords, Assoc: 1, WriteBack: true}
	res := &QuantumStudyResult{SizeKW: sizeKW, Penalty: penalty, Rows: make([]QuantumRow, len(quanta))}
	err := l.forEach(context.Background(), len(quanta), func(ctx context.Context, i int) error {
		pass, err := l.RunPass(ctx, cpisim.Config{
			ICaches: []cache.Config{cc},
			DCaches: []cache.Config{cc},
			Quantum: quanta[i],
		})
		if err != nil {
			return err
		}
		cpi, err := pass.CPI(0, 0, penalty, penalty)
		if err != nil {
			return err
		}
		res.Rows[i] = QuantumRow{
			Quantum:    quanta[i],
			IMissRatio: pass.IMissRatio(0),
			DMissRatio: pass.DMissRatio(0),
			CPI:        cpi,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the study.
func (r *QuantumStudyResult) String() string {
	t := tablefmt.New(
		fmt.Sprintf("Ablation: multiprogramming quantum (%d KW caches, P=%d)", r.SizeKW, r.Penalty),
		"Quantum (insts)", "I miss ratio", "D miss ratio", "CPI")
	for _, row := range r.Rows {
		t.Row(row.Quantum,
			fmt.Sprintf("%.4f", row.IMissRatio),
			fmt.Sprintf("%.4f", row.DMissRatio),
			fmt.Sprintf("%.3f", row.CPI))
	}
	return t.String()
}

// PolicyRow is one (policy, size) point of the replacement-policy study.
type PolicyRow struct {
	Policy    cache.Policy
	SizeKW    int
	MissRatio float64 // combined L1 miss ratio
	CPI       float64
	TPINs     float64
}

// PolicyStudyResult compares replacement policies across the size ladder
// at a fixed set-associative geometry — the ablation the related work
// names (DEW's FIFO simulation, Alipour et al.'s policy design-space
// exploration). Direct-mapped caches have no replacement choice, so the
// study runs the bank at the given associativity.
type PolicyStudyResult struct {
	Assoc int
	Depth int
	Rows  []PolicyRow
}

// PolicyStudy sweeps LRU, FIFO and Tree-PLRU over the size ladder at the
// given associativity and pipeline depth, one pooled pass per policy.
func (l *Lab) PolicyStudy(assoc, depth int) (*PolicyStudyResult, error) {
	policies := []cache.Policy{cache.PolicyLRU, cache.PolicyFIFO, cache.PolicyTreePLRU}
	res := &PolicyStudyResult{Assoc: assoc, Depth: depth}
	rowsByPolicy := make([][]PolicyRow, len(policies))
	err := l.forEach(context.Background(), len(policies), func(ctx context.Context, pi int) error {
		pol := policies[pi]
		var bank []cache.Config
		for _, s := range l.P.SizesKW {
			bank = append(bank, cache.Config{
				SizeKW: s, BlockWords: l.P.BlockWords, Assoc: assoc, WriteBack: true, Policy: pol,
			})
		}
		pass, err := l.RunPass(ctx, cpisim.Config{
			BranchSlots: depth,
			ICaches:     bank,
			DCaches:     bank,
		})
		if err != nil {
			return err
		}
		rows := make([]PolicyRow, 0, len(l.P.SizesKW))
		for si, s := range l.P.SizesKW {
			tcpu, err := l.P.Model.TCPUAssoc(s, depth, assoc)
			if err != nil {
				return err
			}
			pen := l.P.PenaltyCycles(tcpu)
			cpi, err := pass.CPIFor(depth, cpisim.LoadStatic, si, si, pen, pen)
			if err != nil {
				return err
			}
			rows = append(rows, PolicyRow{
				Policy:    pol,
				SizeKW:    s,
				MissRatio: (pass.IMissRatio(si) + pass.DMissRatio(si)) / 2,
				CPI:       cpi,
				TPINs:     cpi * tcpu,
			})
		}
		rowsByPolicy[pi] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rows := range rowsByPolicy {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// Best returns the lowest-CPI policy at the given size.
func (r *PolicyStudyResult) Best(sizeKW int) PolicyRow {
	best := PolicyRow{CPI: 1e18}
	for _, row := range r.Rows {
		if row.SizeKW == sizeKW && row.CPI < best.CPI {
			best = row
		}
	}
	return best
}

// String renders the study.
func (r *PolicyStudyResult) String() string {
	t := tablefmt.New(
		fmt.Sprintf("Ablation: replacement policy (%d-way, depth %d)", r.Assoc, r.Depth),
		"Policy", "Size (KW)", "Miss ratio", "CPI", "TPI (ns)")
	for _, row := range r.Rows {
		t.Row(row.Policy.String(), row.SizeKW,
			fmt.Sprintf("%.4f", row.MissRatio),
			fmt.Sprintf("%.3f", row.CPI),
			fmt.Sprintf("%.2f", row.TPINs))
	}
	return t.String()
}

// StabilityRow is one seed's headline result.
type StabilityRow struct {
	SeedOffset uint64
	Best       TPIPoint
}

// StabilityStudyResult checks that the study's conclusion — the optimal
// pipeline depth and cache size — does not hinge on one particular random
// execution: the whole evaluation is repeated under perturbed workload
// seeds.
type StabilityStudyResult struct {
	Rows []StabilityRow
}

// StabilityStudy re-runs the symmetric design-space search under each seed
// offset. Each offset gets its own pass cache (fresh Lab), so this is the
// most expensive ablation.
func (l *Lab) StabilityStudy(offsets []uint64) (*StabilityStudyResult, error) {
	res := &StabilityStudyResult{}
	for _, off := range offsets {
		p := l.P
		p.SeedOffset = off
		fresh, err := NewLab(l.Suite, p)
		if err != nil {
			return nil, err
		}
		if off == l.P.SeedOffset {
			fresh = l // reuse the memoized passes for the base seed
		} else {
			// Each offset has its own trace key, but sharing the parent's
			// bounded store keeps the whole study under one byte budget.
			fresh.SetTraceStore(l.traces)
		}
		opt, err := fresh.Best(context.Background(), fresh.Query(), cpisim.LoadStatic, true)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, StabilityRow{SeedOffset: off, Best: opt.Best})
	}
	return res, nil
}

// DepthsAgree reports whether every seed found the same optimal pipeline
// depth.
func (r *StabilityStudyResult) DepthsAgree() bool {
	for _, row := range r.Rows {
		if row.Best.B != r.Rows[0].Best.B {
			return false
		}
	}
	return true
}

// String renders the study.
func (r *StabilityStudyResult) String() string {
	t := tablefmt.New("Ablation: conclusion stability across run seeds",
		"Seed offset", "Best design")
	for _, row := range r.Rows {
		t.Row(fmt.Sprintf("0x%x", row.SeedOffset), row.Best.String())
	}
	return t.String()
}
