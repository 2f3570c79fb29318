// Package cpisim is the trace-driven CPI simulator of the study — the
// analogue of the paper's cacheSIM. It drives the interpreters of a
// multiprogrammed benchmark suite through the delay-slot translation
// tables, a branch-handling scheme (static delayed branches with optional
// squashing, or a branch-target buffer), a load-delay hiding scheme (static
// in-block scheduling or dynamic out-of-order issue), and banks of
// instruction and data caches, producing the per-benchmark cycle
// decomposition behind every CPI figure in the paper.
//
// Miss counts are penalty-independent, so a single simulation pass
// evaluates an entire bank of cache configurations and every refill
// penalty at once; CPI is assembled afterwards from the decomposition
// (Result.CPI).
package cpisim

import (
	"fmt"
	"strings"

	"pipecache/internal/btb"
	"pipecache/internal/cache"
)

// BranchScheme selects how branch delay cycles are hidden (Section 3.1).
type BranchScheme uint8

const (
	// BranchStatic is delayed branching with optional squashing driven by
	// static prediction (backward taken / forward not-taken).
	BranchStatic BranchScheme = iota
	// BranchBTB is the 256-entry branch-target buffer with 2-bit
	// counters; the code carries no delay slots (zero-delay layout).
	BranchBTB
)

func (s BranchScheme) String() string {
	switch s {
	case BranchStatic:
		return "static"
	case BranchBTB:
		return "btb"
	}
	return fmt.Sprintf("scheme(%d)", uint8(s))
}

// LoadScheme selects how load delay cycles are hidden (Section 3.2).
type LoadScheme uint8

const (
	// LoadStatic is compile-time scheduling restricted to basic blocks
	// (Figure 7): the stall of a load is l minus its block-restricted
	// epsilon.
	LoadStatic LoadScheme = iota
	// LoadDynamic is idealized out-of-order load issue (Figure 6): the
	// stall is l minus the unrestricted dynamic epsilon.
	LoadDynamic
)

func (s LoadScheme) String() string {
	switch s {
	case LoadStatic:
		return "static"
	case LoadDynamic:
		return "dynamic"
	}
	return fmt.Sprintf("loadscheme(%d)", uint8(s))
}

// ParseLoadScheme parses a load scheme name case-insensitively: "static"
// or "dynamic", the spellings String returns.
func ParseLoadScheme(s string) (LoadScheme, error) {
	switch strings.ToLower(s) {
	case "static":
		return LoadStatic, nil
	case "dynamic":
		return LoadDynamic, nil
	}
	return 0, fmt.Errorf("unknown load scheme %q (want static or dynamic)", s)
}

// Config describes one simulation pass.
type Config struct {
	// BranchSlots is b, the number of branch delay cycles (the pipeline
	// depth of the L1-I access).
	BranchSlots int
	// LoadSlots is l, the number of load delay cycles (the pipeline depth
	// of the L1-D access).
	LoadSlots int

	BranchScheme BranchScheme
	LoadScheme   LoadScheme
	// BTB configures the branch-target buffer for BranchBTB; zero value
	// means btb.PaperConfig.
	BTB btb.Config

	// ICaches and DCaches are the banks of cache configurations evaluated
	// simultaneously. Either bank may be empty (e.g. an
	// instruction-side-only experiment).
	ICaches []cache.Config
	DCaches []cache.Config

	// Quantum is the multiprogramming context-switch interval in
	// instructions. Zero means 20000.
	Quantum int64

	// L2 optionally enables the two-level hierarchy of Figure 1: a bank
	// of unified second-level caches fed by one designated L1 pair's
	// misses.
	L2 L2Config
}

func (c Config) withDefaults() Config {
	if c.Quantum == 0 {
		c.Quantum = 20000
	}
	if c.BTB == (btb.Config{}) {
		c.BTB = btb.PaperConfig()
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BranchSlots < 0 || c.BranchSlots > 8 {
		return fmt.Errorf("cpisim: branch slots %d out of range", c.BranchSlots)
	}
	if c.LoadSlots < 0 || c.LoadSlots > 8 {
		return fmt.Errorf("cpisim: load slots %d out of range", c.LoadSlots)
	}
	for _, cc := range c.ICaches {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("cpisim: icache: %w", err)
		}
	}
	for _, cc := range c.DCaches {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("cpisim: dcache: %w", err)
		}
	}
	if c.BranchScheme == BranchBTB {
		if err := c.withDefaults().BTB.Validate(); err != nil {
			return fmt.Errorf("cpisim: %w", err)
		}
	}
	if c.Quantum < 0 {
		return fmt.Errorf("cpisim: negative quantum")
	}
	if err := c.L2.Validate(c); err != nil {
		return err
	}
	return nil
}

// epsBins is the bin count of the recorded epsilon histograms; delay depths
// under study never exceed it.
const epsBins = 16
