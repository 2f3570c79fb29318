// Package cache implements the set-associative cache models of the
// trace-driven simulator (the paper's cacheSIM): direct-mapped or
// set-associative caches with a pluggable replacement policy (LRU by
// default, plus FIFO and Tree-PLRU; see Policy), configurable block size,
// and write-back or write-through write policies.
//
// All addresses and sizes are in 32-bit words, matching the paper's units
// (cache sizes in K-words, block sizes of 4, 8 and 16 words).
package cache

import (
	"fmt"
	"math/bits"

	"pipecache/internal/obs"
)

// Config describes one cache.
type Config struct {
	// SizeKW is the capacity in K-words (1 KW = 1024 words = 4 KB).
	SizeKW int
	// BlockWords is the line size in words.
	BlockWords int
	// Assoc is the set associativity; 1 means direct-mapped.
	Assoc int
	// WriteBack selects write-back with write-allocate when true, or
	// write-through with no-write-allocate when false.
	WriteBack bool
	// Policy selects the replacement policy; the zero value is LRU (the
	// paper's policy), so pre-existing configurations are unchanged.
	Policy Policy
}

// Validate checks that the configuration is realizable: positive
// power-of-two capacity, block size and associativity, with at least one
// set, and a Tree-PLRU tree that fits its per-set word.
func (c Config) Validate() error {
	if c.SizeKW <= 0 || !isPow2(c.SizeKW) {
		return fmt.Errorf("cache: size %d KW must be a positive power of two", c.SizeKW)
	}
	if c.BlockWords <= 0 || !isPow2(c.BlockWords) {
		return fmt.Errorf("cache: block size %d words must be a positive power of two", c.BlockWords)
	}
	if c.Assoc <= 0 || !isPow2(c.Assoc) {
		return fmt.Errorf("cache: associativity %d must be a positive power of two", c.Assoc)
	}
	words := c.SizeKW * 1024
	if c.BlockWords*c.Assoc > words {
		return fmt.Errorf("cache: %d-word blocks x %d ways exceed %d-word capacity", c.BlockWords, c.Assoc, words)
	}
	if !c.Policy.Valid() {
		return fmt.Errorf("cache: unknown replacement policy %d", c.Policy)
	}
	if c.Policy == PolicyTreePLRU && c.Assoc > maxPLRUAssoc {
		return fmt.Errorf("cache: tree-plru associativity %d exceeds %d", c.Assoc, maxPLRUAssoc)
	}
	return nil
}

func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// String renders the configuration, e.g. "8KW/4W direct write-back".
func (c Config) String() string {
	org := "direct"
	if c.Assoc > 1 {
		org = fmt.Sprintf("%d-way", c.Assoc)
	}
	pol := "write-through"
	if c.WriteBack {
		pol = "write-back"
	}
	if c.Policy != PolicyLRU {
		// Only non-default policies render, so pre-existing strings (and
		// everything derived from them) are byte-identical.
		return fmt.Sprintf("%dKW/%dW %s %s %s", c.SizeKW, c.BlockWords, org, pol, c.Policy)
	}
	return fmt.Sprintf("%dKW/%dW %s %s", c.SizeKW, c.BlockWords, org, pol)
}

// Label renders the configuration as a compact metric-name segment,
// e.g. "8kw-b4-a1-wb".
func (c Config) Label() string {
	pol := "wt"
	if c.WriteBack {
		pol = "wb"
	}
	if c.Policy != PolicyLRU {
		return fmt.Sprintf("%dkw-b%d-a%d-%s-%s", c.SizeKW, c.BlockWords, c.Assoc, pol, c.Policy)
	}
	return fmt.Sprintf("%dkw-b%d-a%d-%s", c.SizeKW, c.BlockWords, c.Assoc, pol)
}

// Stats accumulates access outcomes.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadMisses  uint64
	WriteMisses uint64
	Writebacks  uint64 // dirty lines written back on eviction (write-back)
	Throughs    uint64 // writes forwarded to the next level (write-through)
}

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns the total miss count.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRatio returns misses per access, or 0 with no accesses.
func (s Stats) MissRatio() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// Result describes the outcome of one access.
type Result struct {
	Hit bool
	// Fill is true when the access allocates a line (and so pays the
	// refill penalty).
	Fill bool
	// Writeback is true when the allocation evicted a dirty line.
	Writeback bool
}

// Cache is one level of cache. It is not safe for concurrent use.
type Cache struct {
	cfg       Config
	sets      int
	blockBits uint
	// tagShift is the total shift from a word address's block number to
	// its tag (log2 of the set count), hoisted out of the per-access path.
	tagShift uint
	setMask  uint32

	// Per-way arrays, indexed [set*assoc + way].
	tags  []uint32
	valid []bool
	dirty []bool
	// lruTick[i] holds the last-use timestamp for LRU selection; under
	// FIFO it holds the fill timestamp instead (hits never refresh it).
	lruTick []uint64
	tick    uint64
	// plru[set] is the per-set Tree-PLRU bit tree (unused otherwise).
	plru []uint64

	stats Stats
}

// New builds a cache from the configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	words := cfg.SizeKW * 1024
	sets := words / (cfg.BlockWords * cfg.Assoc)
	n := sets * cfg.Assoc
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		blockBits: uint(bits.TrailingZeros32(uint32(cfg.BlockWords))),
		tagShift:  uint(bits.TrailingZeros32(uint32(sets))),
		setMask:   uint32(sets - 1),
		tags:      make([]uint32, n),
		valid:     make([]bool, n),
		dirty:     make([]bool, n),
		lruTick:   make([]uint64, n),
	}
	if cfg.Policy == PolicyTreePLRU {
		c.plru = make([]uint64, sets)
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the access statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats clears the statistics without touching cache contents; use it
// after warmup.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Publish registers the cache under prefix in reg and folds the current
// statistics in as counter additions. The Stats struct is the cache's
// zero-synchronization shard: the hot path increments plain fields, and
// Publish merges them with one atomic add per metric when the owning
// simulation pass completes. Call it once per run.
func (c *Cache) Publish(reg *obs.Registry, prefix string) {
	PublishStats(reg, prefix, c.stats)
}

// PublishStats folds one cache's statistics into reg under prefix, using
// the same counter names for every cache model (Cache, Bank).
func PublishStats(reg *obs.Registry, prefix string, s Stats) {
	reg.Counter(prefix + ".probes").Add(int64(s.Accesses()))
	reg.Counter(prefix + ".reads").Add(int64(s.Reads))
	reg.Counter(prefix + ".writes").Add(int64(s.Writes))
	reg.Counter(prefix + ".read_misses").Add(int64(s.ReadMisses))
	reg.Counter(prefix + ".write_misses").Add(int64(s.WriteMisses))
	reg.Counter(prefix + ".writebacks").Add(int64(s.Writebacks))
	reg.Counter(prefix + ".write_throughs").Add(int64(s.Throughs))
}

// Flush invalidates every line (dirty lines are counted as writebacks for a
// write-back cache) and leaves statistics alone.
func (c *Cache) Flush() {
	for i := range c.valid {
		if c.valid[i] && c.dirty[i] {
			c.stats.Writebacks++
		}
		c.valid[i] = false
		c.dirty[i] = false
	}
	// Reset the replacement trees too, matching a freshly built cache
	// (and Bank.Flush): refills repopulate them deterministically.
	for s := range c.plru {
		c.plru[s] = 0
	}
}

// Access performs one read (write=false) or write (write=true) of the word
// at addr and returns the outcome.
func (c *Cache) Access(addr uint32, write bool) Result {
	block := addr >> c.blockBits
	set := int(block & c.setMask)
	tag := block >> c.tagShift

	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	c.tick++

	// Direct-mapped fast path: one candidate line, no LRU bookkeeping.
	if c.cfg.Assoc == 1 {
		if c.valid[set] && c.tags[set] == tag {
			if write {
				if c.cfg.WriteBack {
					c.dirty[set] = true
				} else {
					c.stats.Throughs++
				}
			}
			return Result{Hit: true}
		}
		if write {
			c.stats.WriteMisses++
			if !c.cfg.WriteBack {
				c.stats.Throughs++
				return Result{}
			}
		} else {
			c.stats.ReadMisses++
		}
		res := Result{Fill: true}
		if c.valid[set] && c.dirty[set] {
			c.stats.Writebacks++
			res.Writeback = true
		}
		c.valid[set] = true
		c.dirty[set] = write && c.cfg.WriteBack
		c.tags[set] = tag
		return res
	}

	base := set * c.cfg.Assoc
	// Hit path.
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			switch c.cfg.Policy {
			case PolicyLRU:
				c.lruTick[i] = c.tick
			case PolicyFIFO:
				// FIFO age is the fill time; a hit changes nothing.
			case PolicyTreePLRU:
				c.plru[set] = plruTouch(c.plru[set], uint32(w), uint32(bits.TrailingZeros32(uint32(c.cfg.Assoc))))
			}
			if write {
				if c.cfg.WriteBack {
					c.dirty[i] = true
				} else {
					c.stats.Throughs++
				}
			}
			return Result{Hit: true}
		}
	}

	// Miss path.
	if write {
		c.stats.WriteMisses++
		if !c.cfg.WriteBack {
			// No-write-allocate: forward the write, do not fill.
			c.stats.Throughs++
			return Result{}
		}
	} else {
		c.stats.ReadMisses++
	}

	// Allocate: the first invalid way if one exists (every policy fills
	// empty ways first), otherwise the policy's victim — oldest use for
	// LRU, oldest fill for FIFO, or the way the bit tree selects.
	victim := -1
	for w := 0; w < c.cfg.Assoc; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
	}
	if victim < 0 {
		if c.cfg.Policy == PolicyTreePLRU {
			victim = base + int(plruVictim(c.plru[set], uint32(bits.TrailingZeros32(uint32(c.cfg.Assoc)))))
		} else {
			victim = base
			for w := 1; w < c.cfg.Assoc; w++ {
				if c.lruTick[base+w] < c.lruTick[victim] {
					victim = base + w
				}
			}
		}
	}
	res := Result{Fill: true}
	if c.valid[victim] && c.dirty[victim] {
		c.stats.Writebacks++
		res.Writeback = true
	}
	c.valid[victim] = true
	c.dirty[victim] = write && c.cfg.WriteBack
	c.tags[victim] = tag
	c.lruTick[victim] = c.tick
	if c.cfg.Policy == PolicyTreePLRU {
		c.plru[set] = plruTouch(c.plru[set], uint32(victim-base), uint32(bits.TrailingZeros32(uint32(c.cfg.Assoc))))
	}
	return res
}

// Contains reports whether the word at addr is currently cached (without
// touching LRU state or statistics).
func (c *Cache) Contains(addr uint32) bool {
	block := addr >> c.blockBits
	set := int(block & c.setMask)
	tag := block >> c.tagShift
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}
