// Package fault is the deterministic fault-injection layer of the
// concurrent tiers. Product code declares named injection points at the
// seams where partial failure is possible (singleflight leadership, worker
// pools, trace capture, reader I/O) and calls Inject on every pass through
// the seam. With no plan installed an injection point is a single atomic
// load — the product path never consults the clock or a random source.
//
// When a Plan is installed (chaos tests only), each hit of each point is
// mapped to a fault decision by a pure function of (plan seed, point name,
// hit ordinal): a splitmix64 hash decides whether the hit fires and which
// fault kind it produces. The schedule therefore depends only on the seed
// and the per-point hit sequence — rerunning a failing seed reproduces the
// same per-point fault pattern, while goroutine scheduling merely permutes
// which caller absorbs which fault. The standing invariants the chaos suite
// asserts (convergence to bit-identical results, no leaked goroutines or
// trace references, consistent counters) hold for every interleaving.
//
// Point names follow <layer>.<component>.<operation>, e.g.
// "server.cache.leader", "lab.pass.run", "trace.store.acquire",
// "trace.reader.read"; Plan.Points selects by prefix.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is one fault flavour an injection point can produce.
type Kind uint8

const (
	// KindError makes Inject return an *Injected error.
	KindError Kind = iota
	// KindCancel makes Inject return an error that wraps both
	// context.Canceled and ErrInjected, simulating a context cancelled
	// server-side mid-operation.
	KindCancel
	// KindDelay makes Inject sleep for a seed-derived duration (bounded by
	// Plan.MaxDelayMicros) and return nil, perturbing goroutine
	// interleavings without failing anything.
	KindDelay
	// KindPanic makes Inject panic with a PanicValue.
	KindPanic

	numKinds = 4
)

func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindCancel:
		return "cancel"
	case KindDelay:
		return "delay"
	case KindPanic:
		return "panic"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// KindMask selects a set of kinds a plan may fire.
type KindMask uint8

// Mask returns the mask with only k set.
func (k Kind) Mask() KindMask { return 1 << k }

// Has reports whether k is in the mask.
func (m KindMask) Has(k Kind) bool { return m&(1<<k) != 0 }

// AllKinds enables every fault kind.
const AllKinds KindMask = 1<<numKinds - 1

// ErrInjected is the sentinel every injected error wraps; tests and
// accounting use it to tell injected faults from organic failures.
var ErrInjected = errors.New("fault: injected")

// Injected is the error produced by KindError (and, wrapping
// context.Canceled too, by KindCancel).
type Injected struct {
	// Point is the injection-point name that fired.
	Point string
	// Hit is the per-point hit ordinal that fired (0-based).
	Hit uint64
	// Canceled marks a KindCancel injection.
	Canceled bool
}

func (e *Injected) Error() string {
	if e.Canceled {
		return fmt.Sprintf("fault: injected cancellation at %s (hit %d)", e.Point, e.Hit)
	}
	return fmt.Sprintf("fault: injected error at %s (hit %d)", e.Point, e.Hit)
}

// Unwrap lets errors.Is see ErrInjected always, and context.Canceled for
// cancellation injections.
func (e *Injected) Unwrap() []error {
	if e.Canceled {
		return []error{ErrInjected, context.Canceled}
	}
	return []error{ErrInjected}
}

// PanicValue is the payload of a KindPanic injection; recover sites can
// type-assert it to recognise injected panics.
type PanicValue struct {
	Point string
	Hit   uint64
}

func (p PanicValue) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// Point is one named injection point. Declare once (package-level var) and
// call Inject on every pass; the zero cost when no plan is installed is one
// atomic pointer load.
type Point struct {
	name string
	hash uint64
	hits atomic.Uint64

	fires [numKinds]atomic.Int64
}

// points is the global registry of declared points, so Enable can reset hit
// ordinals and Stats can enumerate.
var points sync.Map // name -> *Point

// NewPoint declares (or returns the existing) injection point with the
// given name.
func NewPoint(name string) *Point {
	if p, ok := points.Load(name); ok {
		return p.(*Point)
	}
	p := &Point{name: name, hash: fnv64a(name)}
	if prev, loaded := points.LoadOrStore(name, p); loaded {
		return prev.(*Point)
	}
	return p
}

// Name returns the point's name.
func (p *Point) Name() string { return p.name }

// active is the installed plan; nil means injection is off.
var active atomic.Pointer[Plan]

// Plan is one deterministic fault schedule. Install with Enable.
type Plan struct {
	// Seed drives the per-hit fault decisions.
	Seed uint64
	// Rate1024 is the per-hit fire probability in 1/1024ths (clamped to
	// [0, 1024]).
	Rate1024 int
	// Kinds is the set of fault kinds that may fire; zero means AllKinds.
	Kinds KindMask
	// MaxDelayMicros bounds KindDelay sleeps (default 200µs when zero).
	MaxDelayMicros int
	// MaxFires caps the total faults injected across all points; zero
	// means unlimited. A finite cap lets a chaos run converge: once the
	// budget is spent every operation succeeds.
	MaxFires int64
	// Points restricts injection to points whose name starts with one of
	// these prefixes; empty means every point.
	Points []string

	fired atomic.Int64
}

// Enable installs the plan (replacing any previous one) and resets every
// declared point's hit ordinals and fire statistics, so schedules are
// reproducible run to run. Not for concurrent use with in-flight Inject
// calls of a previous plan.
func Enable(p *Plan) {
	points.Range(func(_, v any) bool {
		pt := v.(*Point)
		pt.hits.Store(0)
		for i := range pt.fires {
			pt.fires[i].Store(0)
		}
		return true
	})
	active.Store(p)
}

// Disable removes the installed plan; injection points revert to no-ops.
func Disable() { active.Store(nil) }

// Fired returns the number of faults the plan has injected so far.
func (p *Plan) Fired() int64 { return p.fired.Load() }

// Stats returns the per-kind fire counts of every declared point that fired
// at least once, keyed "point/kind".
func Stats() map[string]int64 {
	out := map[string]int64{}
	points.Range(func(_, v any) bool {
		pt := v.(*Point)
		for k := 0; k < numKinds; k++ {
			if n := pt.fires[k].Load(); n > 0 {
				out[pt.name+"/"+Kind(k).String()] = n
			}
		}
		return true
	})
	return out
}

// Inject runs the point's fault decision for this hit: nil (no fault or no
// plan), an *Injected error, a bounded sleep then nil, or a PanicValue
// panic.
func (p *Point) Inject() error {
	pl := active.Load()
	if pl == nil {
		return nil
	}
	return pl.inject(p, AllKinds)
}

// Perturb is Inject restricted to KindDelay: seams that cannot tolerate an
// error or a panic (pure in-memory bookkeeping like a commit under a lock's
// scope) still get their interleavings shaken.
func (p *Point) Perturb() {
	pl := active.Load()
	if pl == nil {
		return
	}
	pl.inject(p, KindDelay.Mask()) //nolint:errcheck // delay-only never errors
}

func (pl *Plan) inject(p *Point, allowed KindMask) error {
	if len(pl.Points) > 0 && !matchAny(p.name, pl.Points) {
		return nil
	}
	hit := p.hits.Add(1) - 1
	h := splitmix64(pl.Seed ^ p.hash ^ (hit+1)*0x9e3779b97f4a7c15)
	rate := pl.Rate1024
	if rate > 1024 {
		rate = 1024
	}
	if int(h&1023) >= rate {
		return nil
	}
	kinds := pl.Kinds & allowed
	if pl.Kinds == 0 {
		kinds = allowed
	}
	n := kindCount(kinds)
	if n == 0 {
		return nil
	}
	kind := pickKind(kinds, int((h>>10)%uint64(n)))
	if pl.MaxFires > 0 && pl.fired.Add(1) > pl.MaxFires {
		pl.fired.Add(-1)
		return nil
	} else if pl.MaxFires == 0 {
		pl.fired.Add(1)
	}
	p.fires[kind].Add(1)
	switch kind {
	case KindError:
		return &Injected{Point: p.name, Hit: hit}
	case KindCancel:
		return &Injected{Point: p.name, Hit: hit, Canceled: true}
	case KindDelay:
		max := pl.MaxDelayMicros
		if max <= 0 {
			max = 200
		}
		time.Sleep(time.Duration(1+(h>>20)%uint64(max)) * time.Microsecond)
		return nil
	case KindPanic:
		panic(PanicValue{Point: p.name, Hit: hit})
	}
	return nil
}

func matchAny(name string, prefixes []string) bool {
	for _, pre := range prefixes {
		if len(name) >= len(pre) && name[:len(pre)] == pre {
			return true
		}
	}
	return false
}

func kindCount(m KindMask) int {
	n := 0
	for k := 0; k < numKinds; k++ {
		if m.Has(Kind(k)) {
			n++
		}
	}
	return n
}

func pickKind(m KindMask, idx int) Kind {
	for k := 0; k < numKinds; k++ {
		if m.Has(Kind(k)) {
			if idx == 0 {
				return Kind(k)
			}
			idx--
		}
	}
	return KindError
}

// splitmix64 is the standard 64-bit finalizing mixer; one invocation fully
// decorrelates consecutive inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64a hashes a point name (FNV-1a).
func fnv64a(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
