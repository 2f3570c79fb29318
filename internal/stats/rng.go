// Package stats provides the small statistical toolkit used throughout the
// simulator: a fast deterministic RNG, weighted means, histograms and CDFs.
//
// Everything in this package is deterministic given its inputs; the
// simulator never uses math/rand's global state, so runs are reproducible
// bit-for-bit across machines and Go versions.
package stats

// RNG is a splitmix64 pseudo-random number generator.
//
// Splitmix64 is used instead of math/rand because its output sequence is
// fixed by the algorithm (math/rand's generator has changed across Go
// releases), it is trivially seedable, and a value of the zero seed is
// still usable. The zero value of RNG is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator state.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Range returns a pseudo-random int in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("stats: Range with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Geometric returns a sample from a geometric distribution with success
// probability p, i.e. the number of failures before the first success.
// p must be in (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("stats: Geometric probability out of range")
	}
	n := 0
	for !r.Bool(p) {
		n++
		if n > 1<<20 { // defensive bound; unreachable for sane p
			break
		}
	}
	return n
}

// Pick returns an index in [0, len(weights)) chosen with probability
// proportional to weights[i]. It panics if weights is empty or sums to a
// non-positive value.
func (r *RNG) Pick(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("stats: Pick with negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("stats: Pick with no positive weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Split derives an independent generator from this one. The derived
// generator's sequence does not overlap the parent's for practical stream
// lengths because splitmix64 streams with distinct seeds are effectively
// independent.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}
