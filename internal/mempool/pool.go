// Package mempool provides size-classed pools for the flat slabs the
// replay tier allocates per pass: cache bank tables, line words and
// holder maps. A design-space sweep builds and discards
// thousands of simulator instances over identical geometries, so the same
// few slab sizes recycle endlessly; pooling them makes the steady-state
// replay loop allocation-free.
//
// Slabs are pooled by power-of-two capacity class. Get returns a slab of
// exactly the requested length (backed by the class capacity) with
// zeroed contents; Put recycles one for any later Get of the same class.
package mempool

import (
	"math/bits"
	"sync"
)

// maxClass bounds the pooled capacity at 1<<maxClass elements per slab;
// larger requests fall through to plain allocation.
const maxClass = 24

func class(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// pools is one size-class ladder: pools[c] holds slabs of capacity 1<<c.
type pools[T any] struct {
	classes [maxClass + 1]sync.Pool
}

func (p *pools[T]) get(n int) []T {
	if n == 0 {
		return nil
	}
	c := class(n)
	if c > maxClass {
		return make([]T, n)
	}
	if v := p.classes[c].Get(); v != nil {
		s := v.([]T)[:n]
		var zero T
		for i := range s {
			s[i] = zero
		}
		return s
	}
	return make([]T, n, 1<<c)
}

func (p *pools[T]) put(s []T) {
	c := bits.Len(uint(cap(s)))
	if cap(s) == 0 || cap(s)&(cap(s)-1) != 0 {
		return // not one of ours; let the GC have it
	}
	c-- // cap is a power of two: class is its exact log2
	if c > maxClass {
		return
	}
	p.classes[c].Put(s[:cap(s)])
}

var (
	u64Pools pools[uint64]
	i32Pools pools[int32]
)

// Uint64s returns a zeroed []uint64 of length n from the pool.
func Uint64s(n int) []uint64 { return u64Pools.get(n) }

// PutUint64s recycles a slab obtained from Uint64s.
func PutUint64s(s []uint64) { u64Pools.put(s) }

// Int32s returns a zeroed []int32 of length n from the pool.
func Int32s(n int) []int32 { return i32Pools.get(n) }

// PutInt32s recycles a slab obtained from Int32s.
func PutInt32s(s []int32) { i32Pools.put(s) }
