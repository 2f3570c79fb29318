package trace

import (
	"fmt"
	"sort"
	"sync"

	"pipecache/internal/interp"
)

// The in-memory event-trace tier: a capture-once/replay-many store of the
// interpreter's column-encoded event stream (interp.EventSink). The paper
// drove cacheSIM from pre-captured multiprogrammed traces precisely so one
// expensive trace could be amortized over many cache configurations; this
// is the same idea applied to the reproduction's own execution engine.
//
// The stream of one interpreter is a pure function of (program, seed,
// instruction budget) — see the stream invariance contract in
// internal/interp/events.go. Delay-slot translations, branch and load
// schemes, cache banks, and even the multiprogramming quantum are applied
// by the consumer, so a trace captured on one pass replays bit-identically
// under any of them. The trace therefore stores one flat stream per
// benchmark, and Cursor re-interleaves them at replay time with the same
// block-granular scheduling rule the live simulator uses.
//
// Storage keeps the interpreter's kind/A/B columns in fixed-size chunks:
// 9 bytes per event plus a block-boundary index, and no large contiguous
// allocations. A trace is an ordinary garbage-collected value, so it
// lives exactly as long as the store or a replay still references it.
// Replay hands sinks zero-copy sub-slices of the stored columns.

// chunkEvents is the capacity of one columnar chunk (16Ki events ≈ 150 KB
// with the block index).
const chunkEvents = 1 << 14

// chunkBytes is the accounted storage cost of one chunk: 9 bytes per event
// for the kind/a/b columns plus 4 for the worst-case block index.
const chunkBytes = chunkEvents * 13

type chunk struct {
	kind []uint8
	a, b []uint32
	// insts is the sum of the EvBlock B fields stored in this chunk,
	// maintained on append. Cursor.Turn uses it to deliver chunks that
	// cannot reach the stop threshold wholesale, without scanning for
	// block boundaries.
	insts int64
	// blockPos indexes the EvBlock events in the chunk (ascending offsets
	// into kind/a/b), so Turn walks block boundaries directly instead of
	// testing every event's kind.
	blockPos []int32
}

// BenchEvents is one benchmark's captured event stream.
type BenchEvents struct {
	name   string
	seed   uint64
	insts  int64 // total instructions (sum of EvBlock B fields)
	events int64
	chunks []*chunk
}

// Name returns the benchmark's name.
func (b *BenchEvents) Name() string { return b.name }

// Seed returns the workload seed the stream was captured under.
func (b *BenchEvents) Seed() uint64 { return b.seed }

// Insts returns the total captured instruction count (including the
// block-boundary overshoot past the capture budget).
func (b *BenchEvents) Insts() int64 { return b.insts }

// Events returns the number of captured events.
func (b *BenchEvents) Events() int64 { return b.events }

// append copies one batch of columns onto the stream, a chunk-sized run
// at a time, indexing its block boundaries.
func (b *BenchEvents) append(kind []uint8, as, bs []uint32) {
	b.events += int64(len(kind))
	for len(kind) > 0 {
		n := len(b.chunks)
		if n == 0 || len(b.chunks[n-1].kind) == chunkEvents {
			b.chunks = append(b.chunks, &chunk{
				kind: make([]uint8, 0, chunkEvents),
				a:    make([]uint32, 0, chunkEvents),
				b:    make([]uint32, 0, chunkEvents),
			})
			n++
		}
		cur := b.chunks[n-1]
		run := min(len(kind), chunkEvents-len(cur.kind))
		for i, k := range kind[:run] {
			if interp.EventKind(k) == interp.EvBlock {
				b.insts += int64(bs[i])
				cur.insts += int64(bs[i])
				cur.blockPos = append(cur.blockPos, int32(len(cur.kind)+i))
			}
		}
		cur.kind = append(cur.kind, kind[:run]...)
		cur.a = append(cur.a, as[:run]...)
		cur.b = append(cur.b, bs[:run]...)
		kind, as, bs = kind[run:], as[run:], bs[run:]
	}
}

// EventTrace is a complete multiprogrammed capture: one event stream per
// benchmark plus the identity it was captured under. A finished trace is
// immutable, so the Store and any number of concurrent replays share it.
type EventTrace struct {
	key           string
	instsPerBench int64
	benches       []*BenchEvents
	bytes         int64

	// aux carries replay-tier caches derived from this trace's immutable
	// streams (e.g. compiled chunk plans); see Aux.
	aux sync.Map
}

// Aux returns the trace's auxiliary cache: an arbitrarily-keyed map for
// derived data whose lifetime must match the trace's, such as the replay
// tier's compiled chunk plans. The streams are immutable, so a derivation
// computed once stays valid for the trace's whole life; consumers must
// choose keys that distinct derivations cannot collide on (chunk column
// pointers are unique within one trace).
func (t *EventTrace) Aux() *sync.Map { return &t.aux }

// Key returns the capture key the trace was recorded under.
func (t *EventTrace) Key() string { return t.key }

// Len returns the number of benchmark streams.
func (t *EventTrace) Len() int { return len(t.benches) }

// Bench returns the i'th benchmark stream.
func (t *EventTrace) Bench(i int) *BenchEvents { return t.benches[i] }

// Bytes returns the accounted storage size of the trace.
func (t *EventTrace) Bytes() int64 { return t.bytes }

// Events returns the total event count across all benchmarks.
func (t *EventTrace) Events() int64 {
	var n int64
	for _, b := range t.benches {
		n += b.events
	}
	return n
}

// Release does nothing: a trace is ordinary garbage-collected memory. It
// remains only because the end-to-end benchmark (perfbench/layers.go)
// calls it; delete it at the next change to the benchmark.
func (t *EventTrace) Release() {}

// Recorder captures an EventTrace: one Bench sink per workload, copying
// the event stream into columnar chunks, either on its way to a live
// simulator (Sim.SetCapture tees it) or with nothing behind it (core.Lab's
// capture stage runs each interpreter standalone).
type Recorder struct {
	tr *EventTrace
}

// NewRecorder starts a capture for the given key and per-benchmark
// instruction budget.
func NewRecorder(key string, instsPerBench int64) *Recorder {
	return &Recorder{tr: &EventTrace{key: key, instsPerBench: instsPerBench}}
}

// Bench registers one benchmark stream and returns the sink to drive it:
// each batch is forwarded to next, unless next is nil, and then copied
// onto the trace's columns. Benchmarks must be registered in workload
// order; once registered, the sinks of different benchmarks may run on
// different goroutines.
func (r *Recorder) Bench(name string, seed uint64, next interp.EventSink) interp.EventSink {
	be := &BenchEvents{name: name, seed: seed}
	r.tr.benches = append(r.tr.benches, be)
	return &benchRecorder{be: be, next: next}
}

type benchRecorder struct {
	be   *BenchEvents
	next interp.EventSink
}

func (br *benchRecorder) Events(kind []uint8, a, b []uint32) {
	if br.next != nil {
		br.next.Events(kind, a, b)
	}
	br.be.append(kind, a, b)
}

// Finish seals the capture and returns the trace.
func (r *Recorder) Finish() *EventTrace {
	t := r.tr
	for _, b := range t.benches {
		t.bytes += int64(len(b.chunks)) * chunkBytes
	}
	t.bytes += int64(len(t.benches)) * 64 // struct overhead, coarse
	return t
}

// Cursor walks one benchmark stream during replay. The zero value is not
// useful; obtain cursors from EventTrace.Cursor.
type Cursor struct {
	be  *BenchEvents
	ci  int // chunk index
	off int // offset within chunk
}

// Cursor returns a cursor at the start of the i'th benchmark stream.
func (t *EventTrace) Cursor(i int) Cursor { return Cursor{be: t.benches[i]} }

// Done reports whether the stream is exhausted.
func (c *Cursor) Done() bool {
	return c.ci >= len(c.be.chunks) ||
		(c.ci == len(c.be.chunks)-1 && c.off >= len(c.be.chunks[c.ci].kind))
}

// Turn replays one multiprogramming turn: whole blocks are delivered until
// at least target instructions have been replayed, mirroring the
// interpreter's Run rule exactly (stop at the first block boundary at or
// past the target). It returns the number of instructions replayed, zero
// once the stream is exhausted.
//
// Batches are zero-copy sub-slices of the stored columns. Their boundaries
// differ from the live run's, which interp.EventSink allows.
func (c *Cursor) Turn(target int64, sink interp.EventSink) int64 {
	var ran int64
	for c.ci < len(c.be.chunks) {
		ch := c.be.chunks[c.ci]
		kinds := ch.kind
		start := c.off
		if start == 0 && ran+ch.insts <= target {
			// The whole chunk stays below the stop threshold: every block
			// boundary inside it would be checked with ran < target
			// (blocks execute at least one instruction), so the chunk can
			// be delivered wholesale without scanning block boundaries.
			sink.Events(kinds, ch.a, ch.b)
			ran += ch.insts
			c.ci++
			continue
		}
		bp := ch.blockPos
		bi := sort.Search(len(bp), func(j int) bool { return int(bp[j]) >= start })
		for ; bi < len(bp); bi++ {
			i := int(bp[bi])
			if ran >= target {
				// Deliver everything up to (not including) the block that
				// would overshoot, and park the cursor on it.
				if i > start {
					sink.Events(kinds[start:i], ch.a[start:i], ch.b[start:i])
				}
				c.off = i
				return ran
			}
			ran += int64(ch.b[i])
		}
		if len(kinds) > start {
			sink.Events(kinds[start:], ch.a[start:], ch.b[start:])
		}
		c.ci++
		c.off = 0
	}
	return ran
}

// Validate checks that the trace can replay a pass over the given
// workloads (same benchmarks, same seeds, same budget, in order).
func (t *EventTrace) Validate(instsPerBench int64, names []string, seeds []uint64) error {
	if instsPerBench != t.instsPerBench {
		return fmt.Errorf("trace: captured at %d insts/bench, replay wants %d", t.instsPerBench, instsPerBench)
	}
	if len(names) != len(t.benches) {
		return fmt.Errorf("trace: %d captured benchmarks, replay has %d", len(t.benches), len(names))
	}
	for i, b := range t.benches {
		if b.name != names[i] || b.seed != seeds[i] {
			return fmt.Errorf("trace: bench %d is %s/%#x, replay wants %s/%#x",
				i, b.name, b.seed, names[i], seeds[i])
		}
	}
	return nil
}
