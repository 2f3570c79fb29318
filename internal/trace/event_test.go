package trace

import (
	"reflect"
	"slices"
	"testing"

	"pipecache/internal/interp"
)

// stream is an event stream in column form; as an interp.EventSink it
// appends every batch it receives.
type stream struct {
	kind []uint8
	a    []uint32
	b    []uint8
}

func (s *stream) Events(kind []uint8, a []uint32, b []uint8) {
	s.kind = append(s.kind, kind...)
	s.a = append(s.a, a...)
	s.b = append(s.b, b...)
}

func (s *stream) add(k interp.EventKind, a uint32, b uint8) {
	s.Events([]uint8{uint8(k)}, []uint32{a}, []uint8{b})
}

// slice returns rows [lo, hi) as a stream.
func (s *stream) slice(lo, hi int) *stream {
	return &stream{kind: s.kind[lo:hi], a: s.a[lo:hi], b: s.b[lo:hi]}
}

// synthStream builds a deterministic synthetic event stream of n blocks,
// each EvBlock followed by a little memory and control traffic, with
// instsPerBlock instructions per block.
func synthStream(n int, instsPerBlock uint8) *stream {
	s := &stream{}
	for i := 0; i < n; i++ {
		s.add(interp.EvBlock, uint32(i), instsPerBlock)
		s.add(interp.EvMemLoad, uint32(0x1000+4*i), 0)
		s.add(interp.EvLoadUse, 0, uint8(i%4))
		if i%2 == 0 {
			s.add(interp.EvCTITaken, uint32(i), 0)
		} else {
			s.add(interp.EvMemStore, uint32(0x2000+4*i), 0)
		}
	}
	return s
}

// record captures evs into a single-bench trace, delivering them in
// batchSize batches, and also returns what the downstream sink saw.
func record(t *testing.T, evs *stream, batchSize int, insts int64) (*EventTrace, *stream) {
	t.Helper()
	teed := &stream{}
	rec := NewRecorder("k", insts)
	sink := rec.Bench("b", 7, teed)
	for lo := 0; lo < len(evs.kind); lo += batchSize {
		hi := min(lo+batchSize, len(evs.kind))
		sink.Events(evs.kind[lo:hi], evs.a[lo:hi], evs.b[lo:hi])
	}
	return rec.Finish(), teed
}

func TestRecorderTeeTransparent(t *testing.T) {
	evs := synthStream(100, 5)
	tr, teed := record(t, evs, 17, 500)
	if !sameStream(teed, evs) {
		t.Fatal("tee altered the forwarded stream")
	}
	b := tr.Bench(0)
	if b.Name() != "b" || b.Seed() != 7 {
		t.Fatalf("identity: %s/%d", b.Name(), b.Seed())
	}
	if b.Events() != int64(len(evs.kind)) {
		t.Fatalf("events = %d, want %d", b.Events(), len(evs.kind))
	}
	if b.Insts() != 500 {
		t.Fatalf("insts = %d, want 500", b.Insts())
	}
	if tr.Bytes() <= 0 {
		t.Fatal("no bytes accounted")
	}
}

// TestCursorTurnMatchesRunRule replays a stream turn by turn and checks
// the delivered sequence and per-turn instruction counts against the
// interpreter's rule: whole blocks until the running total reaches the
// target, stopping before the block that would overshoot.
func TestCursorTurnMatchesRunRule(t *testing.T) {
	const blocks, per = 40_000, 3 // > 2 chunks of events
	evs := synthStream(blocks, per)
	tr, _ := record(t, evs, 4096, blocks*per)

	for _, target := range []int64{1, 2, 3, 7, 100, 12_345} {
		// Reference: walk evs directly with the Run stop rule.
		ref := func(pos *int, target int64) (int64, *stream) {
			var ran int64
			start := *pos
			for i := start; i < len(evs.kind); i++ {
				if interp.EventKind(evs.kind[i]) == interp.EvBlock {
					if ran >= target {
						*pos = i
						return ran, evs.slice(start, i)
					}
					ran += int64(evs.b[i])
				}
			}
			*pos = len(evs.kind)
			return ran, evs.slice(start, len(evs.kind))
		}

		cur := tr.Cursor(0)
		pos := 0
		for turn := 0; ; turn++ {
			wantRan, want := ref(&pos, target)
			got := &stream{}
			ran := cur.Turn(target, got)
			if ran != wantRan {
				t.Fatalf("target %d turn %d: ran %d, want %d", target, turn, ran, wantRan)
			}
			if !sameStream(got, want) {
				t.Fatalf("target %d turn %d: delivered events diverge", target, turn)
			}
			if ran == 0 {
				if !cur.Done() {
					t.Fatal("ran 0 but cursor not done")
				}
				break
			}
		}
	}
}

// sameStream reports whether two streams hold the same rows, treating nil
// and empty columns alike.
func sameStream(x, y *stream) bool {
	return slices.Equal(x.kind, y.kind) && slices.Equal(x.a, y.a) && slices.Equal(x.b, y.b)
}

// TestChunkLayout pins the accounted chunk size to the columns a chunk
// holds: one byte of kind, four of A, one of B and two of block index per
// event, 8 in all.
func TestChunkLayout(t *testing.T) {
	perEvent := uintptr(0)
	ct := reflect.TypeOf(chunk{})
	for i := 0; i < ct.NumField(); i++ {
		if f := ct.Field(i); f.Type.Kind() == reflect.Slice {
			perEvent += f.Type.Elem().Size()
		}
	}
	if perEvent != 8 || chunkBytes != chunkEvents*perEvent {
		t.Errorf("chunk columns take %d bytes per event and chunkBytes is %d; want 8 and %d", perEvent, chunkBytes, chunkEvents*8)
	}
	if size := reflect.TypeOf(chunk{}.b).Elem().Size(); size != 1 {
		t.Errorf("B column entries take %d bytes, want 1", size)
	}
}

func TestEventTraceValidate(t *testing.T) {
	tr, _ := record(t, synthStream(10, 5), 64, 50)
	if err := tr.Validate(50, []string{"b"}, []uint64{7}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(49, []string{"b"}, []uint64{7}); err == nil {
		t.Error("budget mismatch accepted")
	}
	if err := tr.Validate(50, []string{"x"}, []uint64{7}); err == nil {
		t.Error("name mismatch accepted")
	}
	if err := tr.Validate(50, []string{"b"}, []uint64{8}); err == nil {
		t.Error("seed mismatch accepted")
	}
	if err := tr.Validate(50, []string{"b", "c"}, []uint64{7, 7}); err == nil {
		t.Error("count mismatch accepted")
	}
}
