package interp_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"testing"

	"pipecache/internal/gen"
	"pipecache/internal/interp"
)

// digestSink folds every event row into an FNV-1a hash, independent of
// how the stream is cut into batches.
type digestSink struct {
	h      hash.Hash64
	events int
}

func (s *digestSink) Events(kind []uint8, a, b []uint32) {
	var row [9]byte
	for i := range kind {
		row[0] = kind[i]
		binary.LittleEndian.PutUint32(row[1:], a[i])
		binary.LittleEndian.PutUint32(row[5:], b[i])
		s.h.Write(row[:])
	}
	s.events += len(kind)
}

// TestRunStreamDigest pins the event stream of three generated benchmarks
// over five 20k-instruction turns: the kinds, payloads and order of every
// event, the instructions each turn ran, and therefore the RNG evolution.
// The digests were recorded from the interpreter before its per-event
// Handler path was folded into the column stream, so a change to either
// the stream or its encoding fails here.
func TestRunStreamDigest(t *testing.T) {
	want := map[string]uint64{
		"gcc":      0x2bc6b101db849aba,
		"espresso": 0x5c06ec0cb641ff33,
		"linpack":  0xfb65392b2c964873,
	}
	for name, digest := range want {
		spec, ok := gen.LookupSpec(name)
		if !ok {
			t.Fatalf("spec %s missing", name)
		}
		p, err := gen.Build(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		it, err := interp.New(p, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		s := &digestSink{h: fnv.New64a()}
		for q := 0; q < 5; q++ {
			ran := it.Run(20_000, s)
			if ran < 20_000 {
				t.Fatalf("%s turn %d: ran %d < 20000", name, q, ran)
			}
			var n [8]byte
			binary.LittleEndian.PutUint64(n[:], uint64(ran))
			s.h.Write(n[:])
		}
		if s.events == 0 {
			t.Fatalf("%s: no events", name)
		}
		if got := s.h.Sum64(); got != digest {
			t.Errorf("%s: stream digest %#016x, want %#016x", name, got, digest)
		}
	}
}
