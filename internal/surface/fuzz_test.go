package surface

import (
	"testing"
)

// FuzzSurfaceReader pins the decoder's safety contract: arbitrary bytes —
// truncations, bit flips, hostile ladder lengths and histogram bin counts,
// wrong magics — must produce a clean error or a valid surface, never a
// panic and never an allocation larger than the input justifies. The
// harness also drives the unverified decode path (verify=false), because
// mutated inputs cannot recompute the payload hash and would otherwise
// never reach the section decoders.
func FuzzSurfaceReader(f *testing.F) {
	valid, err := Encode(sampleData())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:68])           // header only, zero payload
	f.Add(valid[:len(valid)/2]) // mid-section truncation
	f.Add([]byte("PSF2"))
	f.Add([]byte("PSF1")) // the older, answer-storing layout
	f.Add([]byte("PCT2")) // a sibling format's magic
	f.Add([]byte{})
	corrupt := append([]byte(nil), valid...)
	corrupt[70] ^= 0x80 // bend a varint inside the section table
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Decode(data); err == nil {
			// Whatever decoded must be safely queryable.
			_ = s.Hash()
			_ = s.ParamsHash()
			if s.Size() != len(data) {
				t.Fatalf("Size() = %d on %d input bytes", s.Size(), len(data))
			}
			if s.NumPasses() != len(passSections) {
				t.Fatalf("decoded %d passes", s.NumPasses())
			}
		}
		// The unverified path must hold the same no-panic guarantee.
		if s, err := decode(data, false); err == nil {
			for _, p := range s.d.Passes {
				if p == nil {
					t.Fatal("decoded a surface with a missing pass")
				}
			}
		}
	})
}
