package trace

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader: arbitrary bytes must never panic the reader; valid prefixes
// must parse cleanly.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Ref{IFetch, 1, 0x1234})
	w.Write(Ref{Store, 63, 0xffffffff})
	w.Write(Ref{Load, 63, 0}) // large negative delta
	w.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-1]) // cut mid-varint
	// The retired fixed-record PCT1 magic, rejected.
	f.Add([]byte("PCT1"))
	f.Add([]byte("PCT2"))
	// PCT2 with an oversized varint delta (would overflow uint32).
	f.Add([]byte("PCT2\x01\xff\xff\xff\xff\xff\x7f"))
	f.Add([]byte("XXXX"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 10000; i++ {
			ref, err := r.Read()
			if err == io.EOF {
				return
			}
			if err != nil {
				return
			}
			if ref.Kind > Store || ref.PID > maxPID {
				t.Fatalf("reader produced invalid record %+v", ref)
			}
		}
	})
}
