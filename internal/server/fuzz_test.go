package server

import (
	"strings"
	"testing"

	"pipecache/internal/core"
)

// FuzzDesignRequest hammers the /v1/simulate decoder: it must never panic,
// and whenever it accepts a body the result must be a fixed point of
// normalization with a deterministic content address.
func FuzzDesignRequest(f *testing.F) {
	seeds := []string{
		`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}`,
		`{"b":0,"l":0,"isize_kw":1,"dsize_kw":1,"loads":"dynamic"}`,
		`{"b":3,"l":3,"isize_kw":64,"dsize_kw":64,"l2_time_ns":120}`,
		`{"b":1,"l":2,"isize_kw":4,"dsize_kw":16,"loads":"STATIC"}`,
		`{}`,
		`{"b":-1}`,
		`{"b":9,"l":9,"isize_kw":3,"dsize_kw":5}`,
		`{"unknown":true}`,
		`{"b":1,"l":1,"isize_kw":8,"dsize_kw":8}{"b":2}`,
		`not json at all`,
		``,
		`null`,
		`[1,2,3]`,
		`{"l2_time_ns":-5}`,
		`{"l2_time_ns":1e300}`,
		`{"loads":"quantum"}`,
		`{"b":1e999}`,
		`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}}`,
		`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}]`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	p := core.DefaultParams()
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeDesignRequest(strings.NewReader(body), p)
		if err != nil {
			return
		}
		// An accepted request must already be in canonical form...
		again, err := req.normalize(p)
		if err != nil {
			t.Fatalf("accepted request failed re-normalization: %v (%+v)", err, req)
		}
		if again != req {
			t.Fatalf("normalize is not idempotent: %+v -> %+v", req, again)
		}
		// ...with a stable, well-formed content address.
		k1, k2 := RequestKey("simulate", req), RequestKey("simulate", req)
		if k1 != k2 || len(k1) != 64 {
			t.Fatalf("unstable or malformed request key: %q vs %q", k1, k2)
		}
	})
}
