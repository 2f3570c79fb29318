package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"pipecache/internal/core"
	"pipecache/internal/surface"
)

// bakedSurface bakes (once per test binary) a surface matching the testLab
// parameters, on a throwaway lab so the serving lab under test starts with
// zero passes.
var (
	bakedOnce sync.Once
	bakedSurf *surface.Surface
	bakedErr  error
)

func bakedSurface(t testing.TB) *surface.Surface {
	t.Helper()
	bakedOnce.Do(func() {
		lab := testLab(t, 20_000)
		d, err := surface.Bake(context.Background(), lab)
		if err != nil {
			bakedErr = err
			return
		}
		b, err := surface.Encode(d)
		if err != nil {
			bakedErr = err
			return
		}
		bakedSurf, bakedErr = surface.Decode(b)
	})
	if bakedErr != nil {
		t.Fatalf("baking test surface: %v", bakedErr)
	}
	return bakedSurf
}

// TestSurfaceServing: a surface-backed server answers baked requests as
// pure lookups — provenance and identity headers set, zero simulation on
// the serving lab — and reports the surface in /healthz.
func TestSurfaceServing(t *testing.T) {
	sf := bakedSurface(t)
	lab := testLab(t, 20_000)
	srv, ts := testServer(t, lab, Config{Surface: sf})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "surface" {
		t.Fatalf("X-Cache = %q, want surface", xc)
	}
	if xs := resp.Header.Get("X-Surface"); xs != sf.Hash() {
		t.Fatalf("X-Surface = %q, want %q", xs, sf.Hash())
	}
	if et := resp.Header.Get("ETag"); !strings.HasPrefix(et, `"`) || !strings.HasSuffix(et, `"`) {
		t.Fatalf("ETag %q is not a quoted strong tag", et)
	}
	c := srv.Registry().Snapshot().Counters
	if c["lab.pass_requests"] != 0 || c["lab.passes_run"] != 0 {
		t.Fatalf("surface-served request ran simulation: pass_requests=%d passes_run=%d",
			c["lab.pass_requests"], c["lab.passes_run"])
	}
	if c["surface.hits"] != 1 {
		t.Fatalf("surface.hits = %d, want 1", c["surface.hits"])
	}

	_, hbody := get(t, ts.URL+"/healthz")
	var h HealthResponse
	if err := json.Unmarshal(hbody, &h); err != nil {
		t.Fatal(err)
	}
	if h.Surface == nil || h.Surface.Hash != sf.Hash() || h.Surface.Points != sf.NumPoints() {
		t.Fatalf("healthz surface block = %+v, want hash %s with %d points", h.Surface, sf.Hash(), sf.NumPoints())
	}
}

// TestSurfaceFallbackServesFromResultCache: a request outside the baked
// space is computed live exactly once, and the second identical request is
// a result-cache hit with the same body and ETag — then revalidates to 304.
func TestSurfaceFallbackServesFromResultCache(t *testing.T) {
	sf := bakedSurface(t)
	lab := testLab(t, 20_000)
	srv, ts := testServer(t, lab, Config{Surface: sf})

	// l2_time_ns 50 is off the baked surface (baked at the lab default).
	unbaked := `{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"l2_time_ns":50}`
	resp1, body1 := postJSON(t, ts.URL+"/v1/simulate", unbaked)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if xc := resp1.Header.Get("X-Cache"); xc != string(OutcomeMiss) {
		t.Fatalf("first un-baked request X-Cache = %q, want miss", xc)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", unbaked)
	if xc := resp2.Header.Get("X-Cache"); xc != string(OutcomeHit) {
		t.Fatalf("second un-baked request X-Cache = %q, want hit", xc)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached body differs from the live body:\nlive:   %s\ncached: %s", body1, body2)
	}
	e1, e2 := resp1.Header.Get("ETag"), resp2.Header.Get("ETag")
	if e1 == "" || e1 != e2 {
		t.Fatalf("ETag changed across tiers: live %q, cached %q", e1, e2)
	}

	// Revalidation: presenting the tag back yields 304 with no body.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", strings.NewReader(unbaked))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("If-None-Match", e1)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	b3, _ := io.ReadAll(resp3.Body)
	if resp3.StatusCode != http.StatusNotModified || len(b3) != 0 {
		t.Fatalf("If-None-Match revalidation: status %d body %q, want 304 with empty body", resp3.StatusCode, b3)
	}
	c := srv.Registry().Snapshot().Counters
	if c["server.requests_not_modified"] != 1 {
		t.Fatalf("requests_not_modified = %d, want 1", c["server.requests_not_modified"])
	}
	if c["server.cache.misses"] != 1 || c["server.cache.hits"] != 2 {
		t.Fatalf("result cache misses=%d hits=%d, want 1 live compute and 2 hits",
			c["server.cache.misses"], c["server.cache.hits"])
	}
}

// TestNewRejectsMismatchedSurface: New must refuse a surface whose params
// hash or point count disagrees with the lab, instead of silently serving
// another experiment's numbers.
func TestNewRejectsMismatchedSurface(t *testing.T) {
	lab := testLab(t, 20_000)
	want := surface.HashParams(core.Fingerprint(lab.Suite, lab.P))

	mk := func(d *surface.Data) *surface.Surface {
		t.Helper()
		b, err := surface.Encode(d)
		if err != nil {
			t.Fatal(err)
		}
		sf, err := surface.Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		return sf
	}

	wrongParams := mk(&surface.Data{ParamsHash: [32]byte{0xde, 0xad}})
	if _, err := New(lab, Config{Surface: wrongParams, AccessLog: io.Discard}); err == nil ||
		!strings.Contains(err.Error(), "params hash mismatch") {
		t.Fatalf("New accepted a surface with a foreign params hash: %v", err)
	}

	wrongCount := mk(&surface.Data{
		ParamsHash: want,
		Points:     make([]surface.PointRecord, 3),
	})
	if _, err := New(lab, Config{Surface: wrongCount, AccessLog: io.Discard}); err == nil ||
		!strings.Contains(err.Error(), "points") {
		t.Fatalf("New accepted a surface with the wrong point count: %v", err)
	}
}
