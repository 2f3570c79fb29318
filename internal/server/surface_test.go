package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"pipecache/internal/surface"
)

// bakedSurface bakes (once per test binary) a surface matching the testLab
// parameters, on a throwaway lab so the serving lab under test starts with
// zero passes. bakedData keeps what was baked, for tests that build
// altered surfaces from it.
var (
	bakedOnce sync.Once
	bakedData *surface.Data
	bakedSurf *surface.Surface
	bakedErr  error
)

func bakedSurface(t testing.TB) *surface.Surface {
	t.Helper()
	bakedOnce.Do(func() {
		lab := testLab(t, 20_000)
		bakedData, bakedErr = surface.Bake(context.Background(), lab)
		if bakedErr != nil {
			return
		}
		b, err := surface.Encode(bakedData)
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

// TestSurfaceServing: a surface-seeded server answers default-policy
// requests through the live handlers with zero simulation on the serving
// lab, sets the identity headers, and reports the surface in /healthz.
func TestSurfaceServing(t *testing.T) {
	sf := bakedSurface(t)
	lab := testLab(t, 20_000)
	srv, ts := testServer(t, lab, Config{Surface: sf})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != string(OutcomeMiss) {
		t.Fatalf("X-Cache = %q, want miss (computed on the seeded passes)", xc)
	}
	if xs := resp.Header.Get("X-Surface"); xs != sf.Hash() {
		t.Fatalf("X-Surface = %q, want %q", xs, sf.Hash())
	}
	if et := resp.Header.Get("ETag"); !strings.HasPrefix(et, `"`) || !strings.HasSuffix(et, `"`) {
		t.Fatalf("ETag %q is not a quoted strong tag", et)
	}
	c := srv.Registry().Snapshot().Counters
	if c["lab.passes_run"] != 0 || c["lab.captures"] != 0 {
		t.Fatalf("surface-seeded request ran simulation: passes_run=%d captures=%d",
			c["lab.passes_run"], c["lab.captures"])
	}

	_, hbody := get(t, ts.URL+"/healthz")
	var h HealthResponse
	if err := json.Unmarshal(hbody, &h); err != nil {
		t.Fatal(err)
	}
	if h.Surface == nil || h.Surface.Hash != sf.Hash() || h.Surface.Passes != sf.NumPasses() || h.PassesRun != 0 {
		t.Fatalf("healthz = %+v with surface block %+v, want hash %s with %d passes and none run",
			h, h.Surface, sf.Hash(), sf.NumPasses())
	}
}

// TestSurfaceFallbackServesFromResultCache: on a surface-seeded server a
// request at an l2_time_ns the bake never saw is computed once, with no
// simulation, and the second identical request is a result-cache hit with
// the same body and ETag — then revalidates to 304.
func TestSurfaceFallbackServesFromResultCache(t *testing.T) {
	sf := bakedSurface(t)
	lab := testLab(t, 20_000)
	srv, ts := testServer(t, lab, Config{Surface: sf})

	// l2_time_ns 50 is not the lab default the bake ran at.
	unbaked := `{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"l2_time_ns":50}`
	resp1, body1 := postJSON(t, ts.URL+"/v1/simulate", unbaked)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if xc := resp1.Header.Get("X-Cache"); xc != string(OutcomeMiss) {
		t.Fatalf("first request X-Cache = %q, want miss", xc)
	}

	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", unbaked)
	if xc := resp2.Header.Get("X-Cache"); xc != string(OutcomeHit) {
		t.Fatalf("second request X-Cache = %q, want hit", xc)
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
	if c["lab.passes_run"] != 0 {
		t.Fatalf("a fresh l2_time_ns ran %d passes on a seeded lab", c["lab.passes_run"])
	}
}

// TestNewRejectsMismatchedSurface: New must refuse a surface whose params
// hash or pass shapes disagree with the lab, instead of silently serving
// another experiment's numbers.
func TestNewRejectsMismatchedSurface(t *testing.T) {
	bakedSurface(t)
	lab := testLab(t, 20_000)

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

	wrongParams := *bakedData
	wrongParams.ParamsHash = [32]byte{0xde, 0xad}
	if _, err := New(lab, Config{Surface: mk(&wrongParams), AccessLog: io.Discard}); err == nil ||
		!strings.Contains(err.Error(), "params hash mismatch") {
		t.Fatalf("New accepted a surface with a foreign params hash: %v", err)
	}

	// The right fingerprint over a pass whose I-cache ladder is short.
	wrongShape := *bakedData
	wrongShape.Passes = slices.Clone(bakedData.Passes)
	short := *wrongShape.Passes[0]
	short.Benches = slices.Clone(short.Benches)
	short.Benches[0].IMisses = short.Benches[0].IMisses[:1]
	wrongShape.Passes[0] = &short
	if _, err := New(lab, Config{Surface: mk(&wrongShape), AccessLog: io.Discard}); err == nil ||
		!strings.Contains(err.Error(), "size bank") {
		t.Fatalf("New accepted a surface with a short miss ladder: %v", err)
	}
}
