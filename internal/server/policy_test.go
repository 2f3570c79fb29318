package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/core"
)

// TestPolicyRequestCanonicalization pins the request-schema contract: the
// policy field is validated, case/space-insensitive, and an explicit
// spelling of the lab default collapses to "" — so a pre-policy request
// body, an empty policy, and "lru" all share one content-addressed key.
// The loads field is canonicalized the same way.
func TestPolicyRequestCanonicalization(t *testing.T) {
	p := core.DefaultParams()

	decode := func(body string) (DesignRequest, error) {
		return DecodeDesignRequest(strings.NewReader(body), p)
	}
	base, err := decode(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, spelled := range []string{"lru", "LRU", " lru "} {
		req, err := decode(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"policy":"` + spelled + `"}`)
		if err != nil {
			t.Fatalf("policy %q: %v", spelled, err)
		}
		if req.Policy != "" {
			t.Errorf("policy %q normalized to %q, want \"\"", spelled, req.Policy)
		}
		if RequestKey("simulate", req) != RequestKey("simulate", base) {
			t.Errorf("policy %q did not share the pre-policy cache key", spelled)
		}
	}
	// The loads field canonicalizes too: any case of a scheme name shares
	// the key of its canonical spelling, and "STATIC" that of the request
	// with loads omitted.
	for _, loads := range []struct{ spelled, canon, same string }{
		{"STATIC", "static", `{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}`},
		{"Dynamic", "dynamic", `{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"loads":"dynamic"}`},
	} {
		want, err := decode(loads.same)
		if err != nil {
			t.Fatal(err)
		}
		req, err := decode(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"loads":"` + loads.spelled + `"}`)
		if err != nil {
			t.Fatalf("loads %q: %v", loads.spelled, err)
		}
		if req.Loads != loads.canon || RequestKey("simulate", req) != RequestKey("simulate", want) {
			t.Errorf("loads %q normalized to %q, not to the key of %s", loads.spelled, req.Loads, loads.same)
		}
		br, err := DecodeBestRequest(strings.NewReader(`{"loads":"`+loads.spelled+`"}`), p)
		if err != nil {
			t.Fatalf("best loads %q: %v", loads.spelled, err)
		}
		if br.Loads != loads.canon {
			t.Errorf("best loads %q normalized to %q, want %q", loads.spelled, br.Loads, loads.canon)
		}
	}

	req, err := decode(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"policy":"tree-plru"}`)
	if err != nil {
		t.Fatal(err)
	}
	if req.Policy != "plru" {
		t.Errorf("tree-plru normalized to %q, want plru", req.Policy)
	}
	if RequestKey("simulate", req) == RequestKey("simulate", base) {
		t.Error("plru request shares the default cache key")
	}
	if _, err := decode(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"policy":"random"}`); err == nil {
		t.Error("unknown policy accepted")
	}

	if _, err := DecodeBestRequest(strings.NewReader(`{"policy":"mru"}`), p); err == nil {
		t.Error("best: unknown policy accepted")
	}
	br, err := DecodeBestRequest(strings.NewReader(`{"policy":"fifo"}`), p)
	if err != nil {
		t.Fatal(err)
	}
	if br.Policy != "fifo" {
		t.Errorf("best policy = %q, want fifo", br.Policy)
	}
	sr, err := DecodeSweepRangeRequest(strings.NewReader(`{"lo":0,"hi":4,"policy":"Lru"}`), p)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Policy != "" {
		t.Errorf("sweep-range policy = %q, want \"\"", sr.Policy)
	}

	// requestQuery resolves "" to the lab default, whatever it is.
	fifoLab := p
	fifoLab.Policy = cache.PolicyFIFO
	if got := requestQuery(fifoLab.L2TimeNs, "", fifoLab).Policy; got != fifoLab.Policy {
		t.Errorf("empty policy resolved to %v, want the lab default %v", got, fifoLab.Policy)
	}
}

// TestPolicyEndpointServing drives the policy axis end to end through the
// live server: non-default policies compute and serve, an explicit "lru"
// is byte-identical (same key, same body, same ETag) to the pre-policy
// request, and on the direct-mapped default space every policy's point
// carries the same numbers.
func TestPolicyEndpointServing(t *testing.T) {
	lab := testLab(t, 20_000)
	_, ts := testServer(t, lab, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	lruResp, lruBody := postJSON(t, ts.URL+"/v1/simulate",
		`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"policy":"lru"}`)
	if !bytes.Equal(body, lruBody) {
		t.Fatalf("explicit lru body differs from the pre-policy body:\n%s\n%s", body, lruBody)
	}
	if e1, e2 := resp.Header.Get("ETag"), lruResp.Header.Get("ETag"); e1 != e2 {
		t.Fatalf("explicit lru ETag %q differs from %q", e2, e1)
	}
	if xc := lruResp.Header.Get("X-Cache"); xc != string(OutcomeHit) {
		t.Fatalf("explicit lru X-Cache = %q, want hit (shared key)", xc)
	}

	var base SimulateResponse
	if err := json.Unmarshal(body, &base); err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"fifo", "plru"} {
		presp, pbody := postJSON(t, ts.URL+"/v1/simulate",
			`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"policy":"`+pol+`"}`)
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", pol, presp.StatusCode, pbody)
		}
		var pr SimulateResponse
		if err := json.Unmarshal(pbody, &pr); err != nil {
			t.Fatal(err)
		}
		if pr.Request.Policy != pol {
			t.Errorf("%s: response request policy = %q", pol, pr.Request.Policy)
		}
		// The default space is direct-mapped, where replacement policy is
		// a no-op: same point, same breakdown, different request echo.
		if pr.Point != base.Point || pr.Breakdown != base.Breakdown {
			t.Errorf("%s point differs from LRU on the direct-mapped space", pol)
		}
	}

	bresp, bbody := postJSON(t, ts.URL+"/v1/best", `{"loads":"static","policy":"plru"}`)
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("best with policy: status %d: %s", bresp.StatusCode, bbody)
	}
	var br BestResponse
	if err := json.Unmarshal(bbody, &br); err != nil {
		t.Fatal(err)
	}
	if br.Request.Policy != "plru" || br.Evaluated == 0 {
		t.Errorf("best response = %+v", br.Request)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"policy":"nru"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown policy: status %d: %s", resp.StatusCode, body)
	}
}

// TestSurfacePolicyFallback: the baked surface answers only its own
// (default) policy. An explicit "lru" canonicalizes onto the baked space
// and stays a pure lookup; a non-default policy bypasses the surface and
// computes live, then serves the repeat from the overlay.
func TestSurfacePolicyFallback(t *testing.T) {
	sf := bakedSurface(t)
	lab := testLab(t, 20_000)
	srv, ts := testServer(t, lab, Config{Surface: sf})

	resp, body := postJSON(t, ts.URL+"/v1/simulate",
		`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"policy":"lru"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "surface" {
		t.Fatalf("explicit lru X-Cache = %q, want surface", xc)
	}
	if c := srv.Registry().Snapshot().Counters; c["lab.passes_run"] != 0 {
		t.Fatalf("explicit lru ran %d passes on a surface-backed server", c["lab.passes_run"])
	}

	fifo := `{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"policy":"fifo"}`
	resp1, body1 := postJSON(t, ts.URL+"/v1/simulate", fifo)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp1.StatusCode, body1)
	}
	if xc := resp1.Header.Get("X-Cache"); xc != string(OutcomeMiss) {
		t.Fatalf("fifo on a baked server X-Cache = %q, want miss (live compute)", xc)
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", fifo)
	if xc := resp2.Header.Get("X-Cache"); xc != "overlay" {
		t.Fatalf("repeat fifo X-Cache = %q, want overlay", xc)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("fifo bodies drifted between live and overlay tiers")
	}
}
