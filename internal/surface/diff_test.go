// The surface-vs-live differential tier: bake the default passes, stand
// up one server seeded from the artifact and one computing live with
// identical parameters, replay the endpoint cross-product through both,
// and require byte-identical bodies and matching ETags — with the seeded
// server running zero simulation passes, and staying correct under the
// chaos schedules that fault every simulation seam.
package surface_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pipecache/internal/core"
	"pipecache/internal/fault"
	"pipecache/internal/gen"
	"pipecache/internal/obs"
	"pipecache/internal/server"
	"pipecache/internal/surface"
)

// diffSuite builds the two-benchmark suite every lab in this tier shares;
// programs are immutable after build, so sharing is safe.
func diffSuite(t testing.TB) *core.Suite {
	t.Helper()
	var specs []gen.Spec
	for _, name := range []string{"gcc", "yacc"} {
		s, ok := gen.LookupSpec(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		specs = append(specs, s)
	}
	suite, err := core.BuildSuite(specs)
	if err != nil {
		t.Fatal(err)
	}
	return suite
}

// diffLab wraps the shared suite in a fresh lab (own pass memo, own
// registry) at the given sweep-pool width.
func diffLab(t testing.TB, suite *core.Suite, workers int) *core.Lab {
	t.Helper()
	p := core.DefaultParams()
	p.Insts = 20_000
	p.SweepWorkers = workers
	lab, err := core.NewLab(suite, p)
	if err != nil {
		t.Fatal(err)
	}
	lab.SetObs(obs.NewRegistry())
	return lab
}

func diffServer(t testing.TB, lab *core.Lab, cfg server.Config) *httptest.Server {
	t.Helper()
	cfg.AccessLog = io.Discard
	srv, err := server.New(lab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// apiRequest is one entry of the endpoint cross-product.
type apiRequest struct {
	method, path, body string
}

func (q apiRequest) String() string { return q.method + " " + q.path + " " + q.body }

// crossProduct enumerates the default-policy API surface: /v1/simulate
// at every point of the canonical design-space enumeration and at an
// l2_time_ns the bake never saw, all four optimizations, the figures (a
// figure-11 penalty outside Params.Penalties and a penalty-carrying
// spelling of a penalty-insensitive figure among them), and all six
// tables.
func crossProduct() []apiRequest {
	var rs []apiRequest
	for _, dp := range core.DesignSpace(core.DefaultParams()) {
		rs = append(rs, apiRequest{http.MethodPost, "/v1/simulate", fmt.Sprintf(
			`{"b":%d,"l":%d,"isize_kw":%d,"dsize_kw":%d,"loads":%q}`, dp.B, dp.L, dp.ISizeKW, dp.DSizeKW, dp.Scheme)})
	}
	rs = append(rs, apiRequest{http.MethodPost, "/v1/simulate",
		`{"b":2,"l":1,"isize_kw":8,"dsize_kw":16,"l2_time_ns":37.5}`})
	for _, loads := range []string{"static", "dynamic"} {
		for _, sym := range []string{"false", "true"} {
			rs = append(rs, apiRequest{http.MethodPost, "/v1/best", fmt.Sprintf(
				`{"loads":%q,"symmetric":%s}`, loads, sym)})
		}
	}
	for _, fig := range []string{
		"/v1/figures/11?penalty=6", "/v1/figures/11?penalty=10", "/v1/figures/11?penalty=18",
		"/v1/figures/11?penalty=23",
		"/v1/figures/12", "/v1/figures/13",
		"/v1/figures/12?penalty=6",
	} {
		rs = append(rs, apiRequest{http.MethodGet, fig, ""})
	}
	for n := 1; n <= 6; n++ {
		rs = append(rs, apiRequest{http.MethodGet, fmt.Sprintf("/v1/tables/%d", n), ""})
	}
	return rs
}

// do issues one cross-product request and returns the response with its
// fully-read body.
func do(t *testing.T, base string, q apiRequest) (*http.Response, []byte) {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	if q.method == http.MethodPost {
		resp, err = http.Post(base+q.path, "application/json", strings.NewReader(q.body))
	} else {
		resp, err = http.Get(base + q.path)
	}
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: reading body: %v", q, err)
	}
	return resp, body
}

// TestSurfaceDifferential is the tier's headline test: determinism of the
// bake across pool widths, then byte-identity of a surface-seeded server
// against live computation over the endpoint cross-product, then fault
// immunity of the seeded server under a chaos schedule on every
// simulation seam.
func TestSurfaceDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential tier bakes the full design space; skipped in -short")
	}
	suite := diffSuite(t)

	bake := func(workers int) []byte {
		lab := diffLab(t, suite, workers)
		d, err := surface.Bake(context.Background(), lab)
		if err != nil {
			t.Fatalf("bake at %d workers: %v", workers, err)
		}
		b, err := surface.Encode(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	serial := bake(1)
	pooled := bake(3)

	t.Run("deterministic_across_sweep_workers", func(t *testing.T) {
		if !bytes.Equal(serial, pooled) {
			t.Fatalf("bake is not deterministic: %d bytes at workers=1, %d at workers=3",
				len(serial), len(pooled))
		}
	})

	sf, err := surface.Decode(pooled)
	if err != nil {
		t.Fatal(err)
	}

	bakedLab := diffLab(t, suite, 2)
	liveLab := diffLab(t, suite, 2)
	bakedTS := diffServer(t, bakedLab, server.Config{Surface: sf})
	liveTS := diffServer(t, liveLab, server.Config{})

	reqs := crossProduct()
	bakedBodies := make(map[string][]byte, len(reqs))

	t.Run("cross_product_byte_identity", func(t *testing.T) {
		for _, q := range reqs {
			bresp, bbody := do(t, bakedTS.URL, q)
			lresp, lbody := do(t, liveTS.URL, q)
			if bresp.StatusCode != http.StatusOK || lresp.StatusCode != http.StatusOK {
				t.Fatalf("%s: baked %d, live %d: %s %s", q, bresp.StatusCode, lresp.StatusCode, bbody, lbody)
			}
			if !bytes.Equal(bbody, lbody) {
				t.Fatalf("%s: bodies differ\nbaked: %s\nlive:  %s", q, bbody, lbody)
			}
			be, le := bresp.Header.Get("ETag"), lresp.Header.Get("ETag")
			if be == "" || be != le {
				t.Fatalf("%s: ETags differ or missing: baked %q, live %q", q, be, le)
			}
			if xs := bresp.Header.Get("X-Surface"); xs != sf.Hash() {
				t.Fatalf("%s: X-Surface = %q, want %q", q, xs, sf.Hash())
			}
			bakedBodies[q.String()] = bbody
		}

		// The seeded server must have answered the whole cross-product
		// with zero simulation: no pass, data job, capture, or Table 1
		// probe. Pass requests are memo hits on the seeded entries.
		c := bakedLab.Obs().Snapshot().Counters
		for _, name := range []string{"lab.passes_run", "lab.data_passes", "lab.captures", "lab.table1_probes"} {
			if c[name] != 0 {
				t.Errorf("seeded server simulated: %s = %d", name, c[name])
			}
		}
	})

	t.Run("live_workers_1_agrees", func(t *testing.T) {
		// A second live server at a different pool width: the sweep-pool
		// fan-out must not leak into results at any width.
		serialLab := diffLab(t, suite, 1)
		serialTS := diffServer(t, serialLab, server.Config{})
		sample := []apiRequest{
			{http.MethodPost, "/v1/simulate", `{"b":2,"l":3,"isize_kw":8,"dsize_kw":32,"loads":"dynamic"}`},
			{http.MethodPost, "/v1/best", `{"loads":"static","symmetric":false}`},
			{http.MethodGet, "/v1/figures/12", ""},
			{http.MethodGet, "/v1/tables/3", ""},
		}
		for _, q := range sample {
			want, ok := bakedBodies[q.String()]
			if !ok {
				t.Fatalf("%s not in the cross-product", q)
			}
			resp, body := do(t, serialTS.URL, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", q, resp.StatusCode, body)
			}
			if !bytes.Equal(body, want) {
				t.Fatalf("%s: workers=1 live body differs from baked\nlive:  %s\nbaked: %s", q, body, want)
			}
		}
	})

	t.Run("baked_path_immune_to_chaos", func(t *testing.T) {
		// Fault every simulation seam: pass and data-job runs, trace
		// capture, and the trace store and reader. The seeded passes
		// cover every request, so no request reaches any of them, and
		// every response must stay 200 and byte-identical to the
		// fault-free run. The pool, result-cache and sweep-item seams
		// are left out: seeded requests cross them like any live request,
		// and internal/chaos/server_chaos_test.go faults them.
		p, err := fault.ParsePlan("seed=11,rate=768/1024,kinds=error+cancel+panic,points=lab.pass.run+lab.data.run+lab.trace.capture+trace.")
		if err != nil {
			t.Fatal(err)
		}
		fault.Enable(p)
		defer fault.Disable()
		for round := 0; round < 3; round++ {
			for _, q := range reqs {
				resp, body := do(t, bakedTS.URL, q)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("round %d %s: status %d under chaos: %s", round, q, resp.StatusCode, body)
				}
				if !bytes.Equal(body, bakedBodies[q.String()]) {
					t.Fatalf("round %d %s: body changed under chaos", round, q)
				}
			}
		}
	})
}
