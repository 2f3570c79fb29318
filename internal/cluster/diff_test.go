// The coordinator-vs-single-node differential tier: stand up one reference
// server computing the design space alone and a coordinator fronting three
// backend replicas of the same lab, replay the endpoint cross-product
// through both, and require byte-identical bodies and equal ETags — then
// keep requiring it under a chaos schedule on the coordinator's shard
// seams, and after a backend is killed and its requests fail over to the
// survivors.
package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"pipecache/internal/cluster"
	"pipecache/internal/core"
	"pipecache/internal/fault"
	"pipecache/internal/gen"
	"pipecache/internal/obs"
	"pipecache/internal/server"
)

// clusterSuite builds the two-benchmark suite every lab in this tier
// shares; programs are immutable after build, so sharing is safe.
func clusterSuite(t testing.TB) *core.Suite {
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

func clusterParams() core.Params {
	p := core.DefaultParams()
	p.Insts = 20_000
	p.SweepWorkers = 2
	return p
}

// backend stands up one live server over a fresh lab on the shared suite.
func backend(t testing.TB, suite *core.Suite) *httptest.Server {
	t.Helper()
	lab, err := core.NewLab(suite, clusterParams())
	if err != nil {
		t.Fatal(err)
	}
	lab.SetObs(obs.NewRegistry())
	srv, err := server.New(lab, server.Config{AccessLog: io.Discard})
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

// crossProduct enumerates the API surface both tiers serve: a simulate
// grid, the four optimizations, figures, tables, the policy axis, and a
// block of live computations off the default miss service and policy.
func crossProduct() []apiRequest {
	var rs []apiRequest
	for _, b := range []int{0, 2, 3} {
		for _, l := range []int{0, 3} {
			for _, is := range []int{1, 32} {
				for _, ds := range []int{4, 32} {
					for _, loads := range []string{"static", "dynamic"} {
						rs = append(rs, apiRequest{http.MethodPost, "/v1/simulate", fmt.Sprintf(
							`{"b":%d,"l":%d,"isize_kw":%d,"dsize_kw":%d,"loads":%q}`, b, l, is, ds, loads)})
					}
				}
			}
		}
	}
	for _, loads := range []string{"static", "dynamic"} {
		for _, sym := range []string{"false", "true"} {
			rs = append(rs, apiRequest{http.MethodPost, "/v1/best", fmt.Sprintf(
				`{"loads":%q,"symmetric":%s}`, loads, sym)})
		}
	}
	for _, fig := range []string{"/v1/figures/11?penalty=6", "/v1/figures/12", "/v1/figures/13"} {
		rs = append(rs, apiRequest{http.MethodGet, fig, ""})
	}
	for n := 1; n <= 6; n++ {
		rs = append(rs, apiRequest{http.MethodGet, fmt.Sprintf("/v1/tables/%d", n), ""})
	}
	// The replacement-policy axis: one FIFO and one Tree-PLRU request per
	// shape, plus an explicit "lru" that must canonicalize onto the
	// pre-policy key and bytes (the policy-seam extension of this suite).
	rs = append(rs,
		apiRequest{http.MethodPost, "/v1/simulate", `{"b":2,"l":3,"isize_kw":4,"dsize_kw":4,"policy":"fifo"}`},
		apiRequest{http.MethodPost, "/v1/simulate", `{"b":2,"l":3,"isize_kw":4,"dsize_kw":4,"policy":"plru"}`},
		apiRequest{http.MethodPost, "/v1/simulate", `{"b":2,"l":3,"isize_kw":4,"dsize_kw":4,"policy":"lru"}`},
		apiRequest{http.MethodPost, "/v1/best", `{"loads":"static","policy":"fifo"}`},
	)
	// The live-compute block the survivors replay after a shard dies:
	// whole-space optimizations and single points off the default miss
	// service and policy.
	rs = append(rs,
		apiRequest{http.MethodPost, "/v1/best", `{"loads":"dynamic","symmetric":true,"policy":"plru"}`},
		apiRequest{http.MethodPost, "/v1/best", `{"loads":"static","l2_time_ns":60}`},
		apiRequest{http.MethodPost, "/v1/simulate", `{"b":0,"l":0,"isize_kw":1,"dsize_kw":1,"l2_time_ns":60}`},
		apiRequest{http.MethodPost, "/v1/simulate", `{"b":3,"l":1,"isize_kw":32,"dsize_kw":2,"loads":"dynamic","policy":"plru"}`},
	)
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

// TestCoordinatorDifferential is the tier's headline test: byte-identity of
// the coordinator's proxied answers against a single-node server over the
// endpoint cross-product, revalidation parity, survival of a chaos schedule
// on the shard seams, and failover after a backend dies.
func TestCoordinatorDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("coordinator differential runs full design-space sweeps; skipped in -short")
	}
	suite := clusterSuite(t)
	ref := backend(t, suite)
	backends := []*httptest.Server{backend(t, suite), backend(t, suite), backend(t, suite)}

	coord, err := cluster.New(cluster.Config{
		Shards:        []string{backends[0].URL, backends[1].URL, backends[2].URL},
		Params:        clusterParams(),
		ProbeTimeout:  500 * time.Millisecond,
		FailAfter:     1,
		AccessLog:     io.Discard,
		ShutdownGrace: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cts := httptest.NewServer(coord.Handler())
	defer cts.Close()

	reqs := crossProduct()
	refBodies := make(map[string][]byte, len(reqs))

	t.Run("cross_product_byte_identity", func(t *testing.T) {
		for _, q := range reqs {
			rresp, rbody := do(t, ref.URL, q)
			cresp, cbody := do(t, cts.URL, q)
			if rresp.StatusCode != http.StatusOK || cresp.StatusCode != http.StatusOK {
				t.Fatalf("%s: single-node %d, coordinator %d: %s %s",
					q, rresp.StatusCode, cresp.StatusCode, rbody, cbody)
			}
			if !bytes.Equal(rbody, cbody) {
				t.Fatalf("%s: bodies differ\nsingle: %s\ncoord:  %s", q, rbody, cbody)
			}
			re, ce := rresp.Header.Get("ETag"), cresp.Header.Get("ETag")
			if re == "" || re != ce {
				t.Fatalf("%s: ETags differ or missing: single %q, coordinator %q", q, re, ce)
			}
			refBodies[q.String()] = rbody
		}
	})

	t.Run("invalid_requests_match", func(t *testing.T) {
		// A bad request gets the single node's status and message from
		// the coordinator too, including one wrong on two counts.
		for _, q := range []apiRequest{
			{http.MethodGet, "/v1/figures/99?penalty=abc", ""},
			{http.MethodGet, "/v1/figures/12?penalty=0", ""},
			{http.MethodGet, "/v1/figures/7", ""},
			{http.MethodGet, "/v1/tables/9", ""},
			{http.MethodGet, "/v1/tables/x", ""},
			{http.MethodPost, "/v1/best", `{"loads":"sometimes"}`},
		} {
			rresp, rbody := do(t, ref.URL, q)
			cresp, cbody := do(t, cts.URL, q)
			if rresp.StatusCode == http.StatusOK || rresp.StatusCode != cresp.StatusCode || !bytes.Equal(rbody, cbody) {
				t.Errorf("%s: single-node %d %q, coordinator %d %q",
					q, rresp.StatusCode, rbody, cresp.StatusCode, cbody)
			}
		}
	})

	t.Run("if_none_match_revalidates", func(t *testing.T) {
		q := apiRequest{http.MethodPost, "/v1/best", `{"loads":"static"}`}
		first, body := do(t, cts.URL, q)
		if first.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", first.StatusCode, body)
		}
		req, err := http.NewRequest(q.method, cts.URL+q.path, strings.NewReader(q.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("If-None-Match", first.Header.Get("ETag"))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("revalidation status = %d, want 304", resp.StatusCode)
		}
	})

	t.Run("chaos_on_shard_seams", func(t *testing.T) {
		// Fault every coordinator-to-shard seam — proxied requests and
		// probes — with a finite budget so the run converges. While the
		// budget lasts the coordinator may shed load (429/5xx), but a 200
		// must never carry bytes that differ from the single-node answer;
		// once the budget is spent, every request must succeed and match
		// again. Distinct l2_time_ns values miss the shards' result caches
		// so live computation runs under fire.
		plan, err := fault.ParsePlan("seed=29,rate=192/1024,kinds=error+cancel+delay,maxfires=120,points=cluster.")
		if err != nil {
			t.Fatal(err)
		}
		fault.Enable(plan)
		defer fault.Disable()

		chaosReqs := append([]apiRequest{}, reqs[:24]...)
		for round := 0; round < 2; round++ {
			for _, q := range append(chaosReqs,
				apiRequest{http.MethodPost, "/v1/best", fmt.Sprintf(`{"loads":"static","l2_time_ns":%d}`, 30+round)},
				apiRequest{http.MethodPost, "/v1/simulate", fmt.Sprintf(`{"b":1,"l":2,"isize_kw":8,"dsize_kw":16,"l2_time_ns":%d}`, 30+round)},
			) {
				resp, body := do(t, cts.URL, q)
				switch resp.StatusCode {
				case http.StatusOK:
					want, pinned := refBodies[q.String()]
					if !pinned {
						rresp, rbody := do(t, ref.URL, q)
						if rresp.StatusCode != http.StatusOK {
							t.Fatalf("%s: reference status %d", q, rresp.StatusCode)
						}
						want = rbody
						refBodies[q.String()] = rbody
					}
					if !bytes.Equal(body, want) {
						t.Fatalf("round %d %s: 200 under chaos with wrong bytes\ncoord:  %s\nsingle: %s",
							round, q, body, want)
					}
				case http.StatusTooManyRequests, http.StatusBadGateway,
					http.StatusServiceUnavailable, http.StatusGatewayTimeout:
					// Honest load-shedding; never a wrong answer.
				default:
					t.Fatalf("round %d %s: unexpected status %d under chaos: %s", round, q, resp.StatusCode, body)
				}
			}
		}
		fault.Disable()

		// Converged: re-include whatever the chaos drained, then the whole
		// cross-product must answer 200 with reference bytes again.
		coord.ProbeAll(context.Background())
		for _, s := range coord.Shards() {
			if !s.Healthy() {
				t.Fatalf("shard %s still draining after probes with faults off", s.Name)
			}
		}
		for _, q := range reqs {
			resp, body := do(t, cts.URL, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d after chaos budget exhausted: %s", q, resp.StatusCode, body)
			}
			if !bytes.Equal(body, refBodies[q.String()]) {
				t.Fatalf("%s: body changed after chaos", q)
			}
		}
	})

	t.Run("shard_killed_fails_over", func(t *testing.T) {
		// Kill one backend for real, then ask for an answer no shard has
		// cached, at a fresh l2_time_ns whose route starts at the dead
		// backend: the coordinator's first try fails at the transport
		// level, drains that shard, fails over to the next shard in ring
		// order, and still produces the single-node bytes.
		backends[2].CloseClientConnections()
		backends[2].Close()
		urls := []string{backends[0].URL, backends[1].URL, backends[2].URL}
		ring := cluster.NewRing(urls)
		var q apiRequest
		for l2 := 28; ; l2++ {
			if l2 > 1000 {
				t.Fatal("no l2_time_ns routes to the killed backend first")
			}
			body := fmt.Sprintf(`{"loads":"dynamic","l2_time_ns":%d}`, l2)
			req, err := server.DecodeBestRequest(strings.NewReader(body), clusterParams())
			if err != nil {
				t.Fatal(err)
			}
			if ring.Sequence(server.RequestKey("best", req))[0] == 2 {
				q = apiRequest{http.MethodPost, "/v1/best", body}
				break
			}
		}
		rresp, rbody := do(t, ref.URL, q)
		if rresp.StatusCode != http.StatusOK {
			t.Fatalf("reference status %d: %s", rresp.StatusCode, rbody)
		}
		cresp, cbody := do(t, cts.URL, q)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("coordinator status %d after shard death: %s", cresp.StatusCode, cbody)
		}
		if !bytes.Equal(rbody, cbody) {
			t.Fatalf("body differs from single node after failover\nsingle: %s\ncoord:  %s", rbody, cbody)
		}
		if re, ce := rresp.Header.Get("ETag"), cresp.Header.Get("ETag"); re != ce {
			t.Fatalf("ETags differ after failover: single %q, coordinator %q", re, ce)
		}
		if coord.Shards()[2].Healthy() {
			t.Error("killed shard still marked healthy")
		}
		snap := coord.Registry().Snapshot().Counters
		if snap["cluster.shard.errors"] < 1 {
			t.Errorf("cluster.shard.errors = %d, want >= 1 after a shard loss", snap["cluster.shard.errors"])
		}

		// The fleet keeps serving from the two survivors, still
		// byte-identical.
		for _, q := range reqs[len(reqs)-4:] { // the live-compute block
			resp, body := do(t, cts.URL, q)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d on the surviving fleet: %s", q, resp.StatusCode, body)
			}
			if !bytes.Equal(body, refBodies[q.String()]) {
				t.Fatalf("%s: survivors' answer differs from single node", q)
			}
		}
	})
}
