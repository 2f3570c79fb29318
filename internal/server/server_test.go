package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pipecache/internal/core"
	"pipecache/internal/gen"
	"pipecache/internal/obs"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden files under testdata/golden")

// testLab builds a small two-benchmark lab with a fresh registry; each test
// that asserts counter values gets its own.
func testLab(t testing.TB, insts int64) *core.Lab {
	return budgetLab(t, insts, 0) // default event-trace budget
}

// budgetLab is testLab with an explicit event-trace store budget.
func budgetLab(t testing.TB, insts, budget int64) *core.Lab {
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
	p := core.DefaultParams()
	p.Insts = insts
	p.TraceBudgetBytes = budget
	lab, err := core.NewLab(suite, p)
	if err != nil {
		t.Fatal(err)
	}
	lab.SetObs(obs.NewRegistry())
	return lab
}

// testServer wraps the lab in a Server plus an httptest listener.
func testServer(t testing.TB, lab *core.Lab, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.AccessLog = io.Discard
	srv, err := New(lab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp, b
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

const simBody = `{"b":2,"l":2,"isize_kw":8,"dsize_kw":8}`

// TestEndpoints exercises the cheap read-mostly API surface against one
// shared fast server.
func TestEndpoints(t *testing.T) {
	lab := testLab(t, 20_000)
	srv, ts := testServer(t, lab, Config{})

	t.Run("healthz", func(t *testing.T) {
		resp, body := get(t, ts.URL+"/healthz")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var h HealthResponse
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatal(err)
		}
		if h.Status != "ok" || h.Build.GoVersion == "" || len(h.Benchmarks) != 2 {
			t.Fatalf("unexpected health response: %+v", h)
		}
	})

	t.Run("simulate", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", simBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != string(OutcomeMiss) {
			t.Fatalf("first request X-Cache = %q, want miss", got)
		}
		var sr SimulateResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Point.CPI <= 1 || sr.Point.TPINs <= 0 {
			t.Fatalf("degenerate point: %+v", sr.Point)
		}
		if got := sr.Point.TPINs; math.Abs(got-sr.Point.CPI*sr.Point.TCPUNs) > 1e-9 {
			t.Fatalf("TPI %.6f != CPI*tCPU %.6f", got, sr.Point.CPI*sr.Point.TCPUNs)
		}
		bd := sr.Breakdown
		sum := bd.Base + bd.BranchStall + bd.LoadStall + bd.IMiss + bd.DMiss
		if math.Abs(sum-sr.Point.CPI) > 1e-9 {
			t.Fatalf("breakdown sums to %.6f, CPI is %.6f", sum, sr.Point.CPI)
		}

		// The identical request again must be a cache hit with an
		// identical body.
		resp2, body2 := postJSON(t, ts.URL+"/v1/simulate", simBody)
		if got := resp2.Header.Get("X-Cache"); got != string(OutcomeHit) {
			t.Fatalf("second request X-Cache = %q, want hit", got)
		}
		if !bytes.Equal(body, body2) {
			t.Fatalf("cache returned a different body")
		}
		if hits := srv.Registry().Counter("server.cache.hits").Value(); hits != 1 {
			t.Fatalf("cache hits = %d, want 1", hits)
		}
	})

	t.Run("simulate normalization shares the cache entry", func(t *testing.T) {
		// Spelling the defaults out must hit the entry the short form
		// populated.
		long := fmt.Sprintf(`{"b":2,"l":2,"isize_kw":8,"dsize_kw":8,"loads":"static","l2_time_ns":%g}`, lab.P.L2TimeNs)
		resp, _ := postJSON(t, ts.URL+"/v1/simulate", long)
		if got := resp.Header.Get("X-Cache"); got != string(OutcomeHit) {
			t.Fatalf("normalized request X-Cache = %q, want hit", got)
		}
	})

	t.Run("best", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/best", `{"symmetric":true}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var br BestResponse
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if br.Evaluated != 4*len(lab.P.SizesKW) {
			t.Fatalf("evaluated %d points, want %d", br.Evaluated, 4*len(lab.P.SizesKW))
		}
		if br.Best.TPINs <= 0 {
			t.Fatalf("degenerate optimum: %+v", br.Best)
		}
	})

	t.Run("tables", func(t *testing.T) {
		resp, body := get(t, ts.URL+"/v1/tables/3")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var tr TableResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		if tr.Table != 3 || tr.Text == "" {
			t.Fatalf("unexpected table response: %+v", tr)
		}
	})

	t.Run("figure11", func(t *testing.T) {
		resp, body := get(t, ts.URL+"/v1/figures/11?penalty=6")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var f FigureJSON
		if err := json.Unmarshal(body, &f); err != nil {
			t.Fatal(err)
		}
		if len(f.Labels) != len(f.Y) || len(f.X) == 0 {
			t.Fatalf("malformed figure: %+v", f)
		}
	})

	t.Run("figure12_penalty_shares_the_cache_entry", func(t *testing.T) {
		// Figure 12 does not read the penalty, so a spelling that carries
		// one is the same request: one key, one body, one ETag.
		resp1, body1 := get(t, ts.URL+"/v1/figures/12?penalty=6")
		if resp1.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp1.StatusCode, body1)
		}
		resp2, body2 := get(t, ts.URL+"/v1/figures/12")
		if xc := resp2.Header.Get("X-Cache"); xc != string(OutcomeHit) {
			t.Fatalf("second spelling X-Cache = %q, want hit", xc)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatal("the two spellings of figure 12 answered different bodies")
		}
		if e1, e2 := resp1.Header.Get("ETag"), resp2.Header.Get("ETag"); e1 == "" || e1 != e2 {
			t.Fatalf("ETags differ: %q, %q", e1, e2)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		resp, body := get(t, ts.URL+"/metrics")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		snap, err := obs.ReadSnapshot(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Counters["server.requests"] == 0 {
			t.Fatalf("metrics snapshot missing server.requests: %v", snap.Counters)
		}
		if snap.Gauges["server.uptime_seconds"] <= 0 {
			t.Fatalf("uptime gauge not set: %v", snap.Gauges)
		}
		if _, ok := snap.Histograms["server.latency_seconds.simulate"]; !ok {
			t.Fatalf("missing simulate latency histogram")
		}
	})

	t.Run("bad requests", func(t *testing.T) {
		for _, tc := range []struct {
			method, path, body string
			want               int
		}{
			{"POST", "/v1/simulate", `{"b":9,"l":0,"isize_kw":8,"dsize_kw":8}`, http.StatusBadRequest},
			{"POST", "/v1/simulate", `{"b":1,"l":1,"isize_kw":7,"dsize_kw":8}`, http.StatusBadRequest},
			{"POST", "/v1/simulate", `{"unknown_field":1}`, http.StatusBadRequest},
			{"POST", "/v1/simulate", `not json`, http.StatusBadRequest},
			{"POST", "/v1/simulate", simBody + `{"b":1}`, http.StatusBadRequest},
			{"POST", "/v1/simulate", simBody + `}`, http.StatusBadRequest},
			{"POST", "/v1/simulate", simBody + `]`, http.StatusBadRequest},
			{"POST", "/v1/best", `{"loads":"quantum"}`, http.StatusBadRequest},
			{"GET", "/v1/figures/7", "", http.StatusNotFound},
			{"GET", "/v1/figures/12?penalty=zero", "", http.StatusBadRequest},
			{"GET", "/v1/tables/9", "", http.StatusNotFound},
		} {
			var resp *http.Response
			if tc.method == "POST" {
				resp, _ = postJSON(t, ts.URL+tc.path, tc.body)
			} else {
				resp, _ = get(t, ts.URL+tc.path)
			}
			if resp.StatusCode != tc.want {
				t.Errorf("%s %s %q: status %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.want)
			}
		}
	})
}

// TestGoldenFigure12 pins the full JSON body of /v1/figures/12 — the
// determinism guarantee makes the bytes reproducible on every machine.
// Regenerate with `make golden` after an intended behaviour change.
func TestGoldenFigure12(t *testing.T) {
	lab := testLab(t, 20_000)
	_, ts := testServer(t, lab, Config{})
	resp, body := get(t, ts.URL+"/v1/figures/12")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	path := filepath.Join("testdata", "golden", "figure12.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("/v1/figures/12 drifted from the golden body:\n got: %s\nwant: %s", body, want)
	}
}

// TestSingleflightConcurrentIdentical is the acceptance criterion: two
// concurrent identical /v1/simulate requests execute exactly one simulation
// pass, verified by the obs counters.
func TestSingleflightConcurrentIdentical(t *testing.T) {
	lab := testLab(t, 500_000) // slow enough that the requests overlap
	srv, ts := testServer(t, lab, Config{Workers: 2})

	var wg sync.WaitGroup
	codes := make([]int, 2)
	bodies := make([][]byte, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, bodies[i])
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("concurrent identical requests returned different bodies")
	}
	reg := srv.Registry()
	if runs := reg.Counter("lab.passes_run").Value(); runs != 1 {
		t.Errorf("lab.passes_run = %d, want exactly 1", runs)
	}
	if misses := reg.Counter("server.cache.misses").Value(); misses != 1 {
		t.Errorf("server.cache.misses = %d, want exactly 1", misses)
	}
	folded := reg.Counter("server.cache.shared").Value() + reg.Counter("server.cache.hits").Value()
	if folded != 1 {
		t.Errorf("shared+hits = %d, want exactly 1 (the collapsed request)", folded)
	}
}

// TestSaturationReturns429 fills the single worker and the zero-length
// queue, then asserts the next distinct request is shed with 429 +
// Retry-After instead of queueing.
func TestSaturationReturns429(t *testing.T) {
	lab := testLab(t, 2_000_000)
	srv, ts := testServer(t, lab, Config{Workers: 1, QueueCap: -1})

	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(simBody))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request: status %d", resp.StatusCode)
			}
		}
		slowDone <- err
	}()
	waitFor(t, "the worker to pick up the slow request", func() bool {
		return srv.Registry().Gauge("server.pool.busy").Value() >= 1
	})

	resp, body := postJSON(t, ts.URL+"/v1/simulate", `{"b":1,"l":1,"isize_kw":4,"dsize_kw":4}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	if rej := srv.Registry().Counter("server.pool.rejected").Value(); rej != 1 {
		t.Fatalf("pool.rejected = %d, want 1", rej)
	}
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestCancellationMidRequest cancels a client mid-simulation and asserts
// (a) the in-flight pass aborts and is accounted, and (b) the memo is not
// poisoned: the same request retried afterwards succeeds and runs the pass
// exactly once in total.
func TestCancellationMidRequest(t *testing.T) {
	lab := testLab(t, 1_000_000)
	srv, ts := testServer(t, lab, Config{Workers: 2})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", strings.NewReader(simBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("cancelled request completed with status %d", resp.StatusCode)
		}
		errc <- err
	}()
	waitFor(t, "the worker to pick up the doomed request", func() bool {
		return srv.Registry().Gauge("server.pool.busy").Value() >= 1
	})
	cancel()
	if err := <-errc; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("client error = %v, want context canceled", err)
	}
	waitFor(t, "the server to account the cancellation", func() bool {
		return srv.Registry().Counter("server.requests_canceled").Value() == 1
	})
	if runs := srv.Registry().Counter("lab.passes_run").Value(); runs != 0 {
		t.Fatalf("cancelled pass counted as run: lab.passes_run = %d", runs)
	}

	// Retry: the aborted pass must not have poisoned the memo or cache.
	resp, body := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after cancellation: status %d: %s", resp.StatusCode, body)
	}
	if runs := srv.Registry().Counter("lab.passes_run").Value(); runs != 1 {
		t.Fatalf("lab.passes_run after retry = %d, want 1", runs)
	}
}

// TestRequestTimeout asserts the -request-timeout deadline actually cancels
// an in-flight sweep and surfaces as 504.
func TestRequestTimeout(t *testing.T) {
	lab := testLab(t, 5_000_000)
	srv, ts := testServer(t, lab, Config{Workers: 1, RequestTimeout: 50 * time.Millisecond})

	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/simulate", simBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %s; the deadline did not cancel the sweep", elapsed)
	}
	if n := srv.Registry().Counter("server.requests_timeout").Value(); n != 1 {
		t.Fatalf("requests_timeout = %d, want 1", n)
	}
}

// TestGracefulDrain cancels the serve context (as SIGTERM does) while a
// request is in flight and asserts the request completes before Serve
// returns.
func TestGracefulDrain(t *testing.T) {
	lab := testLab(t, 500_000)
	srv, err := New(lab, Config{AccessLog: io.Discard, Workers: 2, ShutdownGrace: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+"/v1/simulate", "application/json", strings.NewReader(simBody))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request: status %d", resp.StatusCode)
			}
		}
		reqDone <- err
	}()
	waitFor(t, "the request to be in flight", func() bool {
		return srv.Registry().Gauge("server.pool.busy").Value() >= 1
	})
	cancel() // SIGTERM

	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve returned %v after drain", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}

// TestResultCacheLRU pins the eviction bound.
func TestResultCacheLRU(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewResultCache(2, reg)
	ctx := context.Background()
	put := func(key, val string) {
		t.Helper()
		if _, _, err := c.Do(ctx, key, func(context.Context) ([]byte, error) {
			return []byte(val), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("a", "1")
	put("b", "2")
	put("c", "3") // evicts a
	if n := c.Len(); n != 2 {
		t.Fatalf("len = %d, want 2", n)
	}
	if ev := reg.Counter("server.cache.evictions").Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	// "a" was evicted: recomputing it must be a miss, not a hit (and the
	// reinsert evicts "b", now the LRU tail).
	ran := false
	body, outcome, err := c.Do(ctx, "a", func(context.Context) ([]byte, error) {
		ran = true
		return []byte("1'"), nil
	})
	if err != nil || !ran || outcome != OutcomeMiss || string(body) != "1'" {
		t.Fatalf("recompute after eviction: body=%q outcome=%s ran=%v err=%v", body, outcome, ran, err)
	}
	// "c" survived: a hit without recomputation.
	body, outcome, err = c.Do(ctx, "c", func(context.Context) ([]byte, error) {
		t.Fatal("hit recomputed")
		return nil, nil
	})
	if err != nil || outcome != OutcomeHit || string(body) != "3" {
		t.Fatalf("hit: body=%q outcome=%s err=%v", body, outcome, err)
	}
}

// TestPoolRejectsWhenFull pins the admission policy at the unit level.
func TestPoolRejectsWhenFull(t *testing.T) {
	reg := obs.NewRegistry()
	p := NewPool(1, 0, reg)
	defer p.Close()
	release := make(chan struct{})
	running := make(chan struct{})
	go p.Run(context.Background(), func(context.Context) error {
		close(running)
		<-release
		return nil
	})
	<-running
	err := p.Run(context.Background(), func(context.Context) error { return nil })
	if err != ErrSaturated {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	close(release)
}

func TestVersionInfo(t *testing.T) {
	info := VersionInfo()
	if info.GoVersion == "" || info.Version == "" {
		t.Fatalf("incomplete build info: %+v", info)
	}
	if s := info.String(); !strings.HasPrefix(s, "pipecache ") {
		t.Fatalf("String() = %q", s)
	}
}

// burst fires one cold-cache /v1/simulate request per distinct design
// point, concurrently, and fails the test on any non-200.
func burst(t *testing.T, ts *httptest.Server) {
	t.Helper()
	var wg sync.WaitGroup
	for _, b := range []int{0, 1, 2, 3} {
		for _, size := range []int{4, 8} {
			body := fmt.Sprintf(`{"b":%d,"l":%d,"isize_kw":%d,"dsize_kw":%d}`, b, b, size, size)
			wg.Add(1)
			go func(body string) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("POST: %v", err)
					return
				}
				defer resp.Body.Close()
				rb, _ := io.ReadAll(resp.Body)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d: %s", resp.StatusCode, rb)
				}
			}(body)
		}
	}
	wg.Wait()
}

// TestTraceStoreBudgetUnderLoad drives a burst of distinct design points
// through a cold server and asserts the event-trace store engaged —
// replayed passes, store hits — while staying within its configured byte
// budget; the server's one workload set keeps exactly one trace resident.
func TestTraceStoreBudgetUnderLoad(t *testing.T) {
	lab := budgetLab(t, 20_000, 64<<20)
	srv, ts := testServer(t, lab, Config{Workers: 4, QueueCap: 64})
	burst(t, ts)

	st := lab.TraceStore()
	if st.Bytes() <= 0 || st.Bytes() > st.Budget() {
		t.Errorf("store holds %d bytes against budget %d", st.Bytes(), st.Budget())
	}
	if st.Entries() != 1 {
		t.Errorf("entries = %d, want 1 (one workload set)", st.Entries())
	}
	reg := srv.Registry()
	if reg.Counter("trace.store.hits").Value() == 0 {
		t.Error("no trace store hits under load")
	}
	if reg.Counter("lab.pass_replays").Value() == 0 {
		t.Error("no passes replayed under load")
	}
	if n := reg.Counter("lab.replay_fallbacks").Value(); n != 0 {
		t.Errorf("%d replay fallbacks", n)
	}
}

// TestTraceStoreOversizeUnderLoad: a budget too small for any capture must
// shed the tier gracefully — every request still answers, nothing stays
// resident, and later passes fall back to live interpretation.
func TestTraceStoreOversizeUnderLoad(t *testing.T) {
	lab := budgetLab(t, 20_000, 1)
	srv, ts := testServer(t, lab, Config{Workers: 4, QueueCap: 64})
	burst(t, ts)

	st := lab.TraceStore()
	if st.Entries() != 0 || st.Bytes() != 0 {
		t.Errorf("oversize trace resident: %d entries, %d bytes", st.Entries(), st.Bytes())
	}
	reg := srv.Registry()
	if reg.Counter("trace.store.oversize_drops").Value() != 1 {
		t.Errorf("oversize_drops = %d, want 1", reg.Counter("trace.store.oversize_drops").Value())
	}
	if reg.Counter("trace.store.live_fallbacks").Value() == 0 {
		t.Error("no live fallbacks recorded")
	}
}
