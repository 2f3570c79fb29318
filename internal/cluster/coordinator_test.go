package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pipecache/internal/server"
)

// fakeShard is a scriptable backend: a tiny handler serving /healthz and
// whatever endpoint behavior the test installs.
type fakeShard struct {
	ts *httptest.Server
	// healthzOK controls the probe answer.
	healthzOK atomic.Bool
	// delay is applied to /v1 requests before answering.
	delay atomic.Int64 // nanoseconds
	// v1 handles everything under /v1 (after the delay); nil answers 200
	// with a fixed JSON body.
	v1 http.HandlerFunc
	// hits counts /v1 requests served.
	hits atomic.Int64
}

func newFakeShard(t *testing.T, v1 http.HandlerFunc) *fakeShard {
	t.Helper()
	f := &fakeShard{v1: v1}
	f.healthzOK.Store(true)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			if !f.healthzOK.Load() {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		f.hits.Add(1)
		if d := time.Duration(f.delay.Load()); d > 0 {
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		}
		if f.v1 != nil {
			f.v1(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		w.Write([]byte(`{"table":1,"text":"fake"}` + "\n"))
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// testCoordinator builds a coordinator over the fake shards with fast
// timeouts and silent logs.
func testCoordinator(t *testing.T, cfg Config, shards ...*fakeShard) *Coordinator {
	t.Helper()
	for _, f := range shards {
		cfg.Shards = append(cfg.Shards, f.ts.URL)
	}
	cfg.AccessLog = io.Discard
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestRetryAfterMalformedShardHeaders pins the shared-clamp contract
// (server.ClampRetryAfter) against hostile or broken shards: whatever a
// shard puts in its 429 Retry-After header — nothing at all, "0", a
// negative number, or garbage — the coordinator forwards a value inside
// the 1..30s window on every proxied endpoint.
func TestRetryAfterMalformedShardHeaders(t *testing.T) {
	cases := []struct {
		name, header string
		want         int
	}{
		{"missing", "", 1},
		{"zero", "0", 1},
		{"negative", "-5", 1},
		{"garbage", "soon", 1},
		{"huge", "86400", 30},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			saturated := func(w http.ResponseWriter, r *http.Request) {
				if tc.header != "" {
					w.Header().Set("Retry-After", tc.header)
				}
				http.Error(w, "busy", http.StatusTooManyRequests)
			}
			f := newFakeShard(t, saturated)
			c := testCoordinator(t, Config{}, f)
			ts := httptest.NewServer(c.Handler())
			defer ts.Close()

			for _, q := range []struct{ method, path, body string }{
				{http.MethodGet, "/v1/tables/1", ""},                // proxied GET
				{http.MethodPost, "/v1/best", `{"loads":"static"}`}, // proxied POST
			} {
				var (
					resp *http.Response
					err  error
				)
				if q.method == http.MethodPost {
					resp, err = http.Post(ts.URL+q.path, "application/json", strings.NewReader(q.body))
				} else {
					resp, err = http.Get(ts.URL + q.path)
				}
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusTooManyRequests {
					t.Fatalf("%s: status %d, want 429", q.path, resp.StatusCode)
				}
				if got := mustAtoi(t, resp.Header.Get("Retry-After")); got != tc.want {
					t.Errorf("%s: Retry-After = %d, want %d for shard header %q",
						q.path, got, tc.want, tc.header)
				}
			}
		})
	}
}

func mustAtoi(t *testing.T, s string) int {
	t.Helper()
	n, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("non-integer Retry-After %q", s)
	}
	return n
}

// tablesOwner returns the index of the fake shard that owns the
// /v1/tables/1 key.
func tablesOwner(c *Coordinator) int {
	return c.ring.Lookup(server.RequestKey("tables", map[string]int{"n": 1}))
}

// getTable1 fetches /v1/tables/1 through the coordinator.
func getTable1(t *testing.T, c *Coordinator) (*http.Response, string) {
	t.Helper()
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/tables/1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(body)
}

const fakeBody = `{"table":1,"text":"fake"}` + "\n"

// TestSlowOwnerAnsweredOnce pins that a slow answer is not duplicated:
// the key's owner takes longer than any latency a duplicate request could
// hide, and still it alone computes the answer. Every shard holds the
// same deterministic answer, and only the owner holds it warm.
func TestSlowOwnerAnsweredOnce(t *testing.T) {
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil), newFakeShard(t, nil)}
	c := testCoordinator(t, Config{}, shards...)
	owner := tablesOwner(c)
	shards[owner].delay.Store(int64(300 * time.Millisecond))

	resp, body := getTable1(t, c)
	if resp.StatusCode != http.StatusOK || body != fakeBody {
		t.Fatalf("status %d body %q, want the owner's 200 %q", resp.StatusCode, body, fakeBody)
	}
	for i, f := range shards {
		want := int64(0)
		if i == owner {
			want = 1
		}
		if got := f.hits.Load(); got != want {
			t.Errorf("shard %d served %d requests, want %d", i, got, want)
		}
	}
	if n := c.Registry().Snapshot().Counters["cluster.shard.requests"]; n != 1 {
		t.Errorf("cluster.shard.requests = %d, want 1", n)
	}
}

// TestServerErrorsFailOver pins the walk's 5xx rules: a 5xx moves on to
// the next shard without draining the one that sent it, and when every
// shard answers 5xx the last one is relayed with its status and body.
func TestServerErrorsFailOver(t *testing.T) {
	failing := func(code int, msg string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) { http.Error(w, msg, code) }
	}
	t.Run("next_shard_answers", func(t *testing.T) {
		shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil)}
		c := testCoordinator(t, Config{}, shards...)
		owner := tablesOwner(c)
		shards[owner].v1 = failing(http.StatusServiceUnavailable, "draining")

		resp, body := getTable1(t, c)
		if resp.StatusCode != http.StatusOK || body != fakeBody {
			t.Fatalf("status %d body %q, want the next shard's 200", resp.StatusCode, body)
		}
		if !c.Shards()[owner].Healthy() {
			t.Error("a 5xx drained the shard that sent it")
		}
		if shards[1-owner].hits.Load() != 1 {
			t.Errorf("next shard served %d requests, want 1", shards[1-owner].hits.Load())
		}
	})
	t.Run("every_shard_fails", func(t *testing.T) {
		shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil)}
		c := testCoordinator(t, Config{}, shards...)
		owner := tablesOwner(c)
		shards[owner].v1 = failing(http.StatusInternalServerError, "owner broke")
		shards[1-owner].v1 = failing(http.StatusBadGateway, "next broke")

		resp, body := getTable1(t, c)
		if resp.StatusCode != http.StatusBadGateway || body != "next broke\n" {
			t.Fatalf("status %d body %q, want the last shard's 502 %q", resp.StatusCode, body, "next broke\n")
		}
	})
}

// TestOversizeShardResponseFailsOver pins the response bound: a shard
// that streams more than maxShardResponse bytes fails its exchange (it is
// counted and drained, like a transport error) instead of having a
// cut-short body relayed as a 200, and the request fails over.
func TestOversizeShardResponseFailsOver(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a 64 MiB shard response; skipped in -short")
	}
	shards := []*fakeShard{newFakeShard(t, nil), newFakeShard(t, nil)}
	c := testCoordinator(t, Config{}, shards...)
	owner := tablesOwner(c)
	shards[owner].v1 = func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		chunk := make([]byte, 1<<20)
		for left := maxShardResponse + 1; left > 0; left -= len(chunk) {
			if left < len(chunk) {
				chunk = chunk[:left]
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}

	resp, body := getTable1(t, c)
	if resp.StatusCode != http.StatusOK || body != fakeBody {
		t.Fatalf("status %d, %d-byte body; want the next shard's 200 %q", resp.StatusCode, len(body), fakeBody)
	}
	if c.Shards()[owner].Healthy() {
		t.Error("the oversize shard is still healthy")
	}
	if n := c.Registry().Snapshot().Counters["cluster.shard.errors"]; n != 1 {
		t.Errorf("cluster.shard.errors = %d, want 1", n)
	}
}

// TestProbeDrainAndReinclude walks the health state machine: FailAfter
// consecutive probe failures drain a shard, the coordinator /healthz
// reports the split, and the first successful probe re-includes it.
func TestProbeDrainAndReinclude(t *testing.T) {
	a := newFakeShard(t, nil)
	b := newFakeShard(t, nil)
	c := testCoordinator(t, Config{FailAfter: 2}, a, b)
	ctx := context.Background()

	b.healthzOK.Store(false)
	c.ProbeAll(ctx)
	if !c.Shards()[1].Healthy() {
		t.Fatal("one failed probe drained the shard before FailAfter")
	}
	c.ProbeAll(ctx)
	if c.Shards()[1].Healthy() {
		t.Fatal("shard still healthy after FailAfter consecutive probe failures")
	}
	if c.Shards()[0].Healthy() != true {
		t.Fatal("healthy shard drained collaterally")
	}

	// The coordinator's own /healthz must expose the per-shard block.
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h CoordinatorHealth
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "degraded" {
		t.Errorf("healthz status = %q with a draining shard, want degraded", h.Status)
	}
	if len(h.Shards) != 2 {
		t.Fatalf("healthz lists %d shards, want 2", len(h.Shards))
	}
	if h.Shards[0].State != "healthy" || h.Shards[1].State != "draining" {
		t.Errorf("healthz states = %s/%s, want healthy/draining", h.Shards[0].State, h.Shards[1].State)
	}
	if h.Shards[1].LastError == "" {
		t.Error("draining shard reports no last_error")
	}

	// Routing avoids the draining shard: every proxied request lands on a.
	before := a.hits.Load()
	for i := 0; i < 6; i++ {
		r, err := http.Get(ts.URL + "/v1/tables/1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status %d with one healthy shard", r.StatusCode)
		}
	}
	if got := a.hits.Load() - before; got != 6 {
		t.Errorf("healthy shard served %d of 6 requests", got)
	}
	if b.hits.Load() != 0 {
		t.Errorf("draining shard served %d requests", b.hits.Load())
	}

	// Recovery: one good probe re-includes it.
	b.healthzOK.Store(true)
	c.ProbeAll(ctx)
	if !c.Shards()[1].Healthy() {
		t.Fatal("recovered shard not re-included after a successful probe")
	}
	snap := c.Registry().Snapshot().Counters
	if snap["cluster.shard.drained"] < 1 || snap["cluster.shard.reincluded"] < 1 {
		t.Errorf("drain/re-include counters = %d/%d, want >= 1 each",
			snap["cluster.shard.drained"], snap["cluster.shard.reincluded"])
	}
}

// TestTransportErrorDrainsAndFailsOver pins the passive path: a dead shard
// fails a request at the transport level, the coordinator drains it
// immediately and fails the request over to the next shard in ring order.
func TestTransportErrorDrainsAndFailsOver(t *testing.T) {
	a := newFakeShard(t, nil)
	b := newFakeShard(t, nil)
	c := testCoordinator(t, Config{}, a, b)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Kill the owner of the key outright.
	key := server.RequestKey("tables", map[string]int{"n": 1})
	owner := c.ring.Lookup(key)
	shards := []*fakeShard{a, b}
	shards[owner].ts.Close()

	resp, err := http.Get(ts.URL + "/v1/tables/1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d after owner death: %s", resp.StatusCode, body)
	}
	if c.Shards()[owner].Healthy() {
		t.Error("dead shard still marked healthy after a transport failure")
	}
	if shards[1-owner].hits.Load() < 1 {
		t.Error("survivor served no requests")
	}
}

// TestConfigValidation covers constructor rejections.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty shard list")
	}
	if _, err := New(Config{Shards: []string{"http://a", "http://a"}}); err == nil {
		t.Error("New accepted duplicate shard URLs")
	}
}
