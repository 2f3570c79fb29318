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
			c := testCoordinator(t, Config{HedgeAfter: time.Hour}, f)
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

// TestHedgingRacesSlowShard pins the hedging policy: when the key's owner
// is slow, the request hedges onto the next shard in ring order after the
// hedge delay and the fast answer wins.
func TestHedgingRacesSlowShard(t *testing.T) {
	a := newFakeShard(t, nil)
	b := newFakeShard(t, nil)
	c := testCoordinator(t, Config{HedgeAfter: 20 * time.Millisecond}, a, b)
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()

	// Find the owner of the tables/1 key and make it slow.
	key := server.RequestKey("tables", map[string]int{"n": 1})
	owner := c.ring.Lookup(key)
	shards := []*fakeShard{a, b}
	shards[owner].delay.Store(int64(2 * time.Second))

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/tables/1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("answer took %s; the hedge did not rescue the slow owner", elapsed)
	}
	if got, want := string(body), `{"table":1,"text":"fake"}`+"\n"; got != want {
		t.Fatalf("body = %q, want %q", got, want)
	}
	snap := c.Registry().Snapshot().Counters
	if snap["cluster.hedge.fired"] < 1 {
		t.Errorf("cluster.hedge.fired = %d, want >= 1", snap["cluster.hedge.fired"])
	}
	if snap["cluster.hedge.won"] < 1 {
		t.Errorf("cluster.hedge.won = %d, want >= 1", snap["cluster.hedge.won"])
	}
	if shards[1-owner].hits.Load() < 1 {
		t.Errorf("hedge target served no requests")
	}
}

// TestProbeDrainAndReinclude walks the health state machine: FailAfter
// consecutive probe failures drain a shard, the coordinator /healthz
// reports the split, and the first successful probe re-includes it.
func TestProbeDrainAndReinclude(t *testing.T) {
	a := newFakeShard(t, nil)
	b := newFakeShard(t, nil)
	c := testCoordinator(t, Config{FailAfter: 2, HedgeAfter: time.Hour}, a, b)
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
	c := testCoordinator(t, Config{HedgeAfter: time.Hour}, a, b)
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
