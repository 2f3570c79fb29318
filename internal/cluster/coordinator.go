// Package cluster is the coordinator tier of the pipecache service: a
// front that spreads requests across N backend replicas (shards) while
// answering with bodies and ETags byte-identical to a single-node server.
//
// Routing has one shape: every /v1 request is proxied whole to one shard.
// The coordinator derives the same content-addressed request key the
// backend uses (server.RequestKey over the normalized request) and
// consistent-hashes it onto the fleet, so repeats of a request land on the
// same shard and its result cache and trace store stay hot on a stable
// slice of the key space. The shard's body is relayed unchanged, so
// it is byte-for-byte what a single backend serves — the property the
// differential suite (cluster diff tests) pins.
//
// Robustness: requests hedge onto the next shard in ring order after a
// latency-percentile delay; transport failures and 5xx answers fail over
// to the next shard, and a transport failure drains its shard until a
// /healthz probe re-includes it; and a shard's 429 is relayed with its
// Retry-After clamped to the same 1..30s contract the backends honor.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pipecache/internal/core"
	"pipecache/internal/fault"
	"pipecache/internal/obs"
	"pipecache/internal/server"
)

// ptShardRequest is the fault point of the coordinator's proxied shard
// requests: it simulates a shard that errors, hangs, or drops the
// connection, and the differential chaos suite asserts the relayed
// responses stay byte-identical underneath it.
var ptShardRequest = fault.NewPoint("cluster.shard.request")

// errNoShards means every shard is draining (or none were configured).
var errNoShards = errors.New("cluster: no healthy shards")

// maxShardResponse bounds one shard response body (a full design-space
// sweep is a few hundred KB; anything near this is a broken shard).
const maxShardResponse = 64 << 20

// Shard-advertised backoffs are re-bounded with server.ClampRetryAfter —
// the single definition of the 1..30s Retry-After contract the backend
// pool honors: shards are trusted for routing, not for unbounded client
// backoff.

// Config tunes the coordinator; zero values take the documented defaults.
type Config struct {
	// Addr is the listen address (default ":8090").
	Addr string
	// Shards are the backend base URLs ("http://host:port"); at least one
	// is required. A shard's URL is its ring identity: reordering the list
	// does not move keys, and adding or removing one shard moves ~1/N.
	Shards []string
	// Replicas is the virtual-node count per shard on the hash ring
	// (default 64).
	Replicas int
	// ProbeInterval is the /healthz probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration
	// FailAfter is the number of consecutive probe failures that drain a
	// healthy shard (default 2). Transport errors on real requests drain
	// immediately regardless.
	FailAfter int
	// HedgeAfter is the floor on the hedging delay (default 100ms): a
	// request hedges onto the next shard in ring order after
	// max(HedgeAfter, observed HedgeQuantile latency).
	HedgeAfter time.Duration
	// HedgeQuantile is the shard-latency quantile that arms the hedge
	// timer once enough samples exist (default 0.95).
	HedgeQuantile float64
	// RequestTimeout bounds each shard-facing request (default 120s).
	RequestTimeout time.Duration
	// ShutdownGrace bounds the drain on shutdown (default 10s).
	ShutdownGrace time.Duration
	// AccessLog receives one line per request (default os.Stderr;
	// io.Discard silences it).
	AccessLog io.Writer
	// Params must match the backends' lab parameters; it defines the
	// request normalization behind the coordinator's routing keys (default
	// core.DefaultParams()).
	Params core.Params
	// Client is the shard-facing HTTP client (default http.DefaultClient
	// semantics with no global timeout; per-request contexts bound it).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8090"
	}
	if c.Replicas <= 0 {
		c.Replicas = ringReplicas
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 100 * time.Millisecond
	}
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 10 * time.Second
	}
	if c.AccessLog == nil {
		c.AccessLog = os.Stderr
	}
	if len(c.Params.SizesKW) == 0 {
		c.Params = core.DefaultParams()
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// Coordinator fronts a fleet of backend shards. Build with New, mount
// Handler (or run ListenAndServe), and Close when done.
type Coordinator struct {
	cfg    Config
	params core.Params
	shards []*Shard
	ring   *Ring
	reg    *obs.Registry
	client *http.Client
	mux    *http.ServeMux
	log    *log.Logger
	start  time.Time
	build  server.BuildInfo
	lat    latencyTracker
}

// New builds a coordinator over the configured shard fleet. Shards start
// healthy (optimistic) and the probe loop — started by ListenAndServe, or
// driven manually with ProbeAll — corrects that within one interval.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: at least one shard URL is required")
	}
	seen := map[string]bool{}
	shards := make([]*Shard, len(cfg.Shards))
	for i, u := range cfg.Shards {
		u = strings.TrimRight(u, "/")
		if u == "" {
			return nil, fmt.Errorf("cluster: empty shard URL at index %d", i)
		}
		if seen[u] {
			return nil, fmt.Errorf("cluster: duplicate shard URL %s", u)
		}
		seen[u] = true
		s := &Shard{Name: fmt.Sprintf("shard%d", i), URL: u}
		s.healthy.Store(true)
		shards[i] = s
	}
	names := make([]string, len(shards))
	for i, s := range shards {
		names[i] = s.URL
	}
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg:    cfg,
		params: cfg.Params,
		shards: shards,
		ring:   NewRing(names, cfg.Replicas),
		reg:    reg,
		client: cfg.Client,
		mux:    http.NewServeMux(),
		log:    log.New(cfg.AccessLog, "", log.LstdFlags|log.Lmicroseconds),
		start:  time.Now(),
		build:  server.VersionInfo(),
	}
	c.publishHealthGauges()
	c.routes()
	return c, nil
}

func (c *Coordinator) routes() {
	c.mux.Handle("POST /v1/simulate", c.instrument("simulate", c.handleSimulate))
	c.mux.Handle("POST /v1/best", c.instrument("best", c.handleBest))
	c.mux.Handle("GET /v1/figures/{n}", c.instrument("figures", c.handleFigure))
	c.mux.Handle("GET /v1/tables/{n}", c.instrument("tables", c.handleTable))
	c.mux.Handle("GET /healthz", c.instrument("healthz", c.handleHealthz))
	c.mux.Handle("GET /metrics", c.instrument("metrics", c.handleMetrics))
}

// Registry returns the coordinator's metric registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Handler returns the full middleware-wrapped handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close releases resources (none beyond idle connections today).
func (c *Coordinator) Close() { c.client.CloseIdleConnections() }

// Shards returns the fleet's shard handles (index order); tests use it to
// inspect health transitions.
func (c *Coordinator) Shards() []*Shard { return c.shards }

// instrument wraps one endpoint with request counting, latency, panic
// recovery, and access logging — the coordinator-side mirror of the
// backend middleware.
func (c *Coordinator) instrument(name string, h http.HandlerFunc) http.Handler {
	reqs := c.reg.Counter("cluster.req." + name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		c.reg.Counter("cluster.requests").Inc()
		stop := c.reg.Time("cluster.latency_seconds." + name)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				c.reg.Counter("cluster.panics").Inc()
				c.log.Printf("panic in %s %s: %v", r.Method, r.URL.Path, p)
				if sw.code == 0 {
					http.Error(sw, "internal error", http.StatusInternalServerError)
				}
			}
			stop()
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			c.reg.Counter(fmt.Sprintf("cluster.status.%dxx", code/100)).Inc()
			c.log.Printf("%s %s %d %dB %s", r.Method, r.URL.Path, code, sw.bytes, time.Since(start).Round(time.Microsecond))
		}()
		h(sw, r)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// ListenAndServe serves on the configured address until ctx is cancelled,
// probing the fleet once up front and then every ProbeInterval.
func (c *Coordinator) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	return c.Serve(ctx, ln)
}

// Serve accepts connections from ln until ctx is cancelled, then drains
// gracefully. The probe loop runs for the lifetime of the server.
func (c *Coordinator) Serve(ctx context.Context, ln net.Listener) error {
	pctx, stopProbes := context.WithCancel(ctx)
	defer stopProbes()
	c.ProbeAll(pctx)
	go c.probeLoop(pctx)
	hs := &http.Server{Handler: c.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	c.log.Printf("coordinating %d shards on %s (replicas=%d hedge>=%s)",
		len(c.shards), ln.Addr(), c.cfg.Replicas, c.cfg.HedgeAfter)
	select {
	case err := <-errc:
		c.Close()
		return err
	case <-ctx.Done():
	}
	c.log.Printf("shutdown: draining in-flight requests (grace %s)", c.cfg.ShutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), c.cfg.ShutdownGrace)
	defer cancel()
	err := hs.Shutdown(sctx)
	c.Close()
	if serr := <-errc; serr != nil && serr != http.ErrServerClosed {
		return serr
	}
	return err
}

// latencyTracker keeps a sliding window of shard request latencies and
// reports quantiles for the hedge timer. Cheap and approximate on purpose:
// hedging needs "slower than usual", not a calibrated percentile.
type latencyTracker struct {
	mu      sync.Mutex
	samples [128]time.Duration
	n       int
}

func (t *latencyTracker) observe(d time.Duration) {
	t.mu.Lock()
	t.samples[t.n%len(t.samples)] = d
	t.n++
	t.mu.Unlock()
}

// quantile returns the q-quantile of the window, or ok=false until enough
// samples exist to make one meaningful.
func (t *latencyTracker) quantile(q float64) (time.Duration, bool) {
	t.mu.Lock()
	n := t.n
	if n > len(t.samples) {
		n = len(t.samples)
	}
	if n < 8 {
		t.mu.Unlock()
		return 0, false
	}
	buf := make([]time.Duration, n)
	copy(buf, t.samples[:n])
	t.mu.Unlock()
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	i := int(q * float64(n))
	if i >= n {
		i = n - 1
	}
	return buf[i], true
}

// hedgeDelay is the current hedging delay: the configured floor, raised to
// the tracked latency quantile once the window has samples.
func (c *Coordinator) hedgeDelay() time.Duration {
	d := c.cfg.HedgeAfter
	if q, ok := c.lat.quantile(c.cfg.HedgeQuantile); ok && q > d {
		d = q
	}
	return d
}

// shardResult is one shard's HTTP answer, whatever the status.
type shardResult struct {
	status     int
	body       []byte
	retryAfter int
	cacheTier  string
}

// doShard issues one request against s through the ptShardRequest fault
// point, recording per-shard and fleet-wide accounting. A returned error is
// a transport-level failure (the shard did not answer); any HTTP status is
// a successful exchange and comes back as a shardResult.
func (c *Coordinator) doShard(ctx context.Context, s *Shard, method, path string, body []byte) (*shardResult, error) {
	if err := ptShardRequest.Inject(); err != nil {
		s.errors.Add(1)
		c.reg.Counter("cluster.shard.errors").Inc()
		return nil, err
	}
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	c.reg.Counter("cluster.shard.requests").Inc()
	rctx, cancel := context.WithTimeout(ctx, c.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, s.URL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		s.errors.Add(1)
		c.reg.Counter("cluster.shard.errors").Inc()
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
	if err != nil {
		s.errors.Add(1)
		c.reg.Counter("cluster.shard.errors").Inc()
		return nil, err
	}
	elapsed := time.Since(start)
	c.reg.Histogram("cluster.shard.latency_ms", obs.ExponentialBounds(0.25, 2, 16)...).
		Observe(float64(elapsed) / float64(time.Millisecond))
	c.lat.observe(elapsed)
	res := &shardResult{status: resp.StatusCode, body: b, cacheTier: resp.Header.Get("X-Cache")}
	if resp.StatusCode == http.StatusTooManyRequests {
		if v, aerr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); aerr == nil {
			res.retryAfter = v
		}
	}
	return res, nil
}

// raceShards runs do against shards[0], hedging onto the next shard each
// time the hedge timer fires before an answer arrives, and advancing to the
// next shard on transport errors and 5xx. The first completed exchange wins
// (a hedged win is counted); transport failures drain the failing shard.
func (c *Coordinator) raceShards(ctx context.Context, shards []*Shard, do func(ctx context.Context, s *Shard) (*shardResult, error)) (*shardResult, error) {
	if len(shards) == 0 {
		return nil, errNoShards
	}
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res    *shardResult
		err    error
		s      *Shard
		hedged bool
	}
	results := make(chan outcome, len(shards))
	launched := 0
	launch := func(hedged bool) {
		s := shards[launched]
		launched++
		go func() {
			res, err := do(rctx, s)
			results <- outcome{res: res, err: err, s: s, hedged: hedged}
		}()
	}
	launch(false)
	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()
	outstanding := 1
	var lastErr error
	var lastRes *shardResult
	for outstanding > 0 {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedge.C:
			if launched < len(shards) {
				c.reg.Counter("cluster.hedge.fired").Inc()
				launch(true)
				outstanding++
				hedge.Reset(c.hedgeDelay())
			}
		case o := <-results:
			outstanding--
			if o.err != nil {
				lastErr = o.err
				if rctx.Err() == nil {
					c.markUnhealthy(o.s, o.err)
				}
				if launched < len(shards) {
					launch(false)
					outstanding++
				}
				continue
			}
			if o.res.status >= http.StatusInternalServerError {
				// A shard answered but could not serve (shutdown drain, an
				// injected abort): try the next one, keeping this answer as
				// the fallback if the whole sequence fails the same way.
				lastRes = o.res
				if launched < len(shards) {
					launch(false)
					outstanding++
				}
				continue
			}
			if o.hedged {
				c.reg.Counter("cluster.hedge.won").Inc()
			}
			return o.res, nil
		}
	}
	if lastRes != nil {
		return lastRes, nil
	}
	if lastErr == nil {
		lastErr = errNoShards
	}
	return nil, lastErr
}

// routeSequence orders the fleet for one key: the key's ring sequence with
// healthy shards first (draining shards stay reachable as a last resort, so
// a fleet that is entirely draining still serves rather than 503ing).
func (c *Coordinator) routeSequence(key string) []*Shard {
	seq := c.ring.Sequence(key)
	healthy := make([]*Shard, 0, len(seq))
	var draining []*Shard
	for _, i := range seq {
		if c.shards[i].Healthy() {
			healthy = append(healthy, c.shards[i])
		} else {
			draining = append(draining, c.shards[i])
		}
	}
	return append(healthy, draining...)
}

// proxy forwards one request along its key's shard sequence and relays the
// winning answer.
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, key, method, path string, body []byte) {
	res, err := c.raceShards(r.Context(), c.routeSequence(key), func(ctx context.Context, s *Shard) (*shardResult, error) {
		return c.doShard(ctx, s, method, path, body)
	})
	if err != nil {
		c.writeUpstreamError(w, err)
		return
	}
	c.relay(w, r, res)
}

// relay writes a shard's answer to the client. A 200 is finished exactly
// as the backend does — same ETag derivation (recomputed over the same
// bytes, so it equals the shard's tag), same If-None-Match handling, same
// trailing newline — so coordinator and single-node responses are
// byte-identical on the wire. Other statuses pass through, with a 429's
// Retry-After re-clamped to the 1..30s contract.
func (c *Coordinator) relay(w http.ResponseWriter, r *http.Request, res *shardResult) {
	h := w.Header()
	if res.status == http.StatusOK {
		body := bytes.TrimSuffix(res.body, []byte("\n"))
		etag := server.StrongETag(body)
		tier := res.cacheTier
		if tier == "" {
			tier = "upstream"
		}
		h.Set("Content-Type", "application/json")
		h.Set("ETag", etag)
		h.Set("X-Cache", tier)
		if inm := r.Header.Get("If-None-Match"); inm != "" && server.ETagMatch(inm, etag) {
			c.reg.Counter("cluster.requests_not_modified").Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Write(body)
		w.Write([]byte("\n"))
		return
	}
	if res.status == http.StatusTooManyRequests {
		c.reg.Counter("cluster.backpressure").Inc()
		h.Set("Retry-After", strconv.Itoa(server.ClampRetryAfter(res.retryAfter)))
	}
	h.Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// writeUpstreamError maps a request that no shard answered onto HTTP
// semantics.
func (c *Coordinator) writeUpstreamError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errNoShards):
		http.Error(w, "no healthy shards", http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "request cancelled", http.StatusGatewayTimeout)
	default:
		http.Error(w, "upstream error: "+err.Error(), http.StatusBadGateway)
	}
}

func (c *Coordinator) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := server.DecodeDesignRequest(r.Body, c.params)
	if err != nil {
		http.Error(w, "bad design request: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.proxyJSON(w, r, "simulate", "/v1/simulate", req)
}

// proxyJSON forwards a normalized POST request to path, routed by its
// content-addressed key under endpoint — the key the backend's result
// cache uses, so repeats of a request find that cache hot.
func (c *Coordinator) proxyJSON(w http.ResponseWriter, r *http.Request, endpoint, path string, req any) {
	body, err := json.Marshal(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.proxy(w, r, server.RequestKey(endpoint, req), http.MethodPost, path, body)
}

func (c *Coordinator) handleFigure(w http.ResponseWriter, r *http.Request) {
	n := r.PathValue("n")
	switch n {
	case "11", "12", "13":
	default:
		http.Error(w, "unknown figure (serving 11, 12, 13)", http.StatusNotFound)
		return
	}
	penalty := 10
	if q := r.URL.Query().Get("penalty"); q != "" {
		p, err := strconv.Atoi(q)
		if err != nil || p < 1 || p > 1000 {
			http.Error(w, "penalty must be an integer in 1..1000", http.StatusBadRequest)
			return
		}
		penalty = p
	}
	key := server.RequestKey("figures", map[string]any{"n": n, "penalty": penalty})
	c.proxy(w, r, key, http.MethodGet, "/v1/figures/"+n+"?penalty="+strconv.Itoa(penalty), nil)
}

func (c *Coordinator) handleTable(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 1 || n > 6 {
		http.Error(w, "unknown table (serving 1-6)", http.StatusNotFound)
		return
	}
	key := server.RequestKey("tables", map[string]int{"n": n})
	c.proxy(w, r, key, http.MethodGet, "/v1/tables/"+strconv.Itoa(n), nil)
}

func (c *Coordinator) handleBest(w http.ResponseWriter, r *http.Request) {
	req, err := server.DecodeBestRequest(r.Body, c.params)
	if err != nil {
		http.Error(w, "bad optimization request: "+err.Error(), http.StatusBadRequest)
		return
	}
	c.proxyJSON(w, r, "best", "/v1/best", req)
}

// ShardHealth is one shard's block in the coordinator's /healthz.
type ShardHealth struct {
	Name      string `json:"name"`
	URL       string `json:"url"`
	State     string `json:"state"` // healthy | draining
	Inflight  int64  `json:"inflight"`
	Requests  int64  `json:"requests"`
	Errors    int64  `json:"errors"`
	LastProbe string `json:"last_probe,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// CoordinatorHealth is the body of the coordinator's GET /healthz.
type CoordinatorHealth struct {
	Status        string           `json:"status"` // ok | degraded
	Build         server.BuildInfo `json:"build"`
	UptimeSeconds float64          `json:"uptime_seconds"`
	Shards        []ShardHealth    `json:"shards"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := CoordinatorHealth{
		Status:        "ok",
		Build:         c.build,
		UptimeSeconds: c.reg.UptimeGauge("cluster.uptime_seconds", c.start),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		sh := ShardHealth{
			Name:      s.Name,
			URL:       s.URL,
			State:     s.state(),
			Inflight:  s.inflight.Load(),
			Requests:  s.requests.Load(),
			Errors:    s.errors.Load(),
			LastError: s.lastProbeErr,
		}
		if !s.lastProbe.IsZero() {
			sh.LastProbe = s.lastProbe.UTC().Format(time.RFC3339Nano)
		}
		s.mu.Unlock()
		if sh.State != "healthy" {
			resp.Status = "degraded"
		}
		resp.Shards = append(resp.Shards, sh)
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.reg.UptimeGauge("cluster.uptime_seconds", c.start)
	w.Header().Set("Content-Type", "application/json")
	if err := c.reg.Snapshot().WriteJSON(w); err != nil {
		c.log.Printf("metrics export: %v", err)
	}
}
