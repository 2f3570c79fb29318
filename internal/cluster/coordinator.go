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
// Robustness: a request walks its key's shard sequence one shard at a
// time. Transport failures and 5xx answers fail over to the next shard,
// and a transport failure drains its shard until a /healthz probe
// re-includes it; a shard's 429 is relayed with its Retry-After clamped to
// the same 1..30s contract the backends honor. The HTTP shell around the
// handlers (instrumentation, ETags, /metrics, graceful drain) is the
// backend's own server.Shell.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
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

// errResponseTooLarge fails an exchange whose body exceeds
// maxShardResponse: relaying a cut-short body would serve a 200 with
// another answer's ETag.
var errResponseTooLarge = fmt.Errorf("cluster: shard response exceeds %d bytes", maxShardResponse)

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
	// ProbeInterval is the /healthz probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default 1s).
	ProbeTimeout time.Duration
	// FailAfter is the number of consecutive probe failures that drain a
	// healthy shard (default 2). Transport errors on real requests drain
	// immediately regardless.
	FailAfter int
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
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
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
	shards []*Shard
	ring   *Ring
	reg    *obs.Registry
	client *http.Client
	shell  *server.Shell
	build  server.BuildInfo
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
		shards: shards,
		ring:   NewRing(names),
		reg:    reg,
		client: cfg.Client,
		// No whole-request deadline: RequestTimeout bounds each shard
		// exchange, so a timed-out shard can still fail over.
		shell: server.NewShell("cluster", reg, cfg.AccessLog, 0),
		build: server.VersionInfo(),
	}
	c.publishHealthGauges()
	c.routes()
	return c, nil
}

func (c *Coordinator) routes() {
	c.shell.Handle("POST /v1/simulate", "simulate", c.handleSimulate)
	c.shell.Handle("POST /v1/best", "best", c.handleBest)
	c.shell.Handle("GET /v1/figures/{n}", "figures", c.handleFigure)
	c.shell.Handle("GET /v1/tables/{n}", "tables", c.handleTable)
	c.shell.Handle("GET /healthz", "healthz", c.handleHealthz)
}

// Registry returns the coordinator's metric registry.
func (c *Coordinator) Registry() *obs.Registry { return c.reg }

// Handler returns the full middleware-wrapped handler.
func (c *Coordinator) Handler() http.Handler { return c.shell.Handler() }

// Close releases resources (none beyond idle connections today).
func (c *Coordinator) Close() { c.client.CloseIdleConnections() }

// Shards returns the fleet's shard handles (index order); tests use it to
// inspect health transitions.
func (c *Coordinator) Shards() []*Shard { return c.shards }

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
	c.shell.Logf("coordinating %d shards on %s", len(c.shards), ln.Addr())
	return c.shell.Serve(ctx, ln, c.cfg.ShutdownGrace, c.Close)
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
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse+1))
	if err == nil && len(b) > maxShardResponse {
		err = errResponseTooLarge
	}
	if err != nil {
		s.errors.Add(1)
		c.reg.Counter("cluster.shard.errors").Inc()
		return nil, err
	}
	c.reg.Histogram("cluster.shard.latency_ms", obs.ExponentialBounds(0.25, 2, 16)...).
		Observe(float64(time.Since(start)) / float64(time.Millisecond))
	res := &shardResult{status: resp.StatusCode, body: b, cacheTier: resp.Header.Get("X-Cache")}
	if resp.StatusCode == http.StatusTooManyRequests {
		if v, aerr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); aerr == nil {
			res.retryAfter = v
		}
	}
	return res, nil
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

// proxy forwards one request along its key's shard sequence, one shard
// at a time, and relays the first answer that is not a 5xx. A transport
// error drains its shard and tries the next; a 5xx tries the next too but
// is kept, so when every shard fails that way the last 5xx is relayed. A
// failure caused by the client's own context (a disconnect) returns at
// once and drains nothing.
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, key, method, path string, body []byte) {
	ctx := r.Context()
	var last *shardResult
	err := errNoShards
	for _, s := range c.routeSequence(key) {
		res, serr := c.doShard(ctx, s, method, path, body)
		switch {
		case serr != nil && ctx.Err() != nil:
			c.writeUpstreamError(w, ctx.Err())
			return
		case serr != nil:
			c.markUnhealthy(s, serr)
			err = serr
		case res.status >= http.StatusInternalServerError:
			// A shard answered but could not serve (shutdown drain, an
			// injected abort).
			last = res
		default:
			c.relay(w, r, res)
			return
		}
	}
	if last != nil {
		c.relay(w, r, last)
		return
	}
	c.writeUpstreamError(w, err)
}

// relay writes a shard's answer to the client. A 200 is finished by the
// backend's own Shell.WriteBody over the shard's bytes, so the ETag, the
// If-None-Match handling and the trailing newline are the backend's and
// coordinator and single-node responses are byte-identical on the wire.
// Other statuses pass through, with a 429's Retry-After re-clamped to the
// 1..30s contract.
func (c *Coordinator) relay(w http.ResponseWriter, r *http.Request, res *shardResult) {
	if res.status == http.StatusOK {
		tier := res.cacheTier
		if tier == "" {
			tier = "upstream"
		}
		c.shell.WriteBody(w, r, bytes.TrimSuffix(res.body, []byte("\n")), tier)
		return
	}
	h := w.Header()
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
	req, err := server.DecodeDesignRequest(r.Body, c.cfg.Params)
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
	c.proxyReport(w, r, true)
}

func (c *Coordinator) handleTable(w http.ResponseWriter, r *http.Request) {
	c.proxyReport(w, r, false)
}

// proxyReport forwards a figure or table request, validated by the
// server's own parser, in its canonical form.
func (c *Coordinator) proxyReport(w http.ResponseWriter, r *http.Request, figure bool) {
	q, status, msg := server.ParseReportRequest(r, figure)
	if status != 0 {
		http.Error(w, msg, status)
		return
	}
	c.proxy(w, r, q.Key(), http.MethodGet, q.Path(), nil)
}

func (c *Coordinator) handleBest(w http.ResponseWriter, r *http.Request) {
	req, err := server.DecodeBestRequest(r.Body, c.cfg.Params)
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
		UptimeSeconds: c.shell.Uptime(),
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
