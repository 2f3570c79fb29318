package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"pipecache/internal/cache"
	"pipecache/internal/cluster"
	"pipecache/internal/core"
	"pipecache/internal/obs"
	"pipecache/internal/server"
	"pipecache/internal/surface"
)

// policyDepth is the branch depth of the off-surface policy requests: one
// pass per policy serves them all, and setup prewarms both.
const policyDepth = 2

// request is one generated HTTP call.
type request struct {
	class string // simulate (on the surface), policy (off it), or best
	path  string
	body  []byte
	point int // design index of a simulate request, else -1
}

// requestGen draws a client's requests from the seed. Every client ranks
// the design space by the same seeded permutation, so they share hot
// points, and draws from it with its own stream.
type requestGen struct {
	rng      *rand.Rand
	space    []core.DesignPoint
	rank     []int // Zipf rank -> design index over the whole space
	polRank  []int // Zipf rank -> design index over the b = policyDepth points
	zipf     *rand.Zipf
	polZipf  *rand.Zipf
	bestOnly bool
}

func newRequestGen(p core.Params, seed uint64, client int, bestOnly bool) *requestGen {
	space := core.DesignSpace(p)
	perm := rand.New(rand.NewSource(int64(seed))).Perm(len(space))
	var polRank []int
	for _, i := range perm {
		if space[i].B == policyDepth {
			polRank = append(polRank, i)
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(client) + 1))
	return &requestGen{
		rng:      rng,
		space:    space,
		rank:     perm,
		polRank:  polRank,
		zipf:     rand.NewZipf(rng, 1.1, 1, uint64(len(perm)-1)),
		polZipf:  rand.NewZipf(rng, 1.1, 1, uint64(len(polRank)-1)),
		bestOnly: bestOnly,
	}
}

// next draws the serve-mix request mix: 80% /v1/simulate on the surface,
// 10% /v1/simulate under FIFO or Tree-PLRU (off the surface, so live once
// and then from the overlay), and 10% /v1/best at a fresh L2 time, which
// misses every cache. With bestOnly every request is the last kind.
//
// The mix is an assumption, not a measurement: no request log of the
// service exists, so the class shares, the Zipf(1.1) skew over design
// points and the b = policyDepth pin of the policy class are chosen to
// reach every serving tier, not taken from real traffic.
func (g *requestGen) next() request {
	u := g.rng.Float64()
	switch {
	case g.bestOnly || u >= 0.9:
		body, _ := json.Marshal(server.BestRequest{Loads: "static", L2TimeNs: 25 + 20*g.rng.Float64()})
		return request{class: "best", path: "/v1/best", body: body, point: -1}
	case u < 0.8:
		i := g.rank[g.zipf.Uint64()]
		return request{class: "simulate", path: "/v1/simulate", body: designBody(g.space[i], ""), point: i}
	default:
		pol := []string{"fifo", "plru"}[g.rng.Intn(2)]
		i := g.polRank[g.polZipf.Uint64()]
		return request{class: "policy", path: "/v1/simulate", body: designBody(g.space[i], pol), point: -1}
	}
}

func designBody(dp core.DesignPoint, policy string) []byte {
	b, _ := json.Marshal(server.DesignRequest{
		B: dp.B, L: dp.L, ISizeKW: dp.ISizeKW, DSizeKW: dp.DSizeKW,
		Loads: dp.Scheme.String(), Policy: policy,
	})
	return b
}

// loadClient issues requests over at most n keep-alive connections.
type loadClient struct {
	base string
	hc   *http.Client
}

func newLoadClient(base string, n int) *loadClient {
	return &loadClient{base: base, hc: &http.Client{
		// Far above any answer; it only keeps a wedged server from
		// outlasting the run.
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true,
		},
	}}
}

// post sends one request under a client span and returns the status, the
// body, and the latency from send to the last body byte.
func (c *loadClient) post(tr *tracer, r request) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	id := tr.begin(0, "client.request")
	if id != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		tr.end(id)
		return 0, nil, time.Since(start), err
	}
	body, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	tr.end(id)
	resp.Body.Close()
	return resp.StatusCode, body, d, err
}

func (c *loadClient) close() { c.hc.CloseIdleConnections() }

// exchange is one request and the body it was answered with.
type exchange struct {
	path      string
	req, resp []byte
}

// clientLog is what one client keeps for the output checks: the first
// body of every on-surface point, later bodies of a point that differed
// from it, and a deterministic 1% sample of /v1/best exchanges.
type clientLog struct {
	points   map[int]exchange
	differed int
	best     []exchange
	bests    int
}

func (l *clientLog) remember(r request, body []byte) {
	switch r.class {
	case "simulate":
		if l.points == nil {
			l.points = map[int]exchange{}
		}
		if first, ok := l.points[r.point]; !ok {
			l.points[r.point] = exchange{r.path, r.body, body}
		} else if !bytes.Equal(first.resp, body) {
			l.differed++
		}
	case "best":
		if l.bests%100 == 0 {
			l.best = append(l.best, exchange{r.path, r.body, body})
		}
		l.bests++
	}
}

// httpLoad is the load side both HTTP workloads share: one front end on a
// loopback listener and a few clients, each with its own request stream
// and check log.
type httpLoad struct {
	s      *core.Suite
	ts     *httptest.Server
	client *loadClient
	gens   []*requestGen
	logs   []clientLog
}

func (h *httpLoad) start(e *env, s *core.Suite, front http.Handler, clients int, bestOnly bool) {
	h.s = s
	h.ts = httptest.NewServer(front)
	h.client = newLoadClient(h.ts.URL, clients)
	h.gens, h.logs = nil, make([]clientLog, clients)
	for c := range h.logs {
		h.gens = append(h.gens, newRequestGen(e.params(), e.seed, c, bestOnly))
	}
}

func (h *httpLoad) measure(e *env, window time.Duration) *phase {
	return closedLoop(e, window, len(h.gens), func(client int) (string, time.Duration, error) {
		r := h.gens[client].next()
		status, body, d, err := h.client.post(e.tr, r)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", status, body)
		}
		if err == nil {
			h.logs[client].remember(r, body)
		}
		return r.class, d, err
	})
}

// warm issues one unmeasured request and keeps it for the checks.
func (h *httpLoad) warm(e *env, r request) error {
	status, body, _, err := h.client.post(e.tr, r)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("%s: status %d: %.200s", r.class, status, body)
	}
	if err == nil {
		h.logs[0].remember(r, body)
	}
	return err
}

func (h *httpLoad) check(e *env) (int, int, error) { return checkAgainstOracle(e, h.s, h.logs) }
func (h *httpLoad) suite() *core.Suite             { return h.s }

func (h *httpLoad) stop() {
	if h.ts != nil {
		h.client.close()
		h.ts.Close()
	}
}

// checkAgainstOracle re-issues the distinct on-surface points and the
// sampled /v1/best exchanges against a surface-less single-node server on
// a live-only lab; every body must be byte-identical.
func checkAgainstOracle(e *env, s *core.Suite, logs []clientLog) (int, int, error) {
	p := e.params()
	p.TraceBudgetBytes = -1
	lab, err := core.NewLab(s, p)
	if err != nil {
		return 0, 0, err
	}
	lab.SetObs(obs.NewRegistry())
	if err := lab.Prewarm(); err != nil {
		return 0, 0, err
	}
	srv, err := server.New(lab, server.Config{AccessLog: io.Discard})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	h := srv.Handler()

	var ex []exchange
	failed := 0
	points := map[int]exchange{}
	for _, l := range logs {
		failed += l.differed
		ex = append(ex, l.best...)
		for i, x := range l.points {
			if first, ok := points[i]; !ok {
				points[i] = x
			} else if !bytes.Equal(first.resp, x.resp) {
				failed++
			}
		}
	}
	for _, x := range points {
		ex = append(ex, x)
	}
	for _, x := range ex {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, x.path, bytes.NewReader(x.req)))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), x.resp) {
			failed++
			e.logf("oracle disagrees on %s %s", x.path, x.req)
		}
	}
	return len(ex), failed, nil
}

// serveMix is the design-space service user: one Server answering from a
// surface baked for the full suite, under the seeded request mix.
type serveMix struct {
	httpLoad
	l   *core.Lab
	reg *obs.Registry
	srv *server.Server
}

func (w *serveMix) setup(e *env, span int64) error {
	s, err := e.buildSuite(span)
	if err != nil {
		return err
	}
	p := e.params()
	lab, err := core.NewLab(s, p)
	if err != nil {
		return err
	}
	w.l, w.reg = lab, obs.NewRegistry()
	lab.SetObs(w.reg)
	var enc []byte
	err = e.tr.span(span, "surface.bake", func(int64) error {
		d, err := surface.Bake(context.Background(), lab)
		if err != nil {
			return err
		}
		enc, err = surface.Encode(d)
		return err
	})
	if err != nil {
		return err
	}
	var sf *surface.Surface
	err = e.tr.span(span, "surface.decode", func(int64) error {
		sf, err = surface.Decode(enc)
		return err
	})
	if err != nil {
		return err
	}
	// Both off-surface policy passes, so every request of the mix is warm.
	err = e.tr.span(span, "core.policy_passes", func(int64) error {
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i, pol := range []cache.Policy{cache.PolicyFIFO, cache.PolicyTreePLRU} {
			wg.Add(1)
			go func(i int, pol cache.Policy) {
				defer wg.Done()
				_, errs[i] = lab.StaticPassPolicyContext(context.Background(), policyDepth, pol)
			}(i, pol)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	w.srv, err = server.New(lab, server.Config{Surface: sf, AccessLog: io.Discard})
	if err != nil {
		return err
	}
	w.start(e, s, e.tr.wrap(w.srv.Handler(), "server.handler", true), runtime.NumCPU(), false)
	return nil
}

// warmup issues one request of each class.
func (w *serveMix) warmup(e *env) (int, error) {
	g := newRequestGen(e.params(), e.seed, -1, false)
	seen := map[string]bool{}
	for len(seen) < 3 {
		r := g.next()
		if seen[r.class] {
			continue
		}
		seen[r.class] = true
		if err := w.warm(e, r); err != nil {
			return len(seen), err
		}
	}
	return len(seen), nil
}

func (w *serveMix) registries() []*obs.Registry { return []*obs.Registry{w.reg} }
func (w *serveMix) lab() *core.Lab              { return w.l }

func (w *serveMix) close() {
	w.stop()
	if w.srv != nil {
		w.srv.Close()
	}
	*w = serveMix{}
}

// coordShards is the coordinator's fleet size.
const coordShards = 2

// coordClients is coord-best's client count. One request already keeps
// every core busy: it fans out to coordShards legs, and each shard sweeps
// its sub-range on GOMAXPROCS workers. A second client would only queue
// behind the first, so its latency would time the scheduler's
// interleaving of two fan-outs instead of one request's critical path.
// Ten-seed passes of the median latency spread 24-34% with two clients
// and 7-17% with one (README.md, on the bounds).
const coordClients = 1

// coordBest is the coordinator user: every request is a /v1/best at a
// fresh L2 time, fanned out as sub-range sweeps over in-process shard
// servers (prewarmed, no surface) and merged.
type coordBest struct {
	httpLoad
	labs   []*core.Lab
	regs   []*obs.Registry
	srvs   []*server.Server
	shards []*httptest.Server
	coord  *cluster.Coordinator
}

func (w *coordBest) setup(e *env, span int64) error {
	s, err := e.buildSuite(span)
	if err != nil {
		return err
	}
	p := e.params()
	var urls []string
	for i := 0; i < coordShards; i++ {
		lab, err := core.NewLab(s, p)
		if err != nil {
			return err
		}
		reg := obs.NewRegistry()
		lab.SetObs(reg)
		if err := e.tr.span(span, "core.prewarm", func(int64) error { return lab.Prewarm() }); err != nil {
			return err
		}
		srv, err := server.New(lab, server.Config{AccessLog: io.Discard})
		if err != nil {
			return err
		}
		ts := httptest.NewServer(e.tr.wrap(srv.Handler(), "cluster.shard", false))
		w.labs, w.regs, w.srvs, w.shards = append(w.labs, lab), append(w.regs, reg), append(w.srvs, srv), append(w.shards, ts)
		urls = append(urls, ts.URL)
	}
	cfg := cluster.Config{Shards: urls, Params: p, AccessLog: io.Discard}
	if e.tr != nil {
		cfg.Client = &http.Client{Transport: &legTransport{t: e.tr, base: http.DefaultTransport}}
	}
	w.coord, err = cluster.New(cfg)
	if err != nil {
		return err
	}
	w.regs = append(w.regs, w.coord.Registry())
	w.start(e, s, e.tr.wrap(w.coord.Handler(), "cluster.coordinator", false), coordClients, true)
	return nil
}

func (w *coordBest) warmup(e *env) (int, error) {
	return 1, w.warm(e, newRequestGen(e.params(), e.seed, -1, true).next())
}

func (w *coordBest) registries() []*obs.Registry { return w.regs }
func (w *coordBest) lab() *core.Lab              { return w.labs[0] }

func (w *coordBest) close() {
	w.stop()
	if w.coord != nil {
		w.coord.Close()
	}
	for i, ts := range w.shards {
		ts.Close()
		w.srvs[i].Close()
	}
	*w = coordBest{}
}
