// Package server exposes a core.Lab over HTTP/JSON: the `pipecache serve`
// subsystem. Design-space queries (single design points, TPI optimizations,
// the paper's figures and tables) arrive as requests, run through a bounded
// worker pool, and are memoized in a content-addressed result cache —
// simulation passes are deterministic and expensive, so identical requests
// are answered from the cache (or collapsed onto an in-flight computation)
// instead of re-running cacheSIM.
//
// Robustness properties:
//
//   - every request carries a context; client disconnects and the
//     configured request timeout cancel in-flight simulation sweeps down in
//     the core.Lab pass loop;
//   - admission control: when every worker is busy and the queue is full
//     the server answers 429 with Retry-After rather than queueing
//     unboundedly;
//   - graceful drain: ListenAndServe shuts down via http.Server.Shutdown
//     when its context is cancelled (the CLI wires SIGINT/SIGTERM to it),
//     letting in-flight requests finish;
//   - observability: request counters, per-endpoint latency histograms, and
//     cache hit/miss/singleflight counters join the lab's own metric
//     families in one registry, exported at /metrics.
package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"pipecache/internal/core"
	"pipecache/internal/obs"
	"pipecache/internal/surface"
)

// Config tunes the server; zero values take the documented defaults.
type Config struct {
	// Addr is the listen address (default ":8080").
	Addr string
	// RequestTimeout bounds each request's context; 0 disables the
	// deadline (client disconnects still cancel).
	RequestTimeout time.Duration
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueCap is the pending-task queue bound; 0 means the default
	// (2×Workers), negative means no queue at all (a request is admitted
	// only when a worker is idle).
	QueueCap int
	// CacheEntries bounds the content-addressed result cache (default 512).
	CacheEntries int
	// ShutdownGrace bounds the drain on shutdown (default 30s).
	ShutdownGrace time.Duration
	// AccessLog receives one structured line per request (default
	// os.Stderr; io.Discard silences it).
	AccessLog io.Writer
	// Surface is an optional baked design-space surface (see
	// internal/surface): when set, the /v1 endpoints answer from it as
	// O(1) lookups, falling back to the result cache and live simulation
	// for anything outside the baked space. New rejects a surface baked
	// for a different lab.
	Surface *surface.Surface
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueCap == 0 {
		c.QueueCap = 2 * c.Workers
	} else if c.QueueCap < 0 {
		c.QueueCap = 0
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 512
	}
	if c.ShutdownGrace <= 0 {
		c.ShutdownGrace = 30 * time.Second
	}
	if c.AccessLog == nil {
		c.AccessLog = os.Stderr
	}
	return c
}

// Server serves a Lab's design space over HTTP. Build with New, mount
// Handler (or run ListenAndServe), and Close when done.
type Server struct {
	lab     *core.Lab
	cfg     Config
	reg     *obs.Registry
	cache   *ResultCache
	pool    *Pool
	shell   *Shell
	build   BuildInfo
	surface *surface.Surface // nil when serving live-only
}

// New wraps lab with the HTTP service. The server shares the lab's metric
// registry (attaching a fresh one if the lab has none) so /metrics exports
// the simulation and server families together.
func New(lab *core.Lab, cfg Config) (*Server, error) {
	if lab == nil {
		return nil, fmt.Errorf("server: nil lab")
	}
	cfg = cfg.withDefaults()
	reg := lab.Obs()
	if reg == nil {
		reg = obs.NewRegistry()
		lab.SetObs(reg)
	}
	s := &Server{
		lab:   lab,
		cfg:   cfg,
		reg:   reg,
		cache: NewResultCache(cfg.CacheEntries, reg),
		pool:  NewPool(cfg.Workers, cfg.QueueCap, reg),
		shell: NewShell("server", reg, cfg.AccessLog, cfg.RequestTimeout),
		build: VersionInfo(),
	}
	if cfg.Surface != nil {
		if err := validateSurface(cfg.Surface, lab); err != nil {
			return nil, err
		}
		s.surface = cfg.Surface
	}
	s.routes()
	return s, nil
}

// validateSurface refuses a surface that was baked for a different design
// space: the params hash must match the lab's fingerprint and the point
// section must cover the lab's enumeration exactly. Serving a mismatched
// surface would silently return another experiment's numbers.
func validateSurface(sf *surface.Surface, lab *core.Lab) error {
	want := surface.HashParams(core.Fingerprint(lab.Suite, lab.P))
	if sf.ParamsHash() != want {
		return fmt.Errorf("server: surface %s was baked for a different lab (params hash mismatch); rebake with matching -insts/-benchmarks", sf.Hash()[:12])
	}
	if n := len(core.DesignSpace(lab.P)); sf.NumPoints() != n {
		return fmt.Errorf("server: surface has %d points, lab's design space has %d", sf.NumPoints(), n)
	}
	return nil
}

// Registry returns the shared metric registry.
func (s *Server) Registry() *obs.Registry { return s.reg }

// PoolInflight returns the number of worker-pool tasks admitted but not yet
// released; the chaos suite asserts it drains to zero once the server idles.
func (s *Server) PoolInflight() int { return s.pool.Inflight() }

// CacheInflight returns the number of unresolved result-cache singleflights;
// a nonzero value on an idle server means a poisoned key.
func (s *Server) CacheInflight() int { return s.cache.InflightLen() }

// Handler returns the full middleware-wrapped handler.
func (s *Server) Handler() http.Handler { return s.shell.Handler() }

// Close releases the worker pool. Call after the HTTP server has stopped.
func (s *Server) Close() { s.pool.Close() }

// ListenAndServe serves on the configured address until ctx is cancelled,
// then drains gracefully. The CLI cancels ctx on SIGINT/SIGTERM.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve accepts connections from ln until ctx is cancelled, then drains
// gracefully: the listener closes, in-flight requests get ShutdownGrace to
// finish (http.Server.Shutdown), and only then does the worker pool shut
// down.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.shell.Logf("serving on %s (workers=%d queue=%d cache=%d)",
		ln.Addr(), s.cfg.Workers, s.cfg.QueueCap, s.cfg.CacheEntries)
	return s.shell.Serve(ctx, ln, s.cfg.ShutdownGrace, s.Close)
}
