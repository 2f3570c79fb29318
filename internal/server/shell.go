package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"log"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"pipecache/internal/obs"
)

// Shell is the HTTP plumbing both serving tiers share: a route mux whose
// every endpoint is instrumented, the strong-ETag body writer with its
// If-None-Match revalidation, the /metrics export, and the graceful
// drain in Serve. The backend Server and the cluster coordinator each own
// one; they differ only in the metric-name prefix ("server" or
// "cluster") and in the per-request deadline.
type Shell struct {
	reg     *obs.Registry
	log     *log.Logger
	timeout time.Duration
	start   time.Time
	mux     *http.ServeMux
	prefix  string

	// Resolved once, so a request builds no metric name.
	requests    *obs.Counter
	panics      *obs.Counter
	notModified *obs.Counter
	status      [10]string // "<prefix>.status.Nxx", indexed by code/100
	uptime      string
}

// NewShell returns a shell whose metrics are named under prefix in reg,
// whose access log goes to accessLog, and whose requests each carry a
// timeout deadline (0 leaves only the client's own cancellation). GET
// /metrics is mounted already.
func NewShell(prefix string, reg *obs.Registry, accessLog io.Writer, timeout time.Duration) *Shell {
	h := &Shell{
		reg:         reg,
		log:         log.New(accessLog, "", log.LstdFlags|log.Lmicroseconds),
		timeout:     timeout,
		start:       time.Now(),
		mux:         http.NewServeMux(),
		prefix:      prefix,
		requests:    reg.Counter(prefix + ".requests"),
		panics:      reg.Counter(prefix + ".panics"),
		notModified: reg.Counter(prefix + ".requests_not_modified"),
		uptime:      prefix + ".uptime_seconds",
	}
	for i := range h.status {
		h.status[i] = prefix + ".status." + strconv.Itoa(i) + "xx"
	}
	h.Handle("GET /metrics", "metrics", h.serveMetrics)
	return h
}

// Handler returns the instrumented mux.
func (h *Shell) Handler() http.Handler { return h.mux }

// Logf writes one line to the access log.
func (h *Shell) Logf(format string, args ...any) { h.log.Printf(format, args...) }

// Uptime publishes the seconds since the shell was built into the
// "<prefix>.uptime_seconds" gauge and returns them.
func (h *Shell) Uptime() float64 {
	return h.reg.UptimeGauge(h.uptime, h.start)
}

// statusWriter records the status code and body size a handler produced.
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

// Handle mounts fn at pattern behind the shell's cross-cutting concerns:
// request counting, the per-endpoint latency histogram, the request
// deadline, panic recovery, status-class counting, and access logging.
// name labels the endpoint's metrics.
func (h *Shell) Handle(pattern, name string, fn http.HandlerFunc) {
	reqs := h.reg.Counter(h.prefix + ".req." + name)
	latency := h.reg.Histogram(h.prefix+".latency_seconds."+name, obs.LatencyBounds()...)
	h.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqs.Inc()
		h.requests.Inc()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		if h.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), h.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		defer func() {
			if p := recover(); p != nil {
				h.panics.Inc()
				h.log.Printf("panic in %s %s: %v", r.Method, r.URL.Path, p)
				if sw.code == 0 {
					http.Error(sw, "internal error", http.StatusInternalServerError)
				}
			}
			elapsed := time.Since(start)
			latency.Observe(elapsed.Seconds())
			code := sw.code
			if code == 0 {
				code = http.StatusOK
			}
			h.reg.Counter(h.status[code/100]).Inc()
			h.log.Printf("%s %s %d %dB %s", r.Method, r.URL.Path, code, sw.bytes, elapsed.Round(time.Microsecond))
		}()
		fn(sw, r)
	}))
}

// strongETag derives the strong entity tag of a response body: the
// truncated hex SHA-256 of the exact bytes served. Seeded and live labs
// produce byte-identical bodies, and the coordinator relays a shard's
// body through the same WriteBody, so every tier's tag for one answer
// matches, across restarts and bake/no-bake deployments alike.
func strongETag(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:])[:32] + `"`
}

// etagMatch implements If-None-Match: a wildcard or any listed tag that
// matches etag under the weak comparison RFC 9110 §13.1.2 requires
// (opaque tags equal, either tag's W/ prefix ignored) revalidates.
func etagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, c := range strings.Split(header, ",") {
		if strings.TrimPrefix(strings.TrimSpace(c), "W/") == etag {
			return true
		}
	}
	return false
}

// WriteBody finishes a successful /v1 response: the strong ETag of body,
// a 304 when If-None-Match names it, and the X-Cache provenance header.
// The trailing newline is part of the served bytes and therefore of the
// differential byte-identity contract.
func (h *Shell) WriteBody(w http.ResponseWriter, r *http.Request, body []byte, provenance string) {
	etag := strongETag(body)
	hd := w.Header()
	hd.Set("Content-Type", "application/json")
	hd.Set("ETag", etag)
	hd.Set("X-Cache", provenance)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, etag) {
		h.notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Write(body)
	w.Write([]byte("\n"))
}

// serveMetrics exports the registry snapshot with a fresh uptime gauge.
func (h *Shell) serveMetrics(w http.ResponseWriter, r *http.Request) {
	h.Uptime()
	w.Header().Set("Content-Type", "application/json")
	if err := h.reg.Snapshot().WriteJSON(w); err != nil {
		h.log.Printf("metrics export: %v", err)
	}
}

// Serve accepts connections from ln until ctx is cancelled, then drains
// gracefully: the listener closes, in-flight requests get grace to finish
// (http.Server.Shutdown), and only then does release run. release also
// runs when the listener fails.
func (h *Shell) Serve(ctx context.Context, ln net.Listener, grace time.Duration, release func()) error {
	hs := &http.Server{Handler: h.mux}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		release()
		return err
	case <-ctx.Done():
	}
	h.log.Printf("shutdown: draining in-flight requests (grace %s)", grace)
	sctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	err := hs.Shutdown(sctx)
	release()
	if serr := <-errc; serr != nil && serr != http.ErrServerClosed {
		return serr
	}
	return err
}
