package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"pipecache/internal/core"
	"pipecache/internal/cpisim"
)

// routes mounts every endpoint on the mux, each behind instrument.
func (s *Server) routes() {
	s.mux.Handle("POST /v1/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.Handle("POST /v1/best", s.instrument("best", s.handleBest))
	s.mux.Handle("GET /v1/figures/{n}", s.instrument("figures", s.handleFigure))
	s.mux.Handle("GET /v1/tables/{n}", s.instrument("tables", s.handleTable))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
}

// SimPoint is the JSON rendering of one evaluated design point.
type SimPoint struct {
	B             int     `json:"b"`
	L             int     `json:"l"`
	ISizeKW       int     `json:"isize_kw"`
	DSizeKW       int     `json:"dsize_kw"`
	Loads         string  `json:"loads"`
	TCPUNs        float64 `json:"tcpu_ns"`
	PenaltyCycles int     `json:"penalty_cycles"`
	CPI           float64 `json:"cpi"`
	TPINs         float64 `json:"tpi_ns"`
}

func pointJSON(p core.TPIPoint) SimPoint {
	return SimPoint{
		B: p.B, L: p.L, ISizeKW: p.ISizeKW, DSizeKW: p.DSizeKW,
		Loads: p.LoadScheme.String(), TCPUNs: p.TCPUNs,
		PenaltyCycles: p.PenCycles, CPI: p.CPI, TPINs: p.TPINs,
	}
}

// breakdownJSON is the wire form of a core.Breakdown.
func breakdownJSON(bd core.Breakdown) CPIBreakdown {
	return CPIBreakdown{
		Base: bd.Base, BranchStall: bd.BranchStall, LoadStall: bd.LoadStall,
		IMiss: bd.IMiss, DMiss: bd.DMiss,
	}
}

// CPIBreakdown decomposes a design point's CPI into its stall sources; the
// components sum to the point's CPI. IMiss is measured against a miss-free
// machine and DMiss is the remainder, so the (small) I/D miss interaction is
// attributed to the data side.
type CPIBreakdown struct {
	Base        float64 `json:"base"`
	BranchStall float64 `json:"branch_stall"`
	LoadStall   float64 `json:"load_stall"`
	IMiss       float64 `json:"imiss"`
	DMiss       float64 `json:"dmiss"`
}

// SimulateResponse is the body of POST /v1/simulate.
type SimulateResponse struct {
	Request   DesignRequest `json:"request"`
	Point     SimPoint      `json:"point"`
	Breakdown CPIBreakdown  `json:"breakdown"`
}

// BestResponse is the body of POST /v1/best.
type BestResponse struct {
	Request   BestRequest `json:"request"`
	Best      SimPoint    `json:"best"`
	Evaluated int         `json:"evaluated"`
}

// FigureJSON is the body of GET /v1/figures/{n}: one family of curves.
type FigureJSON struct {
	Title  string      `json:"title"`
	XLabel string      `json:"x_label"`
	YLabel string      `json:"y_label"`
	X      []float64   `json:"x"`
	Labels []string    `json:"labels"`
	Y      [][]float64 `json:"y"`
}

func figureJSON(f *core.FigureResult) FigureJSON {
	return FigureJSON{Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel, X: f.X, Labels: f.Labels, Y: f.Y}
}

// TableResponse is the body of GET /v1/tables/{n}: the rendered table.
type TableResponse struct {
	Table int    `json:"table"`
	Text  string `json:"text"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string    `json:"status"`
	Build         BuildInfo `json:"build"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Benchmarks    []string  `json:"benchmarks"`
	Insts         int64     `json:"insts"`
	PassesRun     int64     `json:"passes_run"`
	// Surface identifies the baked surface the server answers from, when
	// one is loaded.
	Surface *SurfaceInfo `json:"surface,omitempty"`
}

// serveCached answers the request from the cheapest tier that has it:
// the baked surface (an index-and-read with zero simulation), then the
// content-addressed result cache and the live compute path — cache hits
// return immediately, concurrent identical requests collapse onto one
// computation, and fresh work competes for a pool slot.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, baked func() (any, bool), compute func(context.Context) (any, error)) {
	if s.surface != nil && baked != nil {
		if v, ok := baked(); ok {
			s.reg.Counter("surface.hits").Inc()
			body, err := json.Marshal(v)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			s.writeBody(w, r, body, "surface")
			return
		}
		s.reg.Counter("surface.misses").Inc()
	}
	body, outcome, err := s.cache.Do(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		var out []byte
		err := s.pool.Run(ctx, func(ctx context.Context) error {
			v, err := compute(ctx)
			if err != nil {
				return err
			}
			b, err := json.Marshal(v)
			out = b
			return err
		})
		return out, err
	})
	if err != nil {
		s.writeComputeError(w, r, err)
		return
	}
	s.writeBody(w, r, body, string(outcome))
}

// writeComputeError maps pipeline failures onto HTTP semantics. Context
// errors are classified by their source: only the caller's own context
// (r.Context(), which carries the client disconnect and the request
// timeout) means the client timed out or went away. A cancellation that the
// caller did not ask for — shutdown, an aborted shared flight, an injected
// fault — reaches a client that is still connected and waiting, so it gets
// an honest 503 with a backoff hint instead of a silently closed
// connection.
func (s *Server) writeComputeError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", strconv.Itoa(s.pool.RetryAfterSeconds()))
		http.Error(w, "all workers busy and queue full; retry later", http.StatusTooManyRequests)
	case isCtxErr(err):
		switch cerr := r.Context().Err(); {
		case cerr != nil && errors.Is(cerr, context.DeadlineExceeded):
			s.reg.Counter("server.requests_timeout").Inc()
			http.Error(w, "request deadline exceeded", http.StatusGatewayTimeout)
		case cerr != nil:
			// The client is gone; there is no one to answer. Account for
			// it and let the connection close.
			s.reg.Counter("server.requests_canceled").Inc()
		default:
			// Server-side abort with a live client: retryable.
			s.reg.Counter("server.requests_aborted").Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.pool.RetryAfterSeconds()))
			http.Error(w, "computation aborted server-side; retry later", http.StatusServiceUnavailable)
		}
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeDesignRequest(r.Body, s.lab.P)
	if err != nil {
		http.Error(w, "bad design request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.serveCached(w, r, RequestKey("simulate", req),
		func() (any, bool) { return s.bakedSimulate(req) },
		func(ctx context.Context) (any, error) {
			return s.simulate(ctx, req)
		})
}

// simulate evaluates one design point and decomposes its CPI. The point
// math lives in core.Lab.EvalPoint, the single definition the surface
// baker shares, so baked and live answers cannot drift.
func (s *Server) simulate(ctx context.Context, req DesignRequest) (*SimulateResponse, error) {
	scheme, err := cpisim.ParseLoadScheme(req.Loads)
	if err != nil {
		return nil, err
	}
	ev, err := s.lab.EvalPoint(ctx, requestQuery(req.L2TimeNs, req.Policy, s.lab.P), core.DesignPoint{
		B: req.B, L: req.L, ISizeKW: req.ISizeKW, DSizeKW: req.DSizeKW, Scheme: scheme,
	})
	if err != nil {
		return nil, err
	}
	return &SimulateResponse{Request: req, Point: pointJSON(ev.Point), Breakdown: breakdownJSON(ev.Breakdown)}, nil
}

func (s *Server) handleBest(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeBestRequest(r.Body, s.lab.P)
	if err != nil {
		http.Error(w, "bad optimization request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.serveCached(w, r, RequestKey("best", req),
		func() (any, bool) { return s.bakedBest(req) },
		func(ctx context.Context) (any, error) {
			scheme, err := cpisim.ParseLoadScheme(req.Loads)
			if err != nil {
				return nil, err
			}
			opt, err := s.lab.Best(ctx, requestQuery(req.L2TimeNs, req.Policy, s.lab.P), scheme, req.Symmetric)
			if err != nil {
				return nil, err
			}
			return &BestResponse{Request: req, Best: pointJSON(opt.Best), Evaluated: opt.Evaluated}, nil
		})
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n := r.PathValue("n")
	penalty := 10
	if q := r.URL.Query().Get("penalty"); q != "" {
		p, err := strconv.Atoi(q)
		if err != nil || p < 1 || p > 1000 {
			http.Error(w, "penalty must be an integer in 1..1000", http.StatusBadRequest)
			return
		}
		penalty = p
	}
	var compute func(context.Context) (any, error)
	switch n {
	case "11":
		compute = func(ctx context.Context) (any, error) {
			f, err := s.lab.Figure11Context(ctx, penalty)
			if err != nil {
				return nil, err
			}
			return figureJSON(f), nil
		}
	case "12":
		compute = func(ctx context.Context) (any, error) {
			f, err := s.lab.Figure12Context(ctx)
			if err != nil {
				return nil, err
			}
			return figureJSON(f), nil
		}
	case "13":
		compute = func(ctx context.Context) (any, error) {
			f, err := s.lab.Figure13Context(ctx)
			if err != nil {
				return nil, err
			}
			return figureJSON(f), nil
		}
	default:
		http.Error(w, "unknown figure (serving 11, 12, 13)", http.StatusNotFound)
		return
	}
	s.serveCached(w, r, RequestKey("figures", map[string]any{"n": n, "penalty": penalty}),
		func() (any, bool) { return s.bakedFigure(n, penalty) },
		compute)
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 1 || n > 6 {
		http.Error(w, "unknown table (serving 1-6)", http.StatusNotFound)
		return
	}
	s.serveCached(w, r, RequestKey("tables", map[string]int{"n": n}),
		func() (any, bool) { return s.bakedTable(n) },
		func(ctx context.Context) (any, error) {
			var v fmt.Stringer
			var terr error
			switch n {
			case 1:
				v, terr = s.lab.Table1()
			case 2:
				v, terr = s.lab.Table2()
			case 3:
				v, terr = s.lab.Table3()
			case 4:
				v, terr = s.lab.Table4()
			case 5:
				v, terr = s.lab.Table5()
			case 6:
				v, terr = s.lab.Table6()
			}
			if terr != nil {
				return nil, terr
			}
			return TableResponse{Table: n, Text: v.String()}, nil
		})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	names := make([]string, 0, len(s.lab.Suite.Progs))
	for _, p := range s.lab.Suite.Progs {
		names = append(names, p.Name)
	}
	resp := HealthResponse{
		Status:        "ok",
		Build:         s.build,
		UptimeSeconds: s.reg.UptimeGauge("server.uptime_seconds", s.start),
		Benchmarks:    names,
		Insts:         s.lab.P.Insts,
		PassesRun:     s.reg.Counter("lab.passes_run").Value(),
		Surface:       s.surfaceInfo(),
	}
	writeJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.UptimeGauge("server.uptime_seconds", s.start)
	w.Header().Set("Content-Type", "application/json")
	if err := s.reg.Snapshot().WriteJSON(w); err != nil {
		s.log.Printf("metrics export: %v", err)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
