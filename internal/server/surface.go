package server

import (
	"net/http"

	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/surface"
)

// The baked lookup functions reconstruct exactly the structs the live
// compute paths produce, from records the baker stored bit-exactly, so
// json.Marshal emits byte-identical bodies on both paths — the contract
// the differential tier (internal/surface/diff_test.go) pins. Each
// returns ok=false when the request lies outside the baked space (custom
// L2 time, un-baked figure penalty), which routes the request to the
// result cache and live compute.

// bakedSimulate answers /v1/simulate from the surface. A non-empty
// normalized policy names a policy other than the one the surface was
// baked under (the lab's default, part of its params-hash), so those
// requests fall through to the result cache and live compute.
func (s *Server) bakedSimulate(req DesignRequest) (any, bool) {
	if req.L2TimeNs != s.lab.P.L2TimeNs || req.Policy != "" {
		return nil, false
	}
	scheme, err := cpisim.ParseLoadScheme(req.Loads)
	if err != nil {
		return nil, false
	}
	idx := core.DesignIndex(s.lab.P, core.DesignPoint{
		B: req.B, L: req.L, ISizeKW: req.ISizeKW, DSizeKW: req.DSizeKW, Scheme: scheme,
	})
	if idx < 0 {
		return nil, false
	}
	rec, ok := s.surface.Point(idx)
	if !ok {
		return nil, false
	}
	return &SimulateResponse{
		Request: req,
		Point: SimPoint{
			B: req.B, L: req.L, ISizeKW: req.ISizeKW, DSizeKW: req.DSizeKW,
			Loads: scheme.String(), TCPUNs: rec.TCPUNs,
			PenaltyCycles: rec.PenCycles, CPI: rec.CPI, TPINs: rec.TPINs,
		},
		Breakdown: CPIBreakdown{
			Base: rec.Base, BranchStall: rec.BranchStall, LoadStall: rec.LoadStall,
			IMiss: rec.IMiss, DMiss: rec.DMiss,
		},
	}, true
}

// bakedBest answers /v1/best from the surface.
func (s *Server) bakedBest(req BestRequest) (any, bool) {
	if req.L2TimeNs != s.lab.P.L2TimeNs || req.Policy != "" {
		return nil, false
	}
	scheme, err := cpisim.ParseLoadScheme(req.Loads)
	if err != nil {
		return nil, false
	}
	rec, ok := s.surface.Best(uint8(scheme), req.Symmetric)
	if !ok {
		return nil, false
	}
	return &BestResponse{
		Request: req,
		Best: SimPoint{
			B: rec.B, L: rec.L, ISizeKW: rec.ISizeKW, DSizeKW: rec.DSizeKW,
			Loads: cpisim.LoadScheme(rec.Scheme).String(), TCPUNs: rec.TCPUNs,
			PenaltyCycles: rec.PenCycles, CPI: rec.CPI, TPINs: rec.TPINs,
		},
		Evaluated: rec.Evaluated,
	}, true
}

// bakedFigure answers /v1/figures/{n} from the surface.
func (s *Server) bakedFigure(n string, penalty int) (any, bool) {
	f, ok := s.surface.Figure(surface.FigureKey(n, penalty))
	if !ok {
		return nil, false
	}
	return FigureJSON{
		Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel,
		X: f.X, Labels: f.Labels, Y: f.Y,
	}, true
}

// bakedTable answers /v1/tables/{n} from the surface.
func (s *Server) bakedTable(n int) (any, bool) {
	text, ok := s.surface.Table(n)
	if !ok {
		return nil, false
	}
	return TableResponse{Table: n, Text: text}, true
}

// writeBody finishes a successful /v1 response through the shell, adding
// the surface identity when one is loaded.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, body []byte, provenance string) {
	if s.surface != nil {
		w.Header().Set("X-Surface", s.surface.Hash())
	}
	s.shell.WriteBody(w, r, body, provenance)
}

// SurfaceInfo is the surface block of /healthz on a surface-backed server.
type SurfaceInfo struct {
	Hash      string `json:"hash"`
	Points    int    `json:"points"`
	SizeBytes int    `json:"size_bytes"`
}

func (s *Server) surfaceInfo() *SurfaceInfo {
	if s.surface == nil {
		return nil
	}
	return &SurfaceInfo{
		Hash:      s.surface.Hash(),
		Points:    s.surface.NumPoints(),
		SizeBytes: s.surface.Size(),
	}
}
