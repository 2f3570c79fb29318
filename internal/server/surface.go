package server

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"strings"

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
// overlay-and-live fallback.

// bakedSimulate answers /v1/simulate from the surface. A non-empty
// normalized policy names a policy other than the one the surface was
// baked under (the lab's default, part of its params-hash), so those
// requests fall through to the overlay-and-live tiers.
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

// bakedSweepRange answers /v1/sweep-range from the surface: the records
// are stored by DesignIndex in exactly the canonical order the range
// addresses, so the answer is a sequential read. The point math behind the
// stored records is core.Lab.EvalPoint — the same definition the live
// range sweep uses — so the two paths marshal byte-identical bodies.
func (s *Server) bakedSweepRange(req SweepRangeRequest) (any, bool) {
	if req.L2TimeNs != s.lab.P.L2TimeNs || req.Policy != "" {
		return nil, false
	}
	pts := make([]RangePoint, 0, req.Hi-req.Lo)
	for idx := req.Lo; idx < req.Hi; idx++ {
		rec, ok := s.surface.Point(idx)
		if !ok {
			return nil, false
		}
		dp := s.space[idx]
		pts = append(pts, RangePoint{
			Point: SimPoint{
				B: dp.B, L: dp.L, ISizeKW: dp.ISizeKW, DSizeKW: dp.DSizeKW,
				Loads: dp.Scheme.String(), TCPUNs: rec.TCPUNs,
				PenaltyCycles: rec.PenCycles, CPI: rec.CPI, TPINs: rec.TPINs,
			},
			Breakdown: CPIBreakdown{
				Base: rec.Base, BranchStall: rec.BranchStall, LoadStall: rec.LoadStall,
				IMiss: rec.IMiss, DMiss: rec.DMiss,
			},
		})
	}
	return &SweepRangeResponse{Request: req, Points: pts}, true
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

// StrongETag derives the strong entity tag of a response body: the
// truncated hex SHA-256 of the exact bytes served. Baked and live paths
// produce byte-identical bodies, so their tags match by construction, and
// the tag survives server restarts and bake/no-bake deployments alike.
// The coordinator tier derives its tags with the same function, so a
// merged body that matches a single-node body carries the same ETag.
func StrongETag(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:])[:32] + `"`
}

// ETagMatch implements If-None-Match: a wildcard or any listed tag equal
// to etag revalidates.
func ETagMatch(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, c := range strings.Split(header, ",") {
		if strings.TrimSpace(c) == etag {
			return true
		}
	}
	return false
}

// writeBody finishes a successful /v1 response: ETag (with If-None-Match
// revalidation), the cache-provenance header, and the surface identity
// when one is loaded. The trailing newline is part of the served bytes
// and therefore of the differential byte-identity contract.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, body []byte, provenance string) {
	etag := StrongETag(body)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("ETag", etag)
	h.Set("X-Cache", provenance)
	if s.surface != nil {
		h.Set("X-Surface", s.surface.Hash())
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" && ETagMatch(inm, etag) {
		s.reg.Counter("server.requests_not_modified").Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Write(body)
	w.Write([]byte("\n"))
}

// SurfaceInfo is the surface block of /healthz on a surface-backed server.
type SurfaceInfo struct {
	Hash           string `json:"hash"`
	Points         int    `json:"points"`
	SizeBytes      int    `json:"size_bytes"`
	OverlayEntries int    `json:"overlay_entries"`
}

func (s *Server) surfaceInfo() *SurfaceInfo {
	if s.surface == nil {
		return nil
	}
	return &SurfaceInfo{
		Hash:           s.surface.Hash(),
		Points:         s.surface.NumPoints(),
		SizeBytes:      s.surface.Size(),
		OverlayEntries: s.overlay.Len(),
	}
}

// OverlayLen returns the number of backfilled overlay entries (0 without
// a surface); the fallback regression tests assert against it.
func (s *Server) OverlayLen() int {
	if s.overlay == nil {
		return 0
	}
	return s.overlay.Len()
}
