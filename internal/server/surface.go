package server

import "net/http"

// writeBody finishes a successful /v1 response through the shell, adding
// the surface identity when one is loaded.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, body []byte, provenance string) {
	if s.surface != nil {
		w.Header().Set("X-Surface", s.surface.Hash())
	}
	s.shell.WriteBody(w, r, body, provenance)
}

// SurfaceInfo is the surface block of /healthz on a surface-seeded server.
type SurfaceInfo struct {
	Hash      string `json:"hash"`
	Passes    int    `json:"passes"`
	SizeBytes int    `json:"size_bytes"`
}

func (s *Server) surfaceInfo() *SurfaceInfo {
	if s.surface == nil {
		return nil
	}
	return &SurfaceInfo{
		Hash:      s.surface.Hash(),
		Passes:    s.surface.NumPasses(),
		SizeBytes: s.surface.Size(),
	}
}
