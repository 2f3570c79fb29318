package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"pipecache/internal/cache"
	"pipecache/internal/core"
	"pipecache/internal/cpisim"
)

// maxRequestBody bounds a request body; design-point requests are tiny, so
// anything larger is hostile or corrupt.
const maxRequestBody = 1 << 16

// DesignRequest is the body of POST /v1/simulate: one design point of the
// Section 5 analysis. Zero-valued optional fields take the lab's defaults
// during normalization, so two requests that spell the same design point
// differently share one cache entry.
type DesignRequest struct {
	// B and L are the branch and load delay slot counts (the pipeline
	// depths of the L1-I and L1-D accesses).
	B int `json:"b"`
	L int `json:"l"`
	// ISizeKW and DSizeKW are the per-side cache sizes in K-words; they
	// must be members of the lab's configured size bank.
	ISizeKW int `json:"isize_kw"`
	DSizeKW int `json:"dsize_kw"`
	// Loads selects the load-delay hiding scheme: "static" (default) or
	// "dynamic".
	Loads string `json:"loads,omitempty"`
	// L2TimeNs overrides the constant-time L1 miss service; 0 means the
	// lab's default.
	L2TimeNs float64 `json:"l2_time_ns,omitempty"`
	// Policy overrides the cache replacement policy ("lru", "fifo",
	// "plru"); empty means the lab's default. Normalization collapses an
	// explicit spelling of the default back to "", so pre-policy request
	// bodies and cache keys are unchanged.
	Policy string `json:"policy,omitempty"`
}

// BestRequest is the body of POST /v1/best: a design-space optimization
// over every (b, l, I-size, D-size) combination.
type BestRequest struct {
	// Loads selects the load-delay hiding scheme: "static" (default) or
	// "dynamic".
	Loads string `json:"loads,omitempty"`
	// Symmetric restricts the search to b = l designs with an equal split.
	Symmetric bool `json:"symmetric,omitempty"`
	// L2TimeNs overrides the constant-time L1 miss service; 0 means the
	// lab's default.
	L2TimeNs float64 `json:"l2_time_ns,omitempty"`
	// Policy overrides the cache replacement policy; see DesignRequest.
	Policy string `json:"policy,omitempty"`
}

// decodeJSON strictly decodes one JSON value from r into v: unknown fields,
// trailing data, and oversized bodies are errors, so malformed requests fail
// fast instead of silently simulating the wrong design point.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// More reports false before a stray '}' or ']', so only io.EOF from the
	// next token proves the body held exactly one value.
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// DecodeDesignRequest parses and validates a /v1/simulate body against the
// lab's parameters, returning the normalized (default-applied) request.
func DecodeDesignRequest(r io.Reader, p core.Params) (DesignRequest, error) {
	var req DesignRequest
	if err := decodeJSON(r, &req); err != nil {
		return req, err
	}
	return req.normalize(p)
}

// normalize applies the lab defaults and validates every field.
func (q DesignRequest) normalize(p core.Params) (DesignRequest, error) {
	var err error
	if q.Loads, err = normalizeLoads(q.Loads); err != nil {
		return q, err
	}
	if q.L2TimeNs, q.Policy, err = normalizeQuery(q.L2TimeNs, q.Policy, p); err != nil {
		return q, err
	}
	if q.B < 0 || q.B > 3 || q.L < 0 || q.L > 3 {
		return q, fmt.Errorf("delay slots b=%d l=%d out of the studied range 0-3", q.B, q.L)
	}
	if !inBank(q.ISizeKW, p.SizesKW) {
		return q, fmt.Errorf("isize_kw %d not in the configured bank %v", q.ISizeKW, p.SizesKW)
	}
	if !inBank(q.DSizeKW, p.SizesKW) {
		return q, fmt.Errorf("dsize_kw %d not in the configured bank %v", q.DSizeKW, p.SizesKW)
	}
	return q, nil
}

// normalizeLoads applies the static default to a request's loads field
// and canonicalizes its spelling, so "STATIC", "static" and an omitted
// field share one content-addressed key and marshal byte-identical bodies.
func normalizeLoads(s string) (string, error) {
	if s == "" {
		return cpisim.LoadStatic.String(), nil
	}
	scheme, err := cpisim.ParseLoadScheme(s)
	if err != nil {
		return s, err
	}
	return scheme.String(), nil
}

// normalizeQuery normalizes the two core.Query coordinates every request
// carries. A zero l2_time_ns takes the lab's default, and the result is
// range-checked by core.ValidateL2TimeNs, the check the lab's own entry
// points make. An empty policy keeps meaning "the lab's policy", and an explicit
// spelling of the lab's own policy collapses back to "", so two requests
// naming the same effective policy share one content-addressed key and
// marshal byte-identical bodies — and a pre-policy request keeps its
// pre-policy key.
func normalizeQuery(l2TimeNs float64, policy string, p core.Params) (float64, string, error) {
	if l2TimeNs == 0 {
		l2TimeNs = p.L2TimeNs
	}
	if err := core.ValidateL2TimeNs(l2TimeNs); err != nil {
		return l2TimeNs, policy, err
	}
	if strings.TrimSpace(policy) == "" {
		return l2TimeNs, "", nil
	}
	pol, err := cache.ParsePolicy(strings.ToLower(strings.TrimSpace(policy)))
	if err != nil {
		return l2TimeNs, policy, err
	}
	if pol == p.Policy {
		return l2TimeNs, "", nil
	}
	return l2TimeNs, pol.String(), nil
}

// requestQuery resolves a normalized request's l2_time_ns and policy
// fields to the core.Query the compute path runs: an empty policy is the
// lab default. The policy was validated during normalization, so a parse
// failure here is a programming error.
func requestQuery(l2TimeNs float64, policy string, p core.Params) core.Query {
	q := core.Query{L2TimeNs: l2TimeNs, Policy: p.Policy}
	if policy != "" {
		pol, err := cache.ParsePolicy(policy)
		if err != nil {
			panic(fmt.Sprintf("server: un-normalized policy %q: %v", policy, err))
		}
		q.Policy = pol
	}
	return q
}

// DecodeBestRequest parses and validates a /v1/best body, returning the
// normalized request.
func DecodeBestRequest(r io.Reader, p core.Params) (BestRequest, error) {
	var req BestRequest
	if err := decodeJSON(r, &req); err != nil {
		return req, err
	}
	return req.normalize(p)
}

func (q BestRequest) normalize(p core.Params) (BestRequest, error) {
	var err error
	if q.Loads, err = normalizeLoads(q.Loads); err != nil {
		return q, err
	}
	q.L2TimeNs, q.Policy, err = normalizeQuery(q.L2TimeNs, q.Policy, p)
	return q, err
}

func inBank(size int, bank []int) bool {
	for _, s := range bank {
		if s == size {
			return true
		}
	}
	return false
}

// ReportRequest is a validated GET /v1/figures/{n} or /v1/tables/{n}.
type ReportRequest struct {
	Figure  bool
	N       int
	Penalty int // figures only: the Figure 11 miss penalty in cycles
}

// ParseReportRequest validates a figure (figure true) or table request,
// for the server and the coordinator alike. A figure's penalty is checked
// before its number, so a request wrong on both counts gets the same 400
// from every tier. On a bad request it returns the status and message to
// answer with; status is 0 for a valid one.
func ParseReportRequest(r *http.Request, figure bool) (q ReportRequest, status int, msg string) {
	n := r.PathValue("n")
	if !figure {
		t, err := strconv.Atoi(n)
		if err != nil || t < 1 || t > 6 {
			return q, http.StatusNotFound, "unknown table (serving 1-6)"
		}
		return ReportRequest{N: t}, 0, ""
	}
	q = ReportRequest{Figure: true, Penalty: 10}
	if v := r.URL.Query().Get("penalty"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 1 || p > 1000 {
			return q, http.StatusBadRequest, "penalty must be an integer in 1..1000"
		}
		q.Penalty = p
	}
	switch n {
	case "11", "12", "13":
		q.N, _ = strconv.Atoi(n)
		return q, 0, ""
	}
	return q, http.StatusNotFound, "unknown figure (serving 11, 12, 13)"
}

// Key is the request's content address (see RequestKey).
func (q ReportRequest) Key() string {
	if q.Figure {
		return RequestKey("figures", map[string]any{"n": strconv.Itoa(q.N), "penalty": q.Penalty})
	}
	return RequestKey("tables", map[string]int{"n": q.N})
}

// Path is the request's canonical path, the one the coordinator forwards.
func (q ReportRequest) Path() string {
	if q.Figure {
		return "/v1/figures/" + strconv.Itoa(q.N) + "?penalty=" + strconv.Itoa(q.Penalty)
	}
	return "/v1/tables/" + strconv.Itoa(q.N)
}

// RequestKey derives the content address of one request: the endpoint name
// plus the canonical JSON of the normalized request, hashed with SHA-256.
// encoding/json marshals struct fields in declaration order, so the
// marshaled form of a normalized request is canonical by construction. The
// coordinator tier (internal/cluster) derives the same key from the same
// normalized request, so its consistent-hash routing keeps each shard's
// result cache hot on exactly the keys that shard already answered.
func RequestKey(endpoint string, v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Requests are plain structs of scalars; marshaling cannot fail.
		panic(fmt.Sprintf("server: marshaling %s cache key: %v", endpoint, err))
	}
	h := sha256.New()
	io.WriteString(h, endpoint)
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil))
}
