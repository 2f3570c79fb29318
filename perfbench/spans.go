package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the caller's span ID across an HTTP hop, so a
// handler's span names its client's span as its parent.
const spanHeader = "X-Bench-Span"

// spanRec is one recorded span. Times are nanoseconds since the tracer
// started; Parent is 0 for a root.
type spanRec struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer records spans in memory around the benchmark's calls into the
// program, and the bytes of the coordinator's shard legs. A nil tracer, or
// one switched off, records nothing and hands out span ID 0, so untraced
// code paths pay a nil check.
type tracer struct {
	workload string
	epoch    time.Time
	on       atomic.Bool
	mu       sync.Mutex
	spans    []spanRec
	legBytes atomic.Int64
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, epoch: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) setOn(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a span and returns its ID.
func (t *tracer) begin(parent int64, name string) int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, spanRec{ID: id, Parent: parent, Name: name, StartNs: now, EndNs: now, Workload: t.workload})
	return id
}

func (t *tracer) end(id int64) { t.endAs(id, "") }

// endAs closes a span, renaming it when name is non-empty: a handler's
// serving tier is known only once it has answered.
func (t *tracer) endAs(id int64, name string) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.EndNs = now
	if name != "" {
		s.Name = name
	}
}

// span runs f inside a span.
func (t *tracer) span(parent int64, name string, f func(id int64) error) error {
	id := t.begin(parent, name)
	defer t.end(id)
	return f(id)
}

func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	spans := t.snapshot()
	b, err := json.Marshal(struct {
		Workload string    `json:"workload"`
		Spans    []spanRec `json:"spans"`
	}{t.workload, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

type spanKey struct{}

// wrap returns h with a span around each request, parented by the
// request's span header and exposed to h through the request context.
// With byTier the span is named after the X-Cache tier that answered.
func (t *tracer) wrap(h http.Handler, name string, byTier bool) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		id := t.begin(parent, name)
		h.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		if byTier {
			t.endAs(id, name+"."+w.Header().Get("X-Cache"))
		} else {
			t.end(id)
		}
	})
}

// legTransport is the coordinator's shard-facing transport in a traced
// run: each leg is a span, parented by the span its request context
// carries, and its bytes are counted.
type legTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (lt *legTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(int64)
	id := lt.t.begin(parent, "cluster.leg")
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	resp, err := lt.base.RoundTrip(req)
	if err != nil {
		lt.t.end(id)
		return nil, err
	}
	resp.Body = &legBody{ReadCloser: resp.Body, done: func(n int64) {
		lt.t.end(id)
		if id != 0 {
			lt.t.legBytes.Add(n + max(req.ContentLength, 0))
		}
	}}
	return resp, nil
}

// legBody ends its leg's span when the coordinator closes the body.
type legBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *legBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *legBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// adoptOrphans gives each parentless span named child the innermost span
// named parent whose interval contains it: the fallback for a hop whose
// context lost the span.
func adoptOrphans(spans []spanRec, child, parent string) {
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		var best *spanRec
		for j := range spans {
			p := &spans[j]
			if p.Name == parent && p.StartNs <= c.StartNs && c.EndNs <= p.EndNs &&
				(best == nil || p.EndNs-p.StartNs < best.EndNs-best.StartNs) {
				best = p
			}
		}
		if best != nil {
			c.Parent = best.ID
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover; overlapping children count once.
func selfTimes(spans []spanRec) map[int64]int64 {
	kids := map[int64][]spanRec{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.EndNs - s.StartNs - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, each
// clipped to the parent's.
func covered(p spanRec, kids []spanRec) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.StartNs, p.StartNs), min(k.EndNs, p.EndNs)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.lo > end {
			total += v.hi - v.lo
			end = v.hi
		} else if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// labGroups are the span names of the benchmark's Lab calls; each is
// reported as its per-iteration self time, core.<group>_s.
var labGroups = []string{
	"prewarm", "tables", "figures", "sweeps",
	"assoc", "blocksize", "writepolicy", "btbsize", "profile", "quantum", "policy", "twolevel",
}

// spanLayers derives the span-timed per-layer metrics into m; legBytes is
// the traffic of the traced shard legs.
func spanLayers(spans []spanRec, legBytes int64, m map[string]float64) {
	adoptOrphans(spans, "cluster.leg", "cluster.coordinator")
	self := selfTimes(spans)
	byName := map[string][]spanRec{}
	kids := map[int64][]spanRec{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	durs := func(name string, unit float64) float64 {
		var v []float64
		for _, s := range byName[name] {
			v = append(v, float64(s.EndNs-s.StartNs)/unit)
		}
		return median0(v)
	}
	selfs := func(name string, unit float64) float64 {
		var v []float64
		for _, s := range byName[name] {
			v = append(v, float64(self[s.ID])/unit)
		}
		return median0(v)
	}

	perIter := map[string][]float64{}
	for _, it := range byName["bench.iteration"] {
		sums := map[string]float64{}
		for _, k := range kids[it.ID] {
			sums[k.Name] += float64(self[k.ID]) / 1e9
		}
		for _, g := range labGroups {
			perIter[g] = append(perIter[g], sums["core."+g])
		}
	}
	for _, g := range labGroups {
		m["core."+g+"_s"] = median0(perIter[g])
	}

	m["gen.build_suite_s"] = durs("gen.build_suite", 1e9)
	m["surface.bake_s"] = durs("surface.bake", 1e9)
	m["surface.decode_ms"] = durs("surface.decode", 1e6)
	for _, tier := range []string{"surface", "overlay", "miss"} {
		m["server.handler_us."+tier] = durs("server.handler."+tier, 1e3)
	}
	m["client.overhead_us"] = selfs("client.request", 1e3)

	coords := len(byName["cluster.coordinator"])
	if coords > 0 {
		m["cluster.legs_per_request"] = float64(len(byName["cluster.leg"])) / float64(coords)
	}
	if legs := len(byName["cluster.leg"]); legs > 0 {
		m["cluster.leg_kb"] = float64(legBytes) / float64(legs) / 1024
	}
	m["cluster.leg_ms"] = durs("cluster.leg", 1e6)
	m["cluster.shard_ms"] = durs("cluster.shard", 1e6)
	m["cluster.self_ms"] = selfs("cluster.coordinator", 1e6)
}

// median0 is the median, or 0 when a layer saw no samples.
func median0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}
