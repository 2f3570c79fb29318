package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"math"
	"os"
	"runtime"
	"strings"

	"pipecache/internal/obs"
	"pipecache/internal/server"
)

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json, which adds each metric's direction (and bound).
type metricDef struct{ name, unit string }

// endToEnd is reported by every untraced run, whatever the workload: an
// operation is one iteration of a batch workload or one request of an HTTP
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer is reported by every traced run. A metric of a layer the
// workload does not exercise reads 0.
var perLayer = []metricDef{
	{"gen.build_suite_s", "s"},
	{"interp.live_ns_per_inst", "ns"},
	{"interp.live_passes", "count"},
	{"interp.minsts_per_s", "M/s"},
	{"trace.capture_overhead", "ratio"},
	{"trace.store_hit_ratio", "ratio"},
	{"trace.store_mb", "MB"},
	{"cpisim.plan_compile_s", "s"},
	{"cpisim.replay_ns_per_inst.dm", "ns"},
	{"cpisim.replay_ns_per_inst.assoc", "ns"},
	{"cpisim.replay_ns_per_inst.fifo", "ns"},
	{"cpisim.replay_ns_per_inst.plru", "ns"},
	{"cpisim.replay_ns_per_inst.btb", "ns"},
	{"cpisim.replay_ns_per_inst.l2", "ns"},
	{"cpisim.sharded_ratio", "ratio"},
	{"cpisim.pass_s", "s"},
	{"cpisim.passes", "count"},
	{"cpisim.replays", "count"},
	{"cache.probe_ns_per_config.packed", "ns"},
	{"cache.probe_ns_per_config.general", "ns"},
	{"cache.probe_ns_per_config.fifo", "ns"},
	{"cache.probe_ns_per_config.plru", "ns"},
	{"cache.probes", "count"},
	{"btb.lookups", "count"},
	{"timing.tcpu_split_us", "us"},
	{"core.best_design_ms", "ms"},
	{"core.tpi_points", "count"},
	{"core.memo_hit_ratio", "ratio"},
	{"core.prewarm_s", "s"},
	{"core.tables_s", "s"},
	{"core.figures_s", "s"},
	{"core.sweeps_s", "s"},
	{"core.assoc_s", "s"},
	{"core.blocksize_s", "s"},
	{"core.writepolicy_s", "s"},
	{"core.btbsize_s", "s"},
	{"core.profile_s", "s"},
	{"core.quantum_s", "s"},
	{"core.policy_s", "s"},
	{"core.twolevel_s", "s"},
	{"surface.bake_s", "s"},
	{"surface.decode_ms", "ms"},
	{"surface.hit_ratio", "ratio"},
	{"surface.overlay_hit_ratio", "ratio"},
	{"server.handler_us.surface", "us"},
	{"server.handler_us.overlay", "us"},
	{"server.handler_us.miss", "us"},
	{"server.decode_us", "us"},
	{"server.key_us", "us"},
	{"server.encode_us", "us"},
	{"server.rejected", "count"},
	{"client.overhead_us", "us"},
	{"cluster.legs_per_request", "count"},
	{"cluster.leg_ms", "ms"},
	{"cluster.shard_ms", "ms"},
	{"cluster.leg_kb", "KB"},
	{"cluster.self_ms", "ms"},
	{"cluster.hedges", "count"},
	{"obs.trace_overhead", "ratio"},
}

// metricValues attaches the units of defs to the measured values. A value
// that was not measured, or could not be (no operation completed), reads
// 0: JSON has no NaN.
func metricValues(defs []metricDef, m map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := m[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{v, d.unit}
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out stores it: its result plus what it ran on.
type record struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Traced     bool               `json:"traced"`
	Seconds    float64            `json:"seconds"`
	Nproc      int                `json:"nproc"`
	Gomaxprocs int                `json:"gomaxprocs"`
	Build      server.BuildInfo   `json:"build"`
	Samples    map[string]int     `json:"samples"`
	Detail     map[string]float64 `json:"detail"`
	Result     result             `json:"result"`
}

func newRecord(e *env) *record {
	return &record{
		Workload:   e.name,
		Seed:       e.seed,
		Traced:     e.tr != nil,
		Seconds:    e.window.Seconds(),
		Nproc:      runtime.NumCPU(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		Build:      server.VersionInfo(),
	}
}

// recordFile is the -out file: every run appended to it.
type recordFile struct {
	Runs []*record `json:"runs"`
}

func readRecords(path string) (*recordFile, error) {
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &recordFile{}, nil
	}
	if err != nil {
		return nil, err
	}
	var f recordFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, err
	}
	return &f, nil
}

func appendRecord(path string, rec *record) error {
	f, err := readRecords(path)
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// counters sums the counters, gauges, and histogram counts and sums of a
// set of registries.
func counters(regs []*obs.Registry) map[string]float64 {
	c := map[string]float64{}
	for _, r := range regs {
		s := r.Snapshot()
		for k, v := range s.Counters {
			c[k] += float64(v)
		}
		for k, v := range s.Gauges {
			c[k] += v
		}
		for k, h := range s.Histograms {
			c[k+".count"] += float64(h.Count)
			c[k+".sum"] += h.Sum
		}
	}
	return c
}

// counterLayers derives the counter-based per-layer metrics from the
// registries' deltas over the traced window; counts are per operation.
func counterLayers(before, after map[string]float64, ph *phase) map[string]float64 {
	d := func(names ...string) float64 {
		var s float64
		for _, n := range names {
			s += after[n] - before[n]
		}
		return s
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ops := float64(len(ph.ops))
	var probes float64
	for k := range after {
		if strings.HasPrefix(k, "cache.") && strings.HasSuffix(k, ".probes") {
			probes += d(k)
		}
	}
	return map[string]float64{
		"interp.live_passes":        ratio(d("trace.store.misses", "trace.store.live_fallbacks", "lab.replay_fallbacks"), ops),
		"interp.minsts_per_s":       d("interp.insts_retired") / ph.wall / 1e6,
		"trace.store_hit_ratio":     ratio(d("trace.store.hits"), d("trace.store.hits", "trace.store.misses")),
		"trace.store_mb":            after["trace.store.bytes"] / (1 << 20),
		"cpisim.pass_s":             ratio(d("lab.pass_seconds.sum"), d("lab.pass_seconds.count")),
		"cpisim.passes":             ratio(d("lab.passes_run", "lab.adhoc_passes_run"), ops),
		"cpisim.replays":            ratio(d("lab.pass_replays"), ops),
		"cache.probes":              ratio(probes, ops),
		"btb.lookups":               ratio(d("btb.lookups"), ops),
		"core.tpi_points":           ratio(d("lab.tpi_points"), ops),
		"core.memo_hit_ratio":       ratio(d("lab.pass_memo_hits"), d("lab.pass_requests")),
		"surface.hit_ratio":         ratio(d("surface.hits"), d("surface.hits", "surface.misses")),
		"surface.overlay_hit_ratio": ratio(d("surface.overlay_hits"), d("surface.misses")),
		"server.rejected":           d("server.pool.rejected"),
		"cluster.hedges":            d("cluster.hedge.fired"),
	}
}
