package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"pipecache/internal/cache"
	"pipecache/internal/core"
	"pipecache/internal/cpisim"
	"pipecache/internal/interp"
	"pipecache/internal/sched"
	"pipecache/internal/server"
	"pipecache/internal/trace"
)

// layerTimings measures the per-layer metrics that are timed from outside,
// by calling each module's public functions on the workload's own inputs:
// its suite at its seed, and its warm lab.
func layerTimings(e *env, w workload, m map[string]float64) error {
	p := e.params()
	ws := w.suite().Workloads()
	for i := range ws {
		ws[i].Seed ^= p.SeedOffset // as the Lab applies the seed
	}
	if err := simLayers(ws, p, m); err != nil {
		return err
	}
	if err := probeLayers(ws, p, m); err != nil {
		return err
	}
	if err := tcpuLayer(p, m); err != nil {
		return err
	}
	if err := bestDesignLayer(w.lab(), m); err != nil {
		return err
	}
	return serverLayers(e, w.lab(), m)
}

// ladder is the lab's six-size cache ladder at the given associativity
// and replacement policy.
func ladder(p core.Params, assoc int, pol cache.Policy) []cache.Config {
	var cfgs []cache.Config
	for _, s := range p.SizesKW {
		cfgs = append(cfgs, cache.Config{SizeKW: s, BlockWords: p.BlockWords, Assoc: assoc, WriteBack: true, Policy: pol})
	}
	return cfgs
}

func seconds(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return time.Since(start).Seconds(), err
}

// medianOf runs f n times and returns the median of its results.
func medianOf(n int, f func() (float64, error)) (float64, error) {
	var v []float64
	for i := 0; i < n; i++ {
		x, err := f()
		if err != nil {
			return 0, err
		}
		v = append(v, x)
	}
	return median(v), nil
}

// simLayers times the interpreter, capture, plan compilation, and the
// replay of one captured trace under each class of configuration.
func simLayers(ws []cpisim.Workload, p core.Params, m map[string]float64) error {
	insts := float64(p.Insts) * float64(len(ws))
	pass := func(cfg cpisim.Config, f func(*cpisim.Sim) error) (float64, error) {
		if cfg.Quantum == 0 {
			cfg.Quantum = p.Quantum
		}
		sim, err := cpisim.New(cfg, ws)
		if err != nil {
			return 0, err
		}
		defer sim.Release()
		return seconds(func() error { return f(sim) })
	}
	// The static b=2 pass over the direct-mapped ladder: the Lab's most
	// common pass, and its packed-bank plan path.
	dm := cpisim.Config{BranchSlots: 2, ICaches: ladder(p, 1, cache.PolicyLRU), DCaches: ladder(p, 1, cache.PolicyLRU)}
	live, err := medianOf(3, func() (float64, error) {
		return pass(dm, func(s *cpisim.Sim) error { _, err := s.Run(p.Insts); return err })
	})
	if err != nil {
		return err
	}
	// Each capture replaces the last; the trace of the final one is replayed
	// below, so its chunk plans start uncompiled.
	var tr *trace.EventTrace
	defer func() {
		if tr != nil {
			tr.Release()
		}
	}()
	capture, err := medianOf(3, func() (float64, error) {
		if tr != nil {
			tr.Release()
			tr = nil
		}
		rec := trace.NewRecorder("perfbench", p.Insts)
		t, err := pass(dm, func(s *cpisim.Sim) error {
			s.SetCapture(rec)
			_, err := s.Run(p.Insts)
			return err
		})
		if err == nil {
			tr = rec.Finish()
		}
		return t, err
	})
	if err != nil {
		return err
	}
	replay := func(cfg cpisim.Config) (float64, error) {
		return pass(cfg, func(s *cpisim.Sim) error { _, err := s.Replay(p.Insts, tr); return err })
	}
	first, err := replay(dm)
	if err != nil {
		return err
	}
	steady, err := medianOf(3, func() (float64, error) { return replay(dm) })
	if err != nil {
		return err
	}
	sharded, err := medianOf(3, func() (float64, error) {
		return pass(dm, func(s *cpisim.Sim) error {
			_, err := s.ReplaySharded(p.Insts, tr, runtime.GOMAXPROCS(0))
			return err
		})
	})
	if err != nil {
		return err
	}
	m["interp.live_ns_per_inst"] = live / insts * 1e9
	m["trace.capture_overhead"] = capture/live - 1
	m["cpisim.plan_compile_s"] = first - steady
	m["cpisim.replay_ns_per_inst.dm"] = steady / insts * 1e9
	m["cpisim.sharded_ratio"] = sharded / steady

	assoc := func(pol cache.Policy) cpisim.Config {
		return cpisim.Config{BranchSlots: 2, ICaches: ladder(p, 4, pol), DCaches: ladder(p, 4, pol)}
	}
	l1 := []cache.Config{{SizeKW: 4, BlockWords: p.BlockWords, Assoc: 1, WriteBack: true}}
	var l2 []cache.Config
	for _, s := range []int{32, 64, 128, 256, 512} {
		l2 = append(l2, cache.Config{SizeKW: s, BlockWords: 16, Assoc: 2, WriteBack: true})
	}
	for _, c := range []struct {
		name string
		cfg  cpisim.Config
	}{
		{"assoc", assoc(cache.PolicyLRU)},
		{"fifo", assoc(cache.PolicyFIFO)},
		{"plru", assoc(cache.PolicyTreePLRU)},
		{"btb", cpisim.Config{BranchScheme: cpisim.BranchBTB, ICaches: dm.ICaches, DCaches: dm.DCaches}},
		// The two-level study's hierarchy.
		{"l2", cpisim.Config{ICaches: l1, DCaches: l1, L2: cpisim.L2Config{Caches: l2}}},
	} {
		t, err := replay(c.cfg)
		if err != nil {
			return err
		}
		m["cpisim.replay_ns_per_inst."+c.name] = t / insts * 1e9
	}
	return nil
}

// probeLayers times Bank.Access per configuration of the six-size ladder,
// in each bank layout, over the suite's reference stream.
func probeLayers(ws []cpisim.Workload, p core.Params, m map[string]float64) error {
	refs, err := referenceStream(ws, p.Insts/16)
	if err != nil {
		return err
	}
	for _, l := range []struct {
		name  string
		assoc int
		pol   cache.Policy
	}{
		{"packed", 1, cache.PolicyLRU},
		{"general", 4, cache.PolicyLRU},
		{"fifo", 4, cache.PolicyFIFO},
		{"plru", 4, cache.PolicyTreePLRU},
	} {
		cfgs := ladder(p, l.assoc, l.pol)
		ib, err := cache.NewBank(cfgs)
		if err != nil {
			return err
		}
		db, err := cache.NewBank(cfgs)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, r := range refs {
			if r.Kind == trace.IFetch {
				ib.Access(r.Addr, false)
			} else {
				db.Access(r.Addr, r.Kind == trace.Store)
			}
		}
		m["cache.probe_ns_per_config."+l.name] = float64(time.Since(start).Nanoseconds()) / float64(len(refs)*len(cfgs))
		ib.Release()
		db.Release()
	}
	return nil
}

// referenceStream captures insts instructions of every workload's
// reference stream with trace.Capture, through the b=2 delay-slot
// translation, and reads it back.
func referenceStream(ws []cpisim.Workload, insts int64) ([]trace.Ref, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for i, wl := range ws {
		xlat, err := sched.Translate(wl.Prog, 2)
		if err != nil {
			return nil, err
		}
		it, err := interp.New(wl.Prog, wl.Seed)
		if err != nil {
			return nil, err
		}
		c := &trace.Capture{W: w, Xlat: xlat, PID: uint8(i)}
		it.Run(insts, c)
		if err := c.Err(); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	r, err := trace.NewReader(&buf)
	if err != nil {
		return nil, err
	}
	var refs []trace.Ref
	for {
		ref, err := r.Read()
		if errors.Is(err, io.EOF) {
			return refs, nil
		}
		if err != nil {
			return nil, err
		}
		refs = append(refs, ref)
	}
}

// tcpuLayer times Model.TCPUSplit over the 24 (size, depth) pairs of the
// design space.
func tcpuLayer(p core.Params, m map[string]float64) error {
	t, err := medianOf(50, func() (float64, error) {
		return seconds(func() error {
			for _, s := range p.SizesKW {
				for d := 0; d <= 3; d++ {
					if _, err := p.Model.TCPUSplit(s, d, s, d); err != nil {
						return err
					}
				}
			}
			return nil
		})
	})
	m["timing.tcpu_split_us"] = t * 1e6
	return err
}

// bestDesignLayer times Lab.BestDesignContext at fresh L2 times, outside
// the range the request mix draws from, so no call is a repeat.
func bestDesignLayer(lab *core.Lab, m map[string]float64) error {
	i := 0
	t, err := medianOf(15, func() (float64, error) {
		i++
		return seconds(func() error {
			_, err := lab.BestDesignContext(context.Background(), 50+0.37*float64(i), cpisim.LoadStatic, false)
			return err
		})
	})
	m["core.best_design_ms"] = t * 1e3
	return err
}

// serverLayers times request decoding, keying, and response encoding on
// the on-surface /v1/simulate bodies of the seed's request mix.
func serverLayers(e *env, lab *core.Lab, m map[string]float64) error {
	p := e.params()
	g := newRequestGen(p, e.seed, 0, false)
	var bodies [][]byte
	for len(bodies) < 500 {
		if r := g.next(); r.class == "simulate" {
			bodies = append(bodies, r.body)
		}
	}
	var dec, key []float64
	for _, b := range bodies {
		start := time.Now()
		req, err := server.DecodeDesignRequest(bytes.NewReader(b), p)
		dec = append(dec, time.Since(start).Seconds())
		if err != nil {
			return err
		}
		start = time.Now()
		server.RequestKey("simulate", req)
		key = append(key, time.Since(start).Seconds())
	}
	srv, err := server.New(lab, server.Config{AccessLog: io.Discard})
	if err != nil {
		return err
	}
	defer srv.Close()
	var enc []float64
	for _, b := range bodies[:100] {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(b)))
		var resp server.SimulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return err
		}
		start := time.Now()
		if _, err := json.Marshal(&resp); err != nil {
			return err
		}
		enc = append(enc, time.Since(start).Seconds())
	}
	m["server.decode_us"] = median(dec) * 1e6
	m["server.key_us"] = median(key) * 1e6
	m["server.encode_us"] = median(enc) * 1e6
	return nil
}
