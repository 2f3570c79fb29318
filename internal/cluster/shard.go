package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pipecache/internal/fault"
)

// ptShardProbe injects faults into the health-probe path: a flaky probe
// must drain and re-include shards without ever corrupting a response.
var ptShardProbe = fault.NewPoint("cluster.shard.probe")

// Shard is one backend replica the coordinator routes to. Health is a
// simple two-state machine: healthy shards receive routed keys; draining
// shards move to the back of every key's shard sequence (tried only after
// every healthy shard) and rejoin the rotation on the first successful
// probe. Transitions come from the probe loop and, passively, from
// transport errors on forwarded requests — a connection refused
// mid-request drains the shard immediately instead of waiting out a probe
// interval.
type Shard struct {
	// Name is the shard's display name ("shard0", ...).
	Name string
	// URL is the backend's base URL; it is also the shard's ring identity,
	// so a fleet described in a different order routes identically.
	URL string

	healthy  atomic.Bool
	inflight atomic.Int64
	requests atomic.Int64
	errors   atomic.Int64

	mu           sync.Mutex
	lastProbe    time.Time
	lastProbeErr string
	consecFails  int
}

// Healthy reports whether the shard is in the routing rotation.
func (s *Shard) Healthy() bool { return s.healthy.Load() }

// Inflight returns the number of coordinator requests currently outstanding
// against this shard.
func (s *Shard) Inflight() int64 { return s.inflight.Load() }

// state returns the healthz rendering of the shard's health.
func (s *Shard) state() string {
	if s.healthy.Load() {
		return "healthy"
	}
	return "draining"
}

// markUnhealthy drains the shard (recording why); the probe loop will
// re-include it when /healthz answers again.
func (c *Coordinator) markUnhealthy(s *Shard, reason error) {
	s.mu.Lock()
	s.lastProbeErr = reason.Error()
	s.mu.Unlock()
	if s.healthy.CompareAndSwap(true, false) {
		c.reg.Counter("cluster.shard.drained").Inc()
		c.publishHealthGauges()
		c.shell.Logf("shard %s (%s) drained: %v", s.Name, s.URL, reason)
	}
}

// publishHealthGauges exports the healthy/draining split.
func (c *Coordinator) publishHealthGauges() {
	var healthy int
	for _, s := range c.shards {
		if s.Healthy() {
			healthy++
		}
	}
	c.reg.Gauge("cluster.shards.healthy").Set(float64(healthy))
	c.reg.Gauge("cluster.shards.draining").Set(float64(len(c.shards) - healthy))
}

// ProbeAll probes every shard once, synchronously: draining shards whose
// /healthz answers 200 rejoin the rotation, healthy shards whose probe
// fails FailAfter consecutive times drain. The background loop calls this
// every ProbeInterval; tests call it directly to make transitions
// deterministic.
func (c *Coordinator) ProbeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, s := range c.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			c.probeOne(ctx, s)
		}(s)
	}
	wg.Wait()
	c.publishHealthGauges()
}

// probeOne runs one /healthz probe against s and applies the transition.
func (c *Coordinator) probeOne(ctx context.Context, s *Shard) {
	err := c.probeRequest(ctx, s)
	s.mu.Lock()
	s.lastProbe = time.Now()
	if err != nil {
		s.lastProbeErr = err.Error()
		s.consecFails++
		fails := s.consecFails
		s.mu.Unlock()
		c.reg.Counter("cluster.probe.failures").Inc()
		if fails >= c.cfg.FailAfter && s.healthy.CompareAndSwap(true, false) {
			c.reg.Counter("cluster.shard.drained").Inc()
			c.shell.Logf("shard %s (%s) drained after %d failed probes: %v", s.Name, s.URL, fails, err)
		}
		return
	}
	s.lastProbeErr = ""
	s.consecFails = 0
	s.mu.Unlock()
	c.reg.Counter("cluster.probe.ok").Inc()
	if s.healthy.CompareAndSwap(false, true) {
		c.reg.Counter("cluster.shard.reincluded").Inc()
		c.shell.Logf("shard %s (%s) re-included", s.Name, s.URL)
	}
}

// probeRequest issues the bounded GET /healthz (through the probe fault
// point, so chaos schedules can flap shard health deterministically).
func (c *Coordinator) probeRequest(ctx context.Context, s *Shard) error {
	if err := ptShardProbe.Inject(); err != nil {
		return err
	}
	pctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, s.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("probe status %d", resp.StatusCode)
	}
	return nil
}

// probeLoop re-probes the fleet every ProbeInterval until ctx is done.
func (c *Coordinator) probeLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.ProbeAll(ctx)
		}
	}
}
