package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pipecache/internal/cluster"
	"pipecache/internal/core"
)

// runCoordinate starts the sharded coordinator tier: a front that
// consistent-hashes every request onto one backend replica and relays its
// answer, so bodies are byte-identical to a single backend's.
func runCoordinate(args []string) error {
	fs := flag.NewFlagSet("coordinate", flag.ExitOnError)
	addr := fs.String("addr", ":8090", "listen address")
	shards := fs.String("shards", "", "comma-separated backend base URLs (required)")
	replicas := fs.Int("replicas", 0, "virtual nodes per shard on the hash ring (default 64)")
	probeInterval := fs.Duration("probe-interval", 2*time.Second, "shard /healthz probe period")
	probeTimeout := fs.Duration("probe-timeout", time.Second, "per-probe deadline")
	failAfter := fs.Int("fail-after", 2, "consecutive probe failures that drain a shard")
	hedgeAfter := fs.Duration("hedge-after", 100*time.Millisecond, "hedging delay floor")
	hedgeQuantile := fs.Float64("hedge-quantile", 0.95, "latency quantile that arms the hedge timer")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-shard-request deadline")
	grace := fs.Duration("shutdown-grace", 10*time.Second, "in-flight drain bound on shutdown")
	fs.Parse(args)

	if *shards == "" {
		return fmt.Errorf("coordinate: -shards is required (e.g. -shards http://127.0.0.1:8081,http://127.0.0.1:8082)")
	}
	var urls []string
	for _, u := range strings.Split(*shards, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}

	// The coordinator carries no lab: request normalization and routing
	// keys derive from the default parameters, which every backend built by
	// this CLI shares (-insts and -benchmarks shape the suite, not the
	// design space; a request outside a backend's space fails loudly at that
	// backend's validation).
	coord, err := cluster.New(cluster.Config{
		Addr:           *addr,
		Shards:         urls,
		Replicas:       *replicas,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		FailAfter:      *failAfter,
		HedgeAfter:     *hedgeAfter,
		HedgeQuantile:  *hedgeQuantile,
		RequestTimeout: *reqTimeout,
		ShutdownGrace:  *grace,
		Params:         core.DefaultParams(),
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return coord.ListenAndServe(ctx)
}
