package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pipecache/internal/gen"
	"pipecache/internal/server"
	"pipecache/internal/surface"
)

// runServe starts the HTTP design-space service: the lab behind an
// HTTP/JSON API with a content-addressed result cache, worker-pool
// backpressure, and live metrics at /metrics. SIGINT/SIGTERM drain
// in-flight requests before exit.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	o := commonFlags(fs)
	addr := fs.String("addr", ":8080", "listen address")
	reqTimeout := fs.Duration("request-timeout", 2*time.Minute, "per-request deadline (0 disables)")
	workers := fs.Int("workers", 0, "worker-pool size (default GOMAXPROCS)")
	queue := fs.Int("queue", 0, "pending-request queue cap (default 2x workers)")
	cacheEntries := fs.Int("cache-entries", 512, "content-addressed result cache bound")
	grace := fs.Duration("shutdown-grace", 30*time.Second, "in-flight drain bound on shutdown")
	prewarm := fs.Bool("prewarm", false, "run all simulation passes before listening")
	surfacePath := fs.String("surface", "", "baked PSF2 surface to seed the lab from (see pipecache bake)")
	fs.Parse(args)

	lab, err := newLab(o)
	if err != nil {
		return err
	}

	var sf *surface.Surface
	if *surfacePath != "" {
		sf, err = surface.Load(*surfacePath)
		if err != nil {
			return fmt.Errorf("loading surface: %w", err)
		}
		fmt.Fprintf(os.Stderr, "loaded surface %s: %d passes, %d bytes, hash %s\n",
			*surfacePath, sf.NumPasses(), sf.Size(), sf.Hash())
	}

	srv, err := server.New(lab, server.Config{
		Addr:           *addr,
		RequestTimeout: *reqTimeout,
		Workers:        *workers,
		QueueCap:       *queue,
		CacheEntries:   *cacheEntries,
		ShutdownGrace:  *grace,
		Surface:        sf,
	})
	if err != nil {
		return err
	}
	// The server runs passes lazily on demand (under request contexts)
	// unless -prewarm asks for a hot start. Prewarming after New lets a
	// mismatched surface fail before any pass runs, and finds a seeded
	// lab's passes already memoized.
	if *prewarm {
		fmt.Fprintln(os.Stderr, "prewarming simulation passes...")
		if err := lab.Prewarm(); err != nil {
			srv.Close()
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := srv.ListenAndServe(ctx); err != nil {
		return err
	}
	return writeMetrics(lab, o)
}

// selectSpecs resolves the -benchmarks flag (default: the full Table 1
// suite).
func selectSpecs(o *cliOpts) ([]gen.Spec, error) {
	specs := gen.Table1()
	if *o.benchmarks == "" {
		return specs, nil
	}
	var sel []gen.Spec
	for _, name := range strings.Split(*o.benchmarks, ",") {
		s, ok := gen.LookupSpec(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", name)
		}
		sel = append(sel, s)
	}
	return sel, nil
}

// runVersion prints the binary's build identity (module version, VCS
// revision, toolchain) — the same identity /healthz reports on a running
// server.
func runVersion(args []string) error {
	fs := flag.NewFlagSet("version", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print as JSON")
	fs.Parse(args)
	info := server.VersionInfo()
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(info)
	}
	fmt.Println(info)
	return nil
}
