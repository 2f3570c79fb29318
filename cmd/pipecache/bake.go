package main

import (
	"context"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"pipecache/internal/surface"
)

// runBake runs the default simulation passes and Table 1's probe and
// writes them as the PSF2 surface artifact `pipecache serve -surface`
// seeds its lab from. The bake is deterministic: the same flags produce a
// byte-identical artifact (and hash) at any -sweep-workers setting.
func runBake(args []string) error {
	fs := flag.NewFlagSet("bake", flag.ExitOnError)
	o := commonFlags(fs)
	out := fs.String("out", "surface.psf2", "output surface path")
	fs.Parse(args)

	lab, err := buildLab(o)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := surface.Bake(ctx, lab)
	if err != nil {
		return err
	}
	b, err := surface.Encode(d)
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	// Report the identity the serving side exposes: decode what was
	// written so the printed hash is the artifact's, not the intent's.
	sf, err := surface.Decode(b)
	if err != nil {
		return fmt.Errorf("self-check: written surface does not decode: %w", err)
	}
	ph := sf.ParamsHash()
	fmt.Printf("baked %s: %d passes, %d Table 1 rows, %d bytes\n",
		*out, sf.NumPasses(), len(d.Table1), sf.Size())
	fmt.Printf("surface hash: %s\n", sf.Hash())
	fmt.Printf("params hash:  %s\n", hex.EncodeToString(ph[:]))
	return writeMetrics(lab, o)
}
