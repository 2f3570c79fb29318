// Tracegen: write a multiprogrammed reference trace to disk — the 1992
// workflow — then read it back and replay it against two cache
// configurations.
//
// Run with: go run ./examples/tracegen
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"pipecache/internal/cache"
	"pipecache/internal/gen"
	"pipecache/internal/interp"
	"pipecache/internal/program"
	"pipecache/internal/sched"
	"pipecache/internal/trace"
)

func main() {
	dir, err := os.MkdirTemp("", "pipecache-trace")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Capture per-benchmark traces with one branch delay slot encoded in
	// the fetch stream.
	names := []string{"espresso", "linpack"}
	var files []string
	for i, name := range names {
		spec, ok := gen.LookupSpec(name)
		if !ok {
			log.Fatalf("spec %s missing", name)
		}
		prog, err := gen.Build(spec, uint32((i+1)<<26))
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(dir, name+".pct")
		if err := capture(prog, spec.Seed, uint8(i), path); err != nil {
			log.Fatal(err)
		}
		files = append(files, path)
		fmt.Printf("captured %s -> %s\n", name, path)
	}

	// Mix them into one multiprogrammed trace, 20k records per quantum.
	mixed := filepath.Join(dir, "mixed.pct")
	if err := mix(mixed, files); err != nil {
		log.Fatal(err)
	}

	// Replay against a small and a large cache pair in ONE pass: the fused
	// bank kernel probes every configuration per reference (ReplayBank),
	// instead of re-reading the trace per configuration.
	sizes := []int{1, 16}
	var cfgs []cache.Config
	for _, kw := range sizes {
		cfgs = append(cfgs, cache.Config{SizeKW: kw, BlockWords: 4, Assoc: 1, WriteBack: true})
	}
	ibank, err := cache.NewBank(cfgs)
	if err != nil {
		log.Fatal(err)
	}
	dbank, err := cache.NewBank(cfgs)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Open(mixed)
	if err != nil {
		log.Fatal(err)
	}
	r, err := trace.NewReader(f)
	if err != nil {
		log.Fatal(err)
	}
	st, err := trace.ReplayBank(r, ibank, dbank)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreplayed %d refs once (%d fetch / %d load / %d store)\n",
		st.Refs, st.IFetches, st.Loads, st.Stores)
	for i, kw := range sizes {
		fmt.Printf("  %2dKW caches: L1-I miss ratio %.2f%%   L1-D miss ratio %.2f%%\n",
			kw, 100*ibank.Stats(i).MissRatio(), 100*dbank.Stats(i).MissRatio())
	}
}

func capture(prog *program.Program, seed uint64, pid uint8, path string) error {
	xlat, err := sched.Translate(prog, 1)
	if err != nil {
		return err
	}
	it, err := interp.New(prog, seed)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	cap := &trace.Capture{W: w, Xlat: xlat, PID: pid}
	it.Run(200_000, cap)
	if cap.Err() != nil {
		return cap.Err()
	}
	return w.Flush()
}

func mix(out string, files []string) error {
	var readers []*trace.Reader
	var handles []*os.File
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		handles = append(handles, f)
		r, err := trace.NewReader(f)
		if err != nil {
			return err
		}
		readers = append(readers, r)
	}
	defer func() {
		for _, h := range handles {
			h.Close()
		}
	}()
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := trace.NewWriter(f)
	if err != nil {
		return err
	}
	if err := trace.Mix(w, 20_000, readers...); err != nil {
		return err
	}
	fmt.Printf("mixed %d traces into %s (%d records)\n", len(files), out, w.Count())
	return nil
}
