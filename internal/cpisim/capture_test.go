package cpisim

import (
	"bytes"
	"fmt"
	"testing"

	"pipecache/internal/cache"
	"pipecache/internal/gen"
	"pipecache/internal/interp"
	"pipecache/internal/sched"
	"pipecache/internal/trace"
)

// TestCaptureMatchesSimFetchStream checks the two consumers of the
// translated fetch stream against each other: the file trace that
// trace.Capture writes, and the simulator's own I-fetch path. For one
// static-scheme workload at b = 1, 2, 3, the capture's IFetch record count
// must equal the simulator's IFetches, and replaying those records through
// a direct-mapped cache must give the I-misses of a one-entry I-bank pass.
// A squash-fetch or delay-slot-skip rule that differs between the two
// consumers fails here.
func TestCaptureMatchesSimFetchStream(t *testing.T) {
	const insts = 50_000
	for _, name := range []string{"gcc", "espresso", "linpack"} {
		spec, ok := gen.LookupSpec(name)
		if !ok {
			t.Fatalf("spec %s missing", name)
		}
		p, err := gen.Build(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		for b := 1; b <= 3; b++ {
			t.Run(fmt.Sprintf("%s/b=%d", name, b), func(t *testing.T) {
				cfg := Config{BranchSlots: b, BranchScheme: BranchStatic, ICaches: []cache.Config{icfg()}}
				sim, err := New(cfg, []Workload{{Prog: p, Seed: spec.Seed, Weight: 1}})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.Run(insts)
				if err != nil {
					t.Fatal(err)
				}
				br := res.Benches[0]

				xlat, err := sched.Translate(p, b)
				if err != nil {
					t.Fatal(err)
				}
				it, err := interp.New(p, spec.Seed)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				w, err := trace.NewWriter(&buf)
				if err != nil {
					t.Fatal(err)
				}
				c := &trace.Capture{W: w, Xlat: xlat, PID: 0}
				it.Run(insts, c)
				if err := c.Err(); err != nil {
					t.Fatal(err)
				}
				if err := w.Flush(); err != nil {
					t.Fatal(err)
				}

				ic, err := cache.New(icfg())
				if err != nil {
					t.Fatal(err)
				}
				r, err := trace.NewReader(&buf)
				if err != nil {
					t.Fatal(err)
				}
				st, err := trace.Replay(r, ic, nil)
				if err != nil {
					t.Fatal(err)
				}
				if int64(st.IFetches) != br.IFetches {
					t.Errorf("capture wrote %d ifetches, simulator counted %d", st.IFetches, br.IFetches)
				}
				if got := int64(ic.Stats().Misses()); got != br.IMisses[0] {
					t.Errorf("capture replay missed %d times, simulator I-bank %d", got, br.IMisses[0])
				}
				if br.IMisses[0] == 0 {
					t.Error("no I-misses: the cache is too large to tell the streams apart")
				}
			})
		}
	}
}
