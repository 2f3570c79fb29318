package surface

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipecache/internal/core"
	"pipecache/internal/gen"
	"pipecache/internal/obs"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden surface under testdata/golden")

// goldenLab builds the small fixed lab the golden artifact is baked from:
// two benchmarks over a reduced size bank, so the bake is fast and the
// checked-in artifact stays small.
func goldenLab(t testing.TB) *core.Lab {
	t.Helper()
	var specs []gen.Spec
	for _, name := range []string{"gcc", "yacc"} {
		s, ok := gen.LookupSpec(name)
		if !ok {
			t.Fatalf("unknown benchmark %q", name)
		}
		specs = append(specs, s)
	}
	suite, err := core.BuildSuite(specs)
	if err != nil {
		t.Fatal(err)
	}
	p := core.DefaultParams()
	p.Insts = 20_000
	p.SizesKW = []int{4, 8}
	p.Penalties = []int{6, 10}
	lab, err := core.NewLab(suite, p)
	if err != nil {
		t.Fatal(err)
	}
	lab.SetObs(obs.NewRegistry())
	return lab
}

// TestGoldenBakedSurface pins the whole bake-and-encode pipeline byte for
// byte: simulation results, section layout, and the varint encoding.
// Any intended change to either regenerates with -update; an unintended
// diff here is format or simulation drift that would invalidate deployed
// artifacts.
func TestGoldenBakedSurface(t *testing.T) {
	lab := goldenLab(t)
	d, err := Bake(context.Background(), lab)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(d)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "golden", "small.psf2")
	if *updateGolden {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", path, len(b))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/surface -run TestGolden -update` to create it)", err)
	}
	if !bytes.Equal(b, want) {
		s1, e1 := Decode(b)
		s2, e2 := Decode(want)
		t.Fatalf("baked surface drifted from golden: got %d bytes, want %d\n"+
			"got  hash %v err %v\nwant hash %v err %v",
			len(b), len(want), hashOf(s1), e1, hashOf(s2), e2)
	}

	// The golden artifact must decode and seed a lab with its parameters.
	sf, err := Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.Seed(goldenLab(t)); err != nil {
		t.Fatalf("golden surface does not seed the golden lab: %v", err)
	}
}

func hashOf(s *Surface) string {
	if s == nil {
		return "<undecodable>"
	}
	return s.Hash()
}

// TestGoldenHeaderCompat pins the versioning rules against the real
// artifact: a future PSF version is refused with an upgrade hint and the
// older PSF1 with a rebake hint (never misparsed), a foreign magic is
// refused as such, and truncations of the genuine artifact all fail
// cleanly.
func TestGoldenHeaderCompat(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "small.psf2"))
	if err != nil {
		t.Skipf("golden artifact missing (run with -update first): %v", err)
	}
	for _, v := range []byte{'3', '9'} {
		cp := append([]byte(nil), want...)
		cp[3] = v
		_, err := Decode(cp)
		if err == nil || !strings.Contains(err.Error(), "newer than this reader") {
			t.Errorf("PSF%c: err = %v, want a future-version refusal", v, err)
		}
	}
	cp := append([]byte(nil), want...)
	cp[3] = '1'
	if _, err := Decode(cp); err == nil || !strings.Contains(err.Error(), "older than this reader") {
		t.Errorf("PSF1: err = %v, want a refusal of the older layout", err)
	}
	copy(cp, "QQQ2")
	if _, err := Decode(cp); err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Errorf("foreign magic: err = %v, want bad-magic refusal", err)
	}
	for _, n := range []int{0, 3, 67, len(want) - 1} {
		if _, err := Decode(want[:n]); err == nil {
			t.Errorf("Decode of %d-byte truncation succeeded", n)
		}
	}
}
