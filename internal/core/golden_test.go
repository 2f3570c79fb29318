package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipecache/internal/cpisim"
)

var updateGolden = flag.Bool("update", false, "regenerate the golden files under testdata/golden")

// goldenOutput renders one CLI view (tables, figures, or sweep) at the
// test lab's seed configuration. The simulation is deterministic, so the
// rendered text is bit-identical on every machine; any drift is a
// behaviour change that must be reviewed (and, if intended, committed
// with go test ./internal/core -run TestGolden -update).
func goldenOutput(t *testing.T, l *Lab, name string) string {
	t.Helper()
	var b strings.Builder
	add := func(v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("golden %s: %v", name, err)
		}
		fmt.Fprintln(&b, v)
	}
	switch name {
	case "tables":
		add(l.Table1())
		add(l.Table2())
		add(l.Table3())
		add(l.Table4())
		add(l.Table5())
		add(l.Table6())
	case "figures":
		add(l.Figure3(10))
		add(l.Figure4(10))
		add(l.Figure5())
		add(l.Figure6())
		add(l.Figure7())
		add(l.Figure8(10))
		add(l.Figure9())
		add(l.Figure10(), nil)
		add(l.Figure11(10))
	case "sweep":
		add(l.Figure12())
		add(l.Figure13())
		var pts []TPIPoint
		for _, cfg := range []struct {
			l2     float64
			symm   bool
			scheme cpisim.LoadScheme
		}{
			{l.P.L2TimeNs, true, cpisim.LoadStatic},
			{l.P.L2TimeNs, false, cpisim.LoadStatic},
			{l.P.L2TimeNs, false, cpisim.LoadDynamic},
			{l.P.L2TimeNs * 0.6, false, cpisim.LoadStatic},
		} {
			opt, err := l.Best(context.Background(), l.queryAt(cfg.l2), cfg.scheme, cfg.symm)
			if err != nil {
				t.Fatalf("golden sweep: %v", err)
			}
			pts = append(pts, opt.Best)
		}
		add(SummaryTable("Optimal designs", pts), nil)
		m, err := l.DepthMatrix(l.P.L2TimeNs)
		add(m, err)
		asym, err := l.AsymmetryStudy(l.P.L2TimeNs)
		add(asym, err)
	case "policy":
		// The replacement-policy ablation gets its own golden file so the
		// pre-existing views stay byte-identical to their pre-policy
		// snapshots (an acceptance criterion of the policy layer).
		add(l.PolicyStudy(4, 2))
	default:
		t.Fatalf("unknown golden view %q", name)
	}
	return b.String()
}

// TestGolden compares the rendered tables, figures, and sweep views
// against the committed snapshots.
func TestGolden(t *testing.T) {
	l := getLab(t)
	for _, name := range []string{"tables", "figures", "sweep", "policy"} {
		t.Run(name, func(t *testing.T) {
			got := goldenOutput(t, l, name)
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if got == string(want) {
				return
			}
			gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("%s differs in length: got %d lines, want %d", path, len(gl), len(wl))
		})
	}
}
