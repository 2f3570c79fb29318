package pipecache

import (
	"encoding/json"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameBenchmarks treats the docs' benchmark citations as checked
// claims: every backticked `Benchmark…` name in README.md, DESIGN.md and
// EXPERIMENTS.md must be a `func Benchmark…` in some _test.go file of the
// repository (a `Name/sub` citation resolves through its top-level
// function) or a row of BENCH_sim.json, so a renamed or deleted benchmark
// that leaves the docs behind fails here.
func TestDocsNameBenchmarks(t *testing.T) {
	funcs := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			funcs[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	rows := map[string]bool{}
	for _, r := range report.Benchmarks {
		rows[r.Name] = true
	}

	cite := regexp.MustCompile("`(Benchmark[^`\\s]*)`")
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(b), -1) {
			name := m[1]
			checked++
			top, _, _ := strings.Cut(name, "/")
			if !rows[name] && !funcs[top] {
				t.Errorf("%s cites `%s`, which is neither a benchmark function nor a BENCH_sim.json row", doc, name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no benchmark citations found; the docs pattern is stale")
	}
}

// TestMakefileRunPatternsNameTests guards the make targets that select
// tests by name: `go test -run` passes silently when its pattern matches
// nothing, so a renamed or deleted test would quietly empty the target.
// Every alternative of the top level of a Makefile -run pattern must match
// a `func Test…` in the packages its command line names (./... means the
// module; no package means the root). The bare `^$` selects no test on
// purpose, for benchmark-only runs.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run\s+('[^']*'|\S+)`)
	decl := regexp.MustCompile(`(?m)^func (Test\w*)\(`)
	testsIn := func(root string, recursive bool) []string {
		var names []string
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == root {
					return nil
				}
				if !recursive || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				// A nested module (perfbench) is not part of ./...
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return names
	}

	checked := 0
	for _, line := range strings.Split(string(mk), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pattern := strings.ReplaceAll(strings.Trim(m[1], "'"), "$$", "$") // make's escape
		if pattern == "^$" {
			continue
		}
		var tests []string
		for _, f := range strings.Fields(line) {
			switch {
			case f == "./...":
				tests = append(tests, testsIn(".", true)...)
			case f == "." || strings.HasPrefix(f, "./"):
				tests = append(tests, testsIn(f, false)...)
			}
		}
		if tests == nil {
			tests = testsIn(".", false)
		}
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range strings.Split(top, "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile -run %q: %v", pattern, err)
				continue
			}
			checked++
			found := false
			for _, name := range tests {
				found = found || re.MatchString(name)
			}
			if !found {
				t.Errorf("Makefile -run %q: %q matches no func Test… in the packages of %q", pattern, alt, strings.TrimSpace(line))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no Makefile -run patterns found; the pattern is stale")
	}
}

// TestDocsNameMetrics treats the docs' metric and fault-point citations as
// checked claims: every backticked `ns.name` in README.md, DESIGN.md and
// EXPERIMENTS.md, with ns one of lab, cluster, server, surface, trace or
// cpisim and the name all lower case (Go identifiers such as
// `server.RequestKey` are TestDocsNameCoreDeclarations' business), must be
// a string literal in the module's non-test Go — a registry name or a
// fault.NewPoint name. A literal ending in "." that the code concatenates
// onto (`"cluster.req." + name`) covers every name it prefixes. Shorthand
// citations (`trace.store.*`, `cluster.hedge.fired/won`) are not checked.
func TestDocsNameMetrics(t *testing.T) {
	literals := map[string]bool{}
	var prefixes []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			// A nested module (perfbench) names its own metrics.
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var sc scanner.Scanner
		sc.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := sc.Scan()
			if tok == token.EOF {
				return nil
			}
			if tok != token.STRING {
				continue
			}
			v, err := strconv.Unquote(lit)
			if err != nil {
				continue
			}
			literals[v] = true
			if strings.HasSuffix(v, ".") {
				prefixes = append(prefixes, v)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	cite := regexp.MustCompile("`((?:lab|cluster|server|surface|trace|cpisim)\\.[a-z0-9_.]+)`")
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllStringSubmatch(string(b), -1) {
			name := m[1]
			checked++
			found := literals[name]
			for _, p := range prefixes {
				found = found || strings.HasPrefix(name, p)
			}
			if !found {
				t.Errorf("%s cites `%s`, which no non-test Go string literal names", doc, name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no metric citations found; the docs pattern is stale")
	}
}
