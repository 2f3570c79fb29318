package pipecache

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// testFuncs collects the names of the `func <kind>…` declarations (kind
// Test, Benchmark or Fuzz) in the _test.go files of dir, and of its
// subdirectories when recursive. A nested module (perfbench) is not part
// of ./... and is skipped.
func testFuncs(t *testing.T, kind, dir string, recursive bool) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func (` + kind + `\w*)\(`)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			if !recursive || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
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
			names[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsNameBenchmarks treats the docs' benchmark citations as checked
// claims: every backticked `Benchmark…` name in README.md, DESIGN.md and
// EXPERIMENTS.md must be a `func Benchmark…` in some _test.go file of the
// repository (a `Name/sub` citation resolves through its top-level
// function), so a renamed or deleted benchmark that leaves the docs behind
// fails here. Every BENCH_sim.json row is such a function too
// (TestLedgerRowsAreBenchmarks).
func TestDocsNameBenchmarks(t *testing.T) {
	funcs := testFuncs(t, "Benchmark", ".", true)
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
			if !funcs[top] {
				t.Errorf("%s cites `%s`, which is not a benchmark function", doc, name)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no benchmark citations found; the docs pattern is stale")
	}
}

// TestLedgerRowsAreBenchmarks holds BENCH_sim.json to one definition per
// row: every row, and every speedup's baseline and against, names a
// `func Benchmark…` of this package (a `Name/sub` row resolves through its
// top-level function), the one body cmd/benchjson runs. The report's
// instruction budget is the fixtures' ledgerInsts.
func TestLedgerRowsAreBenchmarks(t *testing.T) {
	funcs := testFuncs(t, "Benchmark", ".", false)
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Insts      int64 `json:"insts"`
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
		Speedups []struct {
			Baseline string `json:"baseline"`
			Against  string `json:"against"`
		} `json:"speedups"`
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	var names []string
	for _, r := range report.Benchmarks {
		names = append(names, r.Name)
	}
	for _, s := range report.Speedups {
		names = append(names, s.Baseline, s.Against)
	}
	if len(names) == 0 {
		t.Fatal("BENCH_sim.json has no rows")
	}
	for _, name := range names {
		if top, _, _ := strings.Cut(name, "/"); !funcs[top] {
			t.Errorf("BENCH_sim.json names %s, which is no func Benchmark… of the root package", name)
		}
	}
	if report.Insts != ledgerInsts {
		t.Errorf("BENCH_sim.json insts = %d, want ledgerInsts %d", report.Insts, ledgerInsts)
	}
}

// TestMakefileRunPatternsNameTests guards the make targets that select
// tests by name: `go test -run` passes silently when its pattern matches
// nothing, and so does `go test -fuzz`, so a renamed or deleted test or
// fuzz target would quietly empty the target. Every alternative of the top
// level of a Makefile -run pattern must match a `func Test…`, and every
// -fuzz pattern a `func Fuzz…`, in the packages its command line names
// (./... means the module; no package means the root). The bare `^$`
// selects no test on purpose, for benchmark-only runs.
func TestMakefileRunPatternsNameTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range []struct{ flag, kind string }{{"-run", "Test"}, {"-fuzz", "Fuzz"}} {
		flagRe := regexp.MustCompile(sel.flag + `\s+('[^']*'|\S+)`)
		checked := 0
		for _, line := range strings.Split(string(mk), "\n") {
			m := flagRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern := strings.ReplaceAll(strings.Trim(m[1], "'"), "$$", "$") // make's escape
			if pattern == "^$" {
				continue
			}
			funcs := map[string]bool{}
			for _, f := range strings.Fields(line) {
				switch {
				case f == "./...":
					maps.Copy(funcs, testFuncs(t, sel.kind, ".", true))
				case f == "." || strings.HasPrefix(f, "./"):
					maps.Copy(funcs, testFuncs(t, sel.kind, f, false))
				}
			}
			if len(funcs) == 0 {
				funcs = testFuncs(t, sel.kind, ".", false)
			}
			top, _, _ := strings.Cut(pattern, "/")
			for _, alt := range strings.Split(top, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("Makefile %s %q: %v", sel.flag, pattern, err)
					continue
				}
				checked++
				found := false
				for name := range funcs {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("Makefile %s %q: %q matches no func %s… in the packages of %q", sel.flag, pattern, alt, sel.kind, strings.TrimSpace(line))
				}
			}
		}
		if checked == 0 {
			t.Fatalf("no Makefile %s patterns found; the pattern is stale", sel.flag)
		}
	}
}

// TestDocsNameMetrics treats the docs' metric and fault-point citations as
// checked claims: every backticked `ns.name` in README.md, DESIGN.md and
// EXPERIMENTS.md, with ns one of lab, cluster, server, surface, trace or
// cpisim and the name all lower case (Go identifiers such as
// `server.RequestKey` are TestDocsNameInternalDeclarations' business), must be
// a string literal in the module's non-test Go — a registry name or a
// fault.NewPoint name. A literal ending in "." that the code concatenates
// onto covers every name it prefixes. Shorthand citations
// (`trace.store.*`, `cluster.shard.drained/reincluded`) are not checked.
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

// TestDocsNameInternalDeclarations treats the docs' Go identifiers as
// checked claims: every backticked `pkg.X` or `pkg.T.m` in README.md,
// DESIGN.md and EXPERIMENTS.md whose pkg is an internal/* package must name
// a declaration of that package's non-test Go (a func, type or var X, or a
// method or field m of type T), so a rename or deletion that leaves the
// docs behind fails here. Constants do not count: the docs cite APIs, and
// an enum value that shares a stale name (trace.Store, the reference kind)
// must not vouch for it. A bare `Lab.m` is the docs' shorthand for a
// core.Lab method and is checked the same way. All-lower-case dotted names
// are metric and fault-point names, TestDocsNameMetrics' business.
func TestDocsNameInternalDeclarations(t *testing.T) {
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]map[string]bool{} // package -> "X" or "T.m"
	var pkgs []string
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		decls := map[string]bool{}
		fset := token.NewFileSet()
		parsed, err := parser.ParseDir(fset, filepath.Join("internal", d.Name()), func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range parsed {
			for _, f := range pkg.Files {
				collectDecls(f, decls)
			}
		}
		declared[d.Name()] = decls
		pkgs = append(pkgs, d.Name())
	}

	ref := regexp.MustCompile(`(?:^|[^.\w])(?:(` + strings.Join(pkgs, "|") + `)\.)?(\w+)(?:\.(\w+))?`)
	span := regexp.MustCompile("`[^`\n]+`")
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range span.FindAllString(string(b), -1) {
			for _, m := range ref.FindAllStringSubmatch(code, -1) {
				pkg, name, member := m[1], m[2], m[3]
				if pkg == "" {
					if name != "Lab" || member == "" {
						continue
					}
					pkg = "core"
				}
				if strings.ToLower(m[0]) == m[0] {
					continue
				}
				if member != "" && declared[pkg][name+"."] {
					name += "." + member
				}
				checked++
				if !declared[pkg][name] {
					t.Errorf("%s: %s names no declaration of internal/%s", doc, code, pkg)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no internal package references in the docs")
	}
}

// collectDecls adds f's top-level names to decls: "X" for funcs, types and
// vars, "T.m" for methods and struct fields, and "T." marking each type as
// one that can have members.
func collectDecls(f *ast.File, decls map[string]bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if gen, ok := recv.(*ast.IndexExpr); ok {
					recv = gen.X
				}
				name = recv.(*ast.Ident).Name + "." + name
			}
			decls[name] = true
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					decls[s.Name.Name] = true
					decls[s.Name.Name+"."] = true
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								decls[s.Name.Name+"."+n.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					if d.Tok == token.VAR {
						for _, n := range s.Names {
							decls[n.Name] = true
						}
					}
				}
			}
		}
	}
}
