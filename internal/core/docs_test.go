package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"regexp"
	"strings"
	"testing"
)

// docRef matches a reference to this package's API inside one inline code
// span: `core.Lab.m` or `Lab.m` (group 1, a Lab method) and `core.X`
// (group 2, a func or type). The leading class keeps `x.Lab.m` of another
// package from matching.
var docRef = regexp.MustCompile(`(?:^|[^.\w])(?:core\.)?Lab\.(\w+)|(?:^|[^.\w])core\.(\w+)`)

// TestDocsNameCoreDeclarations treats the docs as checked claims: every
// backticked `core.X`, `core.Lab.m` or `Lab.m` in DESIGN.md and README.md
// must name a func, method or type declared in this package, so a rename
// that leaves the docs behind fails here.
func TestDocsNameCoreDeclarations(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{} // "X" for funcs and types, "T.m" for methods
	for _, f := range pkgs["core"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					name = recv.(*ast.Ident).Name + "." + name
				}
				declared[name] = true
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						declared[ts.Name.Name] = true
					}
				}
			}
		}
	}

	span := regexp.MustCompile("`[^`\n]+`")
	checked := 0
	for _, doc := range []string{"../../DESIGN.md", "../../README.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, code := range span.FindAllString(string(b), -1) {
			for _, m := range docRef.FindAllStringSubmatch(code, -1) {
				name := m[2]
				if m[1] != "" {
					name = "Lab." + m[1]
				}
				checked++
				if !declared[name] {
					t.Errorf("%s: %s names no func, method or type of internal/core", doc, code)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no core references in the docs")
	}
}
