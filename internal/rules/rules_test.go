// Package rules holds the repository's consolidation rules: each states on
// syntax where one decision may be made, and is held both to the tree and to
// the violations that once showed it working. Run it with go test.
package rules

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A file is one parsed Go source file, named by its slash-separated path
// from the module root.
type file struct {
	path string
	fset *token.FileSet
	ast  *ast.File
}

func (f file) test() bool { return strings.HasSuffix(f.path, "_test.go") }

// A rule reports each place the files break it. plants are violations it
// must report, each a file added to the tree: a path that exists stands for
// more source in that file.
type rule struct {
	name   string
	check  func(files []file) []string
	plants []plant
}

type plant struct{ path, src string }

// rules is the table, one row per rule.
var rules = []rule{
	{
		// Compile-time resolution decides "is this process the owner?" in
		// one method, (*spec).on: yes splices, no drops, inconclusive keeps
		// a run-time guard. Only coerce's broadcast arm keeps its own
		// three-way switch, because its no case receives. Which iterations
		// a process owns is one expr.Owned set, solved by expr.Solve and
		// bounded by Intersect, and only restrictLoop asks for one; the
		// message passes only Count them. The names Solve replaced stay
		// gone: declared, called, or named through expr, in code or
		// comment (the solver's tests keep names such as
		// TestSolveModEqSimple, which this does not match).
		name:  "one ownership decision (internal/core/ctr.go)",
		check: ownershipDecision,
		plants: []plant{
			{"internal/expr/asmod.go", "package expr\n\nfunc AsMod(e Expr) (Expr, int64, bool) { return e, 0, false }\n"},
			{"internal/expr/solve.go", "package expr\n\ntype Solution struct{}\n"},
			{"internal/core/solution_test.go", "package core_test\n\nimport \"procdecomp/internal/expr\"\n\nvar _ = expr.Solution{}\n"},
			{"internal/core/ctr.go", "package core\n\n// The first owned iteration is expr.FirstAtLeast(lo).\nvar _ = 0\n"},
			{"internal/core/ctr.go", "package core\n\nfunc (s *spec) third(e expr.Expr) bool { return expr.EqualTri(s.me(), e) == expr.Yes }\n"},
			{"internal/core/core.go", "package core\n\nvar _, _ = expr.Solve(expr.V(\"j\"), 0, \"j\")\n"},
			{"internal/xform/stripmine.go", "package xform\n\nvar _ = expr.Range(expr.C(1), expr.C(8)).Intersect(expr.Owned{})\n"},
		},
	},
}

// The names expr.Solve replaced.
var retired = map[string]bool{"SolveModEq": true, "FirstAtLeast": true, "AsMod": true, "Solution": true}

var retiredInComment = regexp.MustCompile(`\bexpr\.(SolveModEq|FirstAtLeast|AsMod|Solution)\b`)

func ownershipDecision(files []file) []string {
	var bad []string
	decisions := 0
	for _, f := range files {
		at := func(n ast.Node, format string, args ...any) {
			bad = append(bad, fmt.Sprintf("%s:%d: %s", f.path, f.fset.Position(n.Pos()).Line, fmt.Sprintf(format, args...)))
		}
		for _, cg := range f.ast.Comments {
			if m := retiredInComment.FindString(cg.Text()); m != "" {
				at(cg, "comment names %s", m)
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if retired[n.Name.Name] {
					at(n, "declares %s", n.Name.Name)
				}
			case *ast.TypeSpec:
				if retired[n.Name.Name] {
					at(n, "declares type %s", n.Name.Name)
				}
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "expr" && retired[n.Sel.Name] {
					at(n, "names expr.%s", n.Sel.Name)
				}
			case *ast.CallExpr:
				name := callee(n)
				switch {
				case retired[name]:
					at(n, "calls %s", name)
				case name == "EqualTri" && f.path == "internal/core/ctr.go" && len(n.Args) > 0 && isCall(n.Args[0], "s", "me"):
					decisions++
				case f.test() || f.path == "internal/core/ctr.go" || strings.HasPrefix(f.path, "internal/expr/"):
				case isCall(n, "expr", "Solve"):
					at(n, "calls expr.Solve outside restrictLoop")
				case name == "Intersect":
					at(n, "intersects an owned set outside restrictLoop")
				}
			}
			return true
		})
	}
	if decisions > 2 {
		bad = append(bad, fmt.Sprintf("internal/core/ctr.go: %d EqualTri(s.me(), …) decisions, want at most 2: (*spec).on and the broadcast", decisions))
	}
	return bad
}

// callee is the name a call calls: f in f(…) and x.f(…).
func callee(c *ast.CallExpr) string {
	switch fn := c.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// isCall reports whether e is the call x.f(…).
func isCall(e ast.Expr, x, f string) bool {
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := c.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != f {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == x
}

// TestRules holds every rule to the tree, and to each of its planted
// violations.
func TestRules(t *testing.T) {
	files := tree(t)
	for _, r := range rules {
		for _, v := range r.check(files) {
			t.Errorf("%s: %s", r.name, v)
		}
		for _, p := range r.plants {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, p.path, p.src, parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: plant in %s: %v", r.name, p.path, err)
			}
			if len(r.check(append(files[:len(files):len(files)], file{p.path, fset, f}))) == 0 {
				t.Errorf("%s: the violation planted in %s passes:\n%s", r.name, p.path, p.src)
			}
		}
	}
}

// tree parses every Go file of the module's internal, cmd and examples
// directories, comments included.
func tree(t *testing.T) []file {
	t.Helper()
	root, fset := filepath.Join("..", ".."), token.NewFileSet()
	var files []file
	for _, dir := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			files = append(files, file{filepath.ToSlash(rel), fset, f})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return files
}
