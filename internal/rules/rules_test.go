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
	"slices"
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
	{
		// Where a call or a mapping can appear in a tree is written once
		// per tree: code that only visits a front-end tree goes through
		// lang.Inspect, and code that only visits an SPMD body through
		// spmd.Inspect. Only code that builds or evaluates a front-end tree
		// keeps a ForStmt case — core, the sequential interpreter, clone,
		// Inspect itself, the printer and sem's checkBlock, one case in
		// check.go — and no hand-written walk closure over a statement list
		// comes back.
		name:  "one child rule (internal/lang/inspect.go, spmd.Inspect)",
		check: childRule,
		plants: []plant{
			{"cmd/pdc/main.go", "package main\n\nfunc collectCalled(b *lang.Block) {\n\tfor _, st := range b.Stmts {\n\t\tswitch st := st.(type) {\n\t\tcase *lang.ForStmt:\n\t\t\tcollectCalled(st.Body)\n\t\t}\n\t}\n}\n"},
			{"internal/spmd/cgen.go", "package spmd\n\nfunc (g *cgen) decls(body []Stmt) {\n\tvar walk func(body []Stmt)\n\twalk = func(body []Stmt) {}\n\twalk(body)\n}\n"},
			{"internal/sem/check.go", "package sem\n\nfunc second(st lang.Stmt) {\n\tswitch st.(type) {\n\tcase *lang.ForStmt:\n\t}\n}\n"},
		},
	},
	{
		// The message passes find their channel sites in one walk of the
		// programs, collect in xform.go, and test their applicability as
		// predicates over that census; one driver, Pass.Apply, takes a
		// census, rewrites the lowest-numbered channel a plan accepts, and
		// takes a fresh one. No other non-test xform file walks statement
		// lists (a function or closure whose parameters or results hold a
		// []spmd.Stmt, such as *[]spmd.Stmt, or an spmd.Inspect callback),
		// only the driver calls collect, and no exported Vectorize, Jam or
		// StripMine comes back: Pass.Apply is the only way a message pass
		// runs.
		name:  "one channel census (internal/xform)",
		check: channelCensus,
		plants: []plant{
			{"internal/xform/jam.go", "package xform\n\nfunc jamWalk(body []spmd.Stmt) {\n\tvar walk func([]spmd.Stmt)\n\twalk = func(b []spmd.Stmt) {}\n\twalk(body)\n}\n"},
			{"internal/xform/vectorize.go", "package xform\n\nfunc (s *suite) again(progs []*spmd.Program) { s.collect(progs) }\n"},
			{"internal/xform/pass.go", "package xform\n\nfunc Vectorize(progs []*spmd.Program) int { return 0 }\n"},
			{"internal/xform/jam.go", "package xform\n\nfunc (s *suite) again(body *[]spmd.Stmt) {}\n"},
			{"internal/xform/stripmine.go", "package xform\n\nfunc splice(lists map[int][]spmd.Stmt) [][]spmd.Stmt { return nil }\n"},
		},
	},
	{
		// Compile-time resolution keeps or drops the generic program's
		// statements and never rewrites one it keeps; the generic program
		// never mentions me. core reserves the name and exec binds it for
		// programs built by hand; no other product code names spmd.Me, and
		// so nothing substitutes it.
		name:  "me is only reserved and bound (internal/core/core.go, internal/exec/lower.go)",
		check: meNamed,
		plants: []plant{
			{"internal/core/ctr.go", "package core\n\nfunc (s *spec) specialize(generic *spmd.Program) *spmd.Program {\n\tbody := spmd.CloneBody(generic.Body)\n\tspmd.SubstBody(body, spmd.Me, s.me())\n\treturn nil\n}\n"},
		},
	},
}

// The files that may keep a ForStmt case: those that build or evaluate a
// front-end tree.
var forStmtCases = []string{"internal/core/core.go", "internal/exec/seq.go", "internal/lang/clone.go",
	"internal/lang/inspect.go", "internal/lang/printer.go", "internal/sem/check.go"}

func childRule(files []file) []string {
	var bad []string
	var with []string
	checkCases := 0
	for _, f := range files {
		if f.test() || !strings.HasPrefix(f.path, "internal/") && !strings.HasPrefix(f.path, "cmd/") {
			continue
		}
		cases := 0
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CaseClause:
				if slices.ContainsFunc(n.List, func(e ast.Expr) bool { return isPtrTo(e, "ForStmt", "lang") }) {
					cases++
				}
			case *ast.ValueSpec:
				if fn, ok := n.Type.(*ast.FuncType); ok && listsStmts(fn.Params, "spmd", "lang") {
					bad = append(bad, fmt.Sprintf("%s:%d: a walk closure over a statement list", f.path, f.fset.Position(n.Pos()).Line))
				}
			}
			return true
		})
		if cases > 0 && !slices.Contains(with, f.path) {
			with = append(with, f.path)
		}
		if f.path == "internal/sem/check.go" {
			checkCases += cases
		}
	}
	slices.Sort(with)
	if !slices.Equal(with, forStmtCases) {
		bad = append(bad, fmt.Sprintf("the files with a ForStmt case are %v, want %v", with, forStmtCases))
	}
	if checkCases != 1 {
		bad = append(bad, fmt.Sprintf("internal/sem/check.go: %d ForStmt cases, want 1 (checkBlock)", checkCases))
	}
	return bad
}

func channelCensus(files []file) []string {
	var bad []string
	var collects []string
	for _, f := range files {
		if !strings.HasPrefix(f.path, "internal/xform/") {
			continue
		}
		at := func(n ast.Node, format string, args ...any) {
			bad = append(bad, fmt.Sprintf("%s:%d: %s", f.path, f.fset.Position(n.Pos()).Line, fmt.Sprintf(format, args...)))
		}
		walks := !f.test() && f.path != "internal/xform/xform.go"
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv == nil && (n.Name.Name == "Vectorize" || n.Name.Name == "Jam" || n.Name.Name == "StripMine") {
					at(n, "declares %s: Pass.Apply is the only way a pass runs", n.Name.Name)
				}
			case *ast.FuncType:
				if walks && (listsStmts(n.Params, "spmd") || listsStmts(n.Results, "spmd")) {
					at(n, "a function over []spmd.Stmt outside the census")
				}
			case *ast.CallExpr:
				switch {
				case walks && isCall(n, "spmd", "Inspect"):
					at(n, "an spmd.Inspect walk outside the census")
				case callee(n) == "collect":
					collects = append(collects, fmt.Sprintf("%s:%d", f.path, f.fset.Position(n.Pos()).Line))
				}
			}
			return true
		})
	}
	if len(collects) != 1 || !strings.HasPrefix(collects[0], "internal/xform/pass.go:") {
		bad = append(bad, fmt.Sprintf("collect is called at %v, want once, by the driver in pass.go", collects))
	}
	return bad
}

func meNamed(files []file) []string {
	var bad []string
	for _, f := range files {
		if f.test() || strings.HasPrefix(f.path, "internal/spmd/") || f.path == "internal/exec/lower.go" || f.path == "internal/core/core.go" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Me" {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "spmd" {
					bad = append(bad, fmt.Sprintf("%s:%d: names spmd.Me", f.path, f.fset.Position(n.Pos()).Line))
				}
			}
			return true
		})
	}
	return bad
}

// isPtrTo reports whether e is *name, or *pkg.name for one of pkgs.
func isPtrTo(e ast.Expr, name string, pkgs ...string) bool {
	star, ok := e.(*ast.StarExpr)
	return ok && isType(star.X, name, pkgs...)
}

// isType reports whether e is name, or pkg.name for one of pkgs.
func isType(e ast.Expr, name string, pkgs ...string) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == name
	case *ast.SelectorExpr:
		x, ok := e.X.(*ast.Ident)
		return ok && e.Sel.Name == name && slices.Contains(pkgs, x.Name)
	}
	return false
}

// listsStmts reports whether a field of fields holds a statement list: its
// type is or contains []Stmt, or []pkg.Stmt for one of pkgs, as in
// *[]spmd.Stmt, [][]spmd.Stmt or map[int][]spmd.Stmt.
func listsStmts(fields *ast.FieldList, pkgs ...string) bool {
	return fields != nil && slices.ContainsFunc(fields.List, func(f *ast.Field) bool {
		found := false
		ast.Inspect(f.Type, func(n ast.Node) bool {
			arr, ok := n.(*ast.ArrayType)
			found = found || ok && arr.Len == nil && isType(arr.Elt, "Stmt", pkgs...)
			return !found
		})
		return found
	})
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
