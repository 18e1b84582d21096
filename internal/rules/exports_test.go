package rules

import (
	"fmt"
	"go/ast"
	"path"
	"slices"
	"strconv"
	"strings"
)

// unusedExports are the exported names no product file uses yet, each with
// its reason. A name here that gains a product caller, or is gone, fails the
// row, so the list only shrinks.
var unusedExports = map[string]string{
	"internal/autotune.Search":       "pdperf, a module of its own, runs the search through it",
	"internal/autotune.BuildProfile": "pdperf profiles its candidates through it",
	"internal/bench.CompileGS":       "pdperf compiles its Gauss-Seidel variants through it",
	"internal/bench.Variants":        "pdperf enumerates the Fig. 6 variants through it",
	"internal/lang.Ops":              "gen's grammar draws its operators from the table through it",
}

// testSupport are the packages that serve tests only: they neither declare a
// product export nor count as its caller.
var testSupport = []string{"internal/gen/", "internal/golden/", "internal/durable/durabletest/", "internal/rules/"}

// product reports whether f is non-test code of the product: under cmd,
// internal or examples, outside test support.
func product(f file) bool {
	return under("cmd/", "internal/", "examples/")(f) && !in(testSupport...)(f)
}

// exportsUsed holds every exported package-level func, type, var and const
// of the product to a reference from a non-test product file: any use of
// the bare name inside its own package, pkg.Name from another. Methods and
// fields are not names of the package and are not checked.
func exportsUsed(files []file) []string {
	declared := map[string]string{} // "dir.Name" → where it is declared
	decls := map[*ast.Ident]bool{}  // declaring identifiers, which are not uses
	for _, f := range files {
		if !product(f) {
			continue
		}
		dir := path.Dir(f.path)
		declare := func(id *ast.Ident) {
			if decls[id] = true; id.IsExported() {
				declared[dir+"."+id.Name] = f.at(id, "%s.%s", path.Base(dir), id.Name)
			}
		}
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(d.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(id)
						}
					}
				}
			}
		}
	}
	used := map[string]bool{}
	for _, f := range files {
		if !product(f) {
			continue
		}
		imports := map[string]string{} // local name → directory
		for _, im := range f.ast.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if dir, ok := strings.CutPrefix(p, "procdecomp/"); ok {
				name := path.Base(dir)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = dir
			}
		}
		dir := path.Dir(f.path)
		for _, n := range f.nodes {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				decls[n.Sel] = true // a field, a method, or another package's name
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"."+n.Sel.Name] = true
				}
			case *ast.FuncDecl:
				decls[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					decls[id] = true
				}
			case *ast.Ident:
				if !decls[n] {
					used[dir+"."+n.Name] = true
				}
			}
		}
	}
	var bad []string
	for name, at := range declared {
		_, listed := unusedExports[name]
		switch {
		case listed && used[name]:
			bad = append(bad, at+" has a product caller now: take it off unusedExports")
		case !listed && !used[name]:
			bad = append(bad, at+" has no product caller: unexport it, move it into a test file, or delete it")
		}
	}
	for name := range unusedExports {
		if declared[name] == "" {
			bad = append(bad, fmt.Sprintf("%s is listed in unusedExports but not declared", name))
		}
	}
	slices.Sort(bad)
	return bad
}
