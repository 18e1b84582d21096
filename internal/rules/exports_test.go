package rules

import (
	"fmt"
	"go/ast"
	"go/token"
	"path"
	"slices"
	"strconv"
	"strings"
	"testing"
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

// unusedMethods are the exported methods no product file selects yet, each
// with its reason, keyed dir.Recv.Name. Like unusedExports it only shrinks.
var unusedMethods = map[string]string{
	"internal/lang.Op.Unary":            "gen's grammar asks it of each operator of lang.Ops",
	"internal/autotune.Space.Enumerate": "exec's and analysis's tests walk the default space's candidates through it",
}

// interfaceMethods are the standard library's interface methods a product
// type implements, which the library calls and no product file selects.
var interfaceMethods = []string{"Error", "String", "Unwrap", "Is", "As", "MarshalJSON", "UnmarshalJSON",
	"ServeHTTP", "Write", "Read", "Close"}

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
// the bare name inside its own package, pkg.Name from another. It holds
// every exported method to a selector of its name in a non-test product
// file, whatever the selector's operand, unless an interface of the tree or
// of the standard library declares the name. It holds every exported field of
// an option struct to a setter (fieldsSet).
func exportsUsed(files []file) []string {
	declared := map[string]string{} // "dir.Name" → where it is declared
	methods := map[string]string{}  // "dir.Recv.Name" → where it is declared
	decls := map[*ast.Ident]bool{}  // declaring identifiers, which are not uses
	exempt := map[string]bool{}     // method names an interface declares
	for _, name := range interfaceMethods {
		exempt[name] = true
	}
	for _, f := range files {
		if f.test() {
			continue
		}
		for _, n := range f.nodes {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						exempt[id.Name] = true
					}
				}
			}
		}
	}
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
				} else if d.Name.IsExported() && !exempt[d.Name.Name] {
					recv := receiver(d.Recv.List[0].Type)
					methods[dir+"."+recv+"."+d.Name.Name] = f.at(d.Name, "%s.(%s).%s", path.Base(dir), recv, d.Name.Name)
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
	used, selected := map[string]bool{}, map[string]bool{}
	for _, f := range files {
		if !product(f) {
			continue
		}
		imports := importsOf(f)
		dir := path.Dir(f.path)
		for _, n := range f.nodes {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				decls[n.Sel] = true // a field, a method, or another package's name
				selected[n.Sel.Name] = true
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
	for key, at := range methods {
		_, listed := unusedMethods[key]
		switch used := selected[path.Ext(key)[1:]]; {
		case listed && used:
			bad = append(bad, at+" has a product caller now: take it off unusedMethods")
		case !listed && !used:
			bad = append(bad, at+" has no product caller: unexport it, move it into a test file, or delete it")
		}
	}
	for key := range unusedMethods {
		if methods[key] == "" {
			bad = append(bad, fmt.Sprintf("%s is listed in unusedMethods but not declared", key))
		}
	}
	bad = append(bad, fieldsSet(files)...)
	slices.Sort(bad)
	return bad
}

// importsOf maps the local name of each of f's imports from the module to
// the directory it names.
func importsOf(f file) map[string]string {
	imports := map[string]string{}
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
	return imports
}

// optionType reports whether the type name declared in dir is an option
// struct: an exported struct named Config or Options, or faults.Schedule.
func optionType(dir, name string) bool {
	return name == "Config" || name == "Options" || dir == "internal/faults" && name == "Schedule"
}

// fieldsSet holds every exported field of an option struct of the product to
// a setter in a non-test product file: a keyed element of a composite literal
// written with the struct's type, or an assignment, an ++ or --, or an & of a
// selector of the field's name, whatever the selector's operand. Like the
// method half of the row it goes by name, so it over-counts setters.
func fieldsSet(files []file) []string {
	fields := map[string]string{} // "dir.Type.Field" → where it is declared
	for _, f := range files {
		if !product(f) {
			continue
		}
		dir := path.Dir(f.path)
		for _, n := range f.nodes {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || !optionType(dir, ts.Name.Name) {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					if id.IsExported() {
						fields[dir+"."+ts.Name.Name+"."+id.Name] = f.at(id, "%s.%s.%s", path.Base(dir), ts.Name.Name, id.Name)
					}
				}
			}
		}
	}
	set := map[string]bool{} // "dir.Type.Field" keyed in a literal, ".Field" a selector written to
	for _, f := range files {
		if !product(f) {
			continue
		}
		imports, dir := importsOf(f), path.Dir(f.path)
		written := func(x ast.Expr) {
			if s, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				set["."+s.Sel.Name] = true
			}
		}
		for _, n := range f.nodes {
			switch n := n.(type) {
			case *ast.CompositeLit:
				var typ string
				switch t := n.Type.(type) {
				case *ast.Ident:
					typ = dir + "." + t.Name
				case *ast.SelectorExpr:
					if x, ok := t.X.(*ast.Ident); ok && imports[x.Name] != "" {
						typ = imports[x.Name] + "." + t.Sel.Name
					}
				}
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok && typ != "" {
						if k, ok := kv.Key.(*ast.Ident); ok {
							set[typ+"."+k.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, x := range n.Lhs {
					written(x)
				}
			case *ast.IncDecStmt:
				written(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					written(n.X)
				}
			}
		}
	}
	var bad []string
	for key, at := range fields {
		if !set[key] && !set[path.Ext(key)] {
			bad = append(bad, at+" has no product setter: set it in product code, or delete it with what only it reaches")
		}
	}
	return bad
}

// receiver is the name of a method's receiver type: T of T, *T, T[P] or *T[P].
func receiver(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	return x.(*ast.Ident).Name
}

// The export row passes a method whose name an interface of the tree
// declares, and fails an unusedMethods entry whose method is gone: two cases
// a plant, which only adds files to a tree the row passes, cannot show.
func TestExportRowMethods(t *testing.T) {
	files := tree(t)
	base := exportsUsed(files)
	shape, err := parse(token.NewFileSet(), "internal/lang/shape.go", "internal/lang/shape.go",
		"package lang\n\ntype shaper interface{ Shape() int }\n\nfunc (o Op) Shape() int { return 0 }\n")
	if err != nil {
		t.Fatal(err)
	}
	if bad := exportsUsed(append(files[:len(files):len(files)], shape)); !slices.Equal(bad, base) {
		t.Errorf("a method an interface declares fails the row:\n%s", strings.Join(bad, "\n"))
	}
	const gone = "internal/lang.Op.Gone"
	unusedMethods[gone] = "planted"
	defer delete(unusedMethods, gone)
	if bad := exportsUsed(files); !slices.Contains(bad, gone+" is listed in unusedMethods but not declared") {
		t.Errorf("an unusedMethods entry whose method is gone passes the row:\n%s", strings.Join(bad, "\n"))
	}
}

// The export row passes an option field that cmd sets through a flag's
// address, or that product code assigns: the two setter shapes no field of
// today's tree depends on alone.
func TestExportRowFields(t *testing.T) {
	files := tree(t)
	base := exportsUsed(files)
	for _, setter := range []string{
		"package main\n\nimport (\n\t\"flag\"\n\n\t\"procdecomp/internal/sem\"\n)\n\nfunc define(cfg *sem.Config) { flag.Int64Var(&cfg.Planted, \"planted\", 0, \"\") }\n",
		"package main\n\nimport \"procdecomp/internal/sem\"\n\nfunc define(cfg *sem.Config) { cfg.Planted = 1 }\n",
	} {
		field, err := parse(token.NewFileSet(), "internal/sem/planted.go", "internal/sem/planted.go",
			"package sem\n\ntype Config struct{ Planted int64 }\n")
		if err != nil {
			t.Fatal(err)
		}
		set, err := parse(token.NewFileSet(), "cmd/pdc/planted.go", "cmd/pdc/planted.go", setter)
		if err != nil {
			t.Fatal(err)
		}
		if bad := exportsUsed(append(files[:len(files):len(files)], field, set)); !slices.Equal(bad, base) {
			t.Errorf("an option field set by\n%s\nfails the row:\n%s", setter, strings.Join(bad, "\n"))
		}
	}
}
