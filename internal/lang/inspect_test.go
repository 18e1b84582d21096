package lang

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// inspectSource uses every statement and expression kind and puts a mapping
// in every position the grammar has one: a dist parameter's uses, value and
// array parameters, the return map, both forms of let ... on, and the dist
// arguments of a call statement and of a call expression. Inspect only
// visits, so the program is parsed, not checked.
const inspectSource = `
const N = 8;
dist D = cyclic_cols(NPROCS);
proc id[M: dist](a: int on M): int on M { return a; }
proc top(A: matrix[N, N] on D, k: int on proc(1)): int on all {
  let B = matrix(N, N) on D;
  let s: int on proc(0) = id[proc(2)](k) + 1;
  let u = not (k < 2) or true;
  x = -k;
  for i = 1 to N by 2 {
    B[i, 1] = A[i, min(i, 3)] * 2.5;
  }
  if u { call id[D](s); } else { return s; }
  return x;
}
`

func parseInspectSource(t *testing.T) *Program {
	t.Helper()
	prog, err := Parse(inspectSource)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// visits lists every node Inspect reaches from n, in visit order.
func visits(n any, prune any) []any {
	var out []any
	Inspect(n, func(m any) bool {
		out = append(out, m)
		return m != prune
	})
	return out
}

func TestInspectReachesEveryNode(t *testing.T) {
	prog := parseInspectSource(t)
	seen := map[string]bool{}
	var maps []string
	for _, n := range visits(prog, nil) {
		seen[fmt.Sprintf("%T", n)] = true
		if m, ok := n.(*MapExpr); ok {
			maps = append(maps, fmt.Sprintf("%d:%s", m.Pos.Line, formatMap(m)))
		}
	}
	for _, n := range []any{
		&Program{}, &ConstDecl{}, &DistDecl{}, &ProcDecl{}, &Param{}, &TypeExpr{}, &MapExpr{}, &Block{},
		&LetStmt{}, &AssignStmt{}, &StoreStmt{}, &ForStmt{}, &IfStmt{}, &CallStmt{}, &ReturnStmt{},
		&NumLit{}, &BoolLit{}, &VarRef{}, &IndexExpr{}, &BinExpr{}, &UnExpr{}, &CallExpr{}, &AllocExpr{},
	} {
		if !seen[fmt.Sprintf("%T", n)] {
			t.Errorf("Inspect never reached a %T", n)
		}
	}
	// Every mapping in source order: id's parameter and return map; top's
	// two parameters and return map; let B's trailing and let s's leading
	// "on"; the call expression's and the call statement's dist argument.
	want := []string{"4:M", "4:M", "5:D", "5:proc(1)", "5:all",
		"6:D", "7:proc(0)", "7:proc(2)", "13:D"}
	if !reflect.DeepEqual(maps, want) {
		t.Errorf("mappings visited %v, want %v", maps, want)
	}
}

func TestInspectVisitsInSourceOrder(t *testing.T) {
	prog, err := Parse(`proc p(A: matrix[4, 4] on all) { A[i, j] = f(x) + 1; }`)
	if err != nil {
		t.Fatal(err)
	}
	st := prog.Decls[0].(*ProcDecl).Body.Stmts[0]
	var got []string
	for _, n := range visits(st, nil) {
		got = append(got, strings.TrimPrefix(fmt.Sprintf("%T", n), "*lang."))
	}
	want := []string{"StoreStmt", "VarRef", "VarRef", "BinExpr", "CallExpr", "VarRef", "NumLit"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visit order %v, want %v (indices before the stored value)", got, want)
	}
}

// A mapping is visited where it is stored: rewriting it through the pointer
// Inspect hands over rewrites the program.
func TestInspectRewritesMappingsInPlace(t *testing.T) {
	prog := parseInspectSource(t)
	n := 0
	Inspect(prog, func(node any) bool {
		if m, ok := node.(*MapExpr); ok && m.Kind == MapNamed && m.Name == "D" {
			*m = MapExpr{Pos: m.Pos, Kind: MapAll}
			n++
		}
		return true
	})
	src := format(prog)
	if n != 3 || strings.Contains(src, "on D") || strings.Contains(src, "[D]") {
		t.Errorf("rewrote %d mappings, want 3; program now:\n%s", n, src)
	}
}

// Returning false for a node skips exactly the nodes below it: for every
// node of the program, the pruned walk is the full walk minus that node's
// own subtree.
func TestInspectPrunesOnlyTheSubtree(t *testing.T) {
	prog := parseInspectSource(t)
	full := visits(prog, nil)
	for i, n := range full {
		below := len(visits(n, nil)) - 1
		want := append(append([]any{}, full[:i+1]...), full[i+1+below:]...)
		if got := visits(prog, n); !sameNodes(got, want) {
			t.Fatalf("pruning at node %d (%T) visited %d nodes, want %d", i, n, len(got), len(want))
		}
	}
}

func sameNodes(a, b []any) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
