package spmd

import (
	"strings"
	"testing"

	"procdecomp/internal/dist"
	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
)

// sample builds a small program exercising every statement kind.
func sample() *Program {
	j := expr.V("j")
	me := expr.V(Me)
	d := dist.NewCyclicCols(4, 8, 8)
	return &Program{
		Name:   "sample",
		Proc:   -1,
		Params: []ArrayInfo{{Name: "Old", Dist: d, GlobalShape: []int64{8, 8}}},
		Arrays: map[string]ArrayInfo{
			"Old": {Name: "Old", Dist: d, GlobalShape: []int64{8, 8}},
			"New": {Name: "New", Dist: d, GlobalShape: []int64{8, 8}},
		},
		Body: []Stmt{
			&Alloc{Array: "New", Shape: []expr.Expr{expr.C(8), expr.C(2)}},
			&AllocBuf{Buf: "buf", Size: expr.C(6)},
			&Guard{Proc: expr.Mod(j, expr.C(4)), Body: []Stmt{
				&AssignIVar{Name: "x", Val: VConst{F: 5}},
			}},
			&Coerce{Dst: "t1", Var: "x", Owner: expr.C(0), Needer: expr.C(2), Tag: 7},
			&For{Var: "j", Lo: expr.C(2), Hi: expr.C(7), Step: expr.C(1), Body: []Stmt{
				&ARead{Dst: "t2", Array: "Old", Idx: []expr.Expr{expr.V("i"), expr.C(1)}},
				&Send{Dst: expr.Mod(expr.Sub(j, expr.C(1)), expr.C(4)), Tag: 3, Val: VVar{Name: "t2"}},
				&Recv{Src: me, Tag: 3, Dst: "t3"},
				&BufWrite{Buf: "buf", Idx: expr.V("j"), Val: VBin{Op: lang.OpAdd, L: VVar{Name: "t2"}, R: VVar{Name: "t3"}}},
				&BufRead{Dst: "t4", Buf: "buf", Idx: expr.V("j")},
				&AWrite{Array: "New", Idx: []expr.Expr{expr.V("i"), expr.C(1)}, Val: VUn{Op: lang.OpNeg, X: VVar{Name: "t4"}}},
			}},
			&SendBuf{Dst: expr.C(1), Tag: 9, Buf: "buf", Lo: expr.C(1), Hi: expr.C(6)},
			&RecvBuf{Src: expr.C(1), Tag: 9, Buf: "buf", Lo: expr.C(1), Hi: expr.C(6)},
			&IfValue{Cond: VBin{Op: lang.OpLt, L: VInt{X: j}, R: VConst{F: 4}},
				Then: []Stmt{&AssignVar{Name: "y", Val: VInt{X: j}}},
				Else: []Stmt{&AssignVar{Name: "y", Val: VConst{F: 0}}}},
		},
		Outputs: []OutVar{{Name: "New", IsArray: true}},
	}
}

func TestFormatCoversAllStatements(t *testing.T) {
	out := Format(sample())
	for _, want := range []string{
		"generic (run-time resolution)",
		"local_alloc(8, 2)",
		"buf := vector[6]",
		"mynode()",
		"x = 5  -- I-var",
		"coerce(x, 0, 2)",
		"for j = 2 to 7 {",
		"is_read(Old[i, 1])",
		"send(t2, to ((j + 3) mod 4))",
		"t3 := receive(from me)",
		"buf[j] := (t2 + t3)",
		"is_write(New[i, 1], (- t4))",
		"send(buf[1..6], to 1)",
		"buf[1..6] := receive(from 1)",
		"if (j < 4) {",
		"} else {",
		"output New",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted program missing %q:\n%s", want, out)
		}
	}
}

func TestFormatSpecialized(t *testing.T) {
	p := sample()
	p.Proc = 2
	if !strings.Contains(Format(p), "specialized for process 2") {
		t.Error("specialized header missing")
	}
}

// TestCloneBodyIndependence: a program copy's containers and statement lists
// are its own, and its leaves are the original's.
func TestCloneBodyIndependence(t *testing.T) {
	p := sample()
	before := Format(p)
	clone := p.CloneProgram().Body
	cloneFor := clone[4].(*For)
	cloneFor.Lo = expr.C(3)
	cloneFor.Body = append(cloneFor.Body, &AssignVar{Name: "extra", Val: VConst{}})
	cloneFor.Body[0] = &AssignVar{Name: "other", Val: VConst{}}
	clone[2].(*Guard).Body[0] = &AssignVar{Name: "other", Val: VConst{}}
	clone[7].(*IfValue).Else = nil
	clone[0] = &AllocBuf{Buf: "other", Size: expr.C(1)}
	if got := Format(p); got != before {
		t.Errorf("rewriting the clone's containers changed the original:\n%s", got)
	}
	sharedLeaves(t, p.Body, p.CloneProgram().Body)
}

// sharedLeaves fails unless out, a copy of body, has body's shape with new
// containers and shares each of body's leaves that it formats alike: a leaf
// is copied only where a substitution changed it.
func sharedLeaves(t *testing.T, body, out []Stmt) {
	t.Helper()
	if len(out) != len(body) {
		t.Fatalf("the copy has %d statements, want %d", len(out), len(body))
	}
	for i, s := range body {
		switch s := s.(type) {
		case *For:
			if out[i] == Stmt(s) {
				t.Errorf("loop %s is shared", s.Var)
			}
			sharedLeaves(t, s.Body, out[i].(*For).Body)
		case *Guard:
			if out[i] == Stmt(s) {
				t.Error("a guard is shared")
			}
			sharedLeaves(t, s.Body, out[i].(*Guard).Body)
		case *IfValue:
			if out[i] == Stmt(s) {
				t.Error("an if is shared")
			}
			sharedLeaves(t, s.Then, out[i].(*IfValue).Then)
			sharedLeaves(t, s.Else, out[i].(*IfValue).Else)
		default:
			var was, is strings.Builder
			FormatBody(&was, []Stmt{s}, 0)
			FormatBody(&is, out[i:i+1], 0)
			if changed := was.String() != is.String(); changed == (out[i] == s) {
				t.Errorf("leaf %q: changed is %v, shared is %v", strings.TrimSpace(was.String()), changed, out[i] == s)
			}
		}
	}
}

// TestSubstBodyLoopVar: SubstBody replaces a variable in every integer
// expression of a copy, bounds, subscripts, values and processes alike, leaves
// its input as it was, and copies only the leaves that mention the variable.
func TestSubstBodyLoopVar(t *testing.T) {
	body := []Stmt{
		&For{Var: "k", Lo: expr.C(0), Hi: expr.V("r"), Step: expr.C(1), Body: []Stmt{
			&AWrite{Array: "A", Idx: []expr.Expr{expr.V("r"), expr.V("k")}, Val: VInt{X: expr.V("r")}},
			&AssignVar{Name: "t", Val: VInt{X: expr.V("k")}},
		}},
	}
	out := SubstBody(body, "r", expr.C(5))
	f := out[0].(*For)
	if v, _ := f.Hi.ConstVal(); v != 5 {
		t.Errorf("Hi not substituted: %v", f.Hi)
	}
	w := f.Body[0].(*AWrite)
	if v, _ := w.Idx[0].ConstVal(); v != 5 {
		t.Errorf("index not substituted: %v", w.Idx[0])
	}
	if FormatV(w.Val) != "5" {
		t.Errorf("VInt not substituted: %s", FormatV(w.Val))
	}
	// The loop variable itself must be untouched.
	if !w.Idx[1].Equal(expr.V("k")) {
		t.Error("loop variable was substituted")
	}
	if !body[0].(*For).Hi.Equal(expr.V("r")) || !body[0].(*For).Body[0].(*AWrite).Idx[0].Equal(expr.V("r")) {
		t.Error("SubstBody rewrote its input")
	}
	sharedLeaves(t, body, out)
}

// TestSubstBodyMe: me, in a process, a subscript and a value, is substituted
// everywhere in the copy, and the input keeps it.
func TestSubstBodyMe(t *testing.T) {
	p := sample()
	before := Format(p)
	me := SubstBody(p.Body, Me, expr.C(2))
	if v, ok := me[4].(*For).Body[2].(*Recv).Src.ConstVal(); !ok || v != 2 {
		t.Errorf("me not substituted in Recv.Src: %v", me[4].(*For).Body[2].(*Recv).Src)
	}
	var b strings.Builder
	FormatBody(&b, me, 0)
	if strings.Contains(b.String(), "me") {
		t.Errorf("substituted body still mentions me:\n%s", b.String())
	}
	if Format(p) != before {
		t.Error("SubstBody rewrote its input")
	}
	sharedLeaves(t, p.Body, me)
}

func TestSubstVExpr(t *testing.T) {
	v := VBin{Op: lang.OpAdd, L: VInt{X: expr.V("r")}, R: VUn{Op: lang.OpNeg, X: VInt{X: expr.V("r")}}}
	got := SubstVExpr(v, "r", expr.C(3))
	if FormatV(got) != "(3 + (- 3))" {
		t.Errorf("got %s", FormatV(got))
	}
}

func TestVExprEqual(t *testing.T) {
	a := VBin{Op: lang.OpAdd, L: VConst{F: 1}, R: VVar{Name: "x"}}
	b := VBin{Op: lang.OpAdd, L: VConst{F: 1}, R: VVar{Name: "x"}}
	c := VBin{Op: lang.OpAdd, L: VConst{F: 2}, R: VVar{Name: "x"}}
	if !VExprEqual(a, b) || VExprEqual(a, c) {
		t.Error("VExprEqual misreports")
	}
	if !VExprEqual(nil, nil) || VExprEqual(a, nil) {
		t.Error("nil handling wrong")
	}
}

// TestCloneProgram: a program's copy carries its metadata; its body is
// TestCloneBodyIndependence's.
func TestCloneProgram(t *testing.T) {
	p := sample()
	c := p.CloneProgram()
	if c.Name != p.Name || len(c.Outputs) != len(p.Outputs) {
		t.Error("metadata not carried over")
	}
}

// TestInspect pins the IR's child rule: statements in order, a For's and a
// Guard's body, an IfValue's Then before its Else, and a false return skips
// the nested statements of that one statement and nothing else.
func TestInspect(t *testing.T) {
	send := &Send{Dst: expr.C(1), Tag: 1, Val: VConst{F: 1}}
	recv := &Recv{Src: expr.C(0), Tag: 2, Dst: "r"}
	iff := &IfValue{Cond: VVar{Name: "c"}, Then: []Stmt{send}, Else: []Stmt{recv}}
	guard := &Guard{Proc: expr.C(0), Body: []Stmt{iff}}
	assign := &AssignVar{Name: "t", Val: VConst{F: 2}}
	inner := &For{Var: "j", Lo: expr.C(1), Hi: expr.C(2), Step: expr.C(1), Body: []Stmt{assign}}
	loop := &For{Var: "i", Lo: expr.C(1), Hi: expr.C(4), Step: expr.C(1), Body: []Stmt{guard, inner}}
	alloc := &Alloc{Array: "A", Shape: []expr.Expr{expr.C(4)}}
	coerce := &Coerce{Dst: "v", Var: "x", OwnerAll: true, NeederAll: true, Tag: 3}
	body := []Stmt{alloc, loop, coerce}
	name := map[Stmt]string{send: "send", recv: "recv", iff: "if", guard: "guard",
		assign: "assign", inner: "inner", loop: "loop", alloc: "alloc", coerce: "coerce"}

	walk := func(prune Stmt) string {
		var got []string
		Inspect(body, func(st Stmt) bool {
			got = append(got, name[st])
			return st != prune
		})
		return strings.Join(got, " ")
	}
	for _, c := range []struct {
		prune Stmt
		want  string
	}{
		{nil, "alloc loop guard if send recv inner assign coerce"},
		{loop, "alloc loop coerce"},
		{guard, "alloc loop guard inner assign coerce"},
		{iff, "alloc loop guard if inner assign coerce"},
		{inner, "alloc loop guard if send recv inner coerce"},
		{send, "alloc loop guard if send recv inner assign coerce"},
	} {
		if got := walk(c.prune); got != c.want {
			t.Errorf("pruning at %s: visited %q, want %q", name[c.prune], got, c.want)
		}
	}
}
