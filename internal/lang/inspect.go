package lang

import "fmt"

// Inspect traverses the tree rooted at n in source order: it calls f(n) and,
// if f returns true, inspects each of n's present children the same way. A
// node is a *Program, a Decl, a *Param, a *TypeExpr, a *MapExpr, a *Block, a
// Stmt or an Expr. A mapping is passed as the *MapExpr where the tree stores
// it (the field's pointer, or the address of a DistArgs element), so f may
// rewrite it in place; and since n's children are read after f returns, a
// rewrite of n's own fields steers the descent.
//
// This is the front end's one child rule: code that only visits a tree does
// so through Inspect, and code that builds or evaluates one (the parser, the
// printer, clone, the checker, the interpreters) keeps its own switch.
func Inspect(n any, f func(any) bool) {
	if absent(n) || !f(n) {
		return
	}
	switch n := n.(type) {
	case *Program:
		for _, d := range n.Decls {
			Inspect(d, f)
		}
	case *ConstDecl:
		Inspect(n.Value, f)
	case *DistDecl:
		inspectList(n.Args, f)
	case *ProcDecl:
		for i := range n.Params {
			Inspect(&n.Params[i], f)
		}
		Inspect(n.RetType, f)
		Inspect(n.RetMap, f)
		Inspect(n.Body, f)
	case *Param:
		Inspect(&n.Type, f)
		Inspect(n.Map, f)
	case *TypeExpr:
		inspectList(n.Dims, f)
	case *MapExpr:
		Inspect(n.Proc, f)
	case *Block:
		for _, s := range n.Stmts {
			Inspect(s, f)
		}
	case *LetStmt:
		Inspect(n.Type, f)
		Inspect(n.Map, f)
		Inspect(n.Init, f)
	case *AssignStmt:
		Inspect(n.Value, f)
	case *StoreStmt:
		inspectList(n.Indices, f)
		Inspect(n.Value, f)
	case *ForStmt:
		Inspect(n.Lo, f)
		Inspect(n.Hi, f)
		Inspect(n.Step, f)
		Inspect(n.Body, f)
	case *IfStmt:
		Inspect(n.Cond, f)
		Inspect(n.Then, f)
		Inspect(n.Else, f)
	case *CallStmt:
		inspectCall(n.DistArgs, n.Args, f)
	case *ReturnStmt:
		Inspect(n.Value, f)
	case *IndexExpr:
		inspectList(n.Indices, f)
	case *BinExpr:
		Inspect(n.L, f)
		Inspect(n.R, f)
	case *UnExpr:
		Inspect(n.X, f)
	case *CallExpr:
		inspectCall(n.DistArgs, n.Args, f)
	case *AllocExpr:
		inspectList(n.Dims, f)
	case *NumLit, *BoolLit, *VarRef:
	default:
		panic(fmt.Sprintf("lang: Inspect: unexpected node %T", n))
	}
}

// absent reports a missing optional child: a nil Expr, or a nil *Block,
// *TypeExpr or *MapExpr field.
func absent(n any) bool {
	switch n := n.(type) {
	case nil:
		return true
	case *Block:
		return n == nil
	case *TypeExpr:
		return n == nil
	case *MapExpr:
		return n == nil
	}
	return false
}

func inspectList(es []Expr, f func(any) bool) {
	for _, e := range es {
		Inspect(e, f)
	}
}

func inspectCall(distArgs []MapExpr, args []Expr, f func(any) bool) {
	for i := range distArgs {
		Inspect(&distArgs[i], f)
	}
	inspectList(args, f)
}
