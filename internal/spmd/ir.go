// Package spmd defines the SPMD intermediate representation the
// process-decomposition compiler targets.
//
// A Program is the code for one process (or, for run-time resolution, the
// single "generic" program every process executes, parameterized by the
// special variable "me" — the paper's mynode()). Statements manipulate three
// kinds of state: write-once I-structure arrays (allocated per-process with
// their local shape), write-once scalar I-variables, and mutable compiler
// temporaries and message buffers. Communication is explicit: element sends
// and receives (the paper's csend/crecv), block transfers for vectorized
// messages, and the coerce primitive of run-time resolution (§3.1), which
// moves a value from its owner to the process that needs it.
//
// Index, bound, and processor expressions are symbolic integer expressions
// (internal/expr), which is what lets compile-time resolution and the §4
// transformations reason about them; data values are VExprs evaluated over
// the process's scalar environment.
package spmd

import (
	"procdecomp/internal/dist"
	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
)

// Me is the reserved variable bound to the executing process's number.
const Me = "me"

// Tag identifies a communication site; all messages of one syntactic
// send/recv/coerce site share a tag, and FIFO ordering per (source,
// destination, tag) does the rest.
type Tag = int64

// VExpr is a data-value expression evaluated at run time.
type VExpr interface{ vexpr() }

// VConst is a literal value.
type VConst struct{ F float64 }

// VVar reads a scalar variable, temporary, or I-variable.
type VVar struct{ Name string }

// VInt injects a symbolic integer expression (loop variables, processor
// arithmetic) as a data value.
type VInt struct{ X expr.Expr }

// VBin applies a binary operator. Comparisons yield 1 or 0; "and"/"or" are
// strict.
type VBin struct {
	Op   lang.Op
	L, R VExpr
}

// VUn applies a unary operator (negation or not).
type VUn struct {
	Op lang.Op
	X  VExpr
}

func (VConst) vexpr() {}
func (VVar) vexpr()   {}
func (VInt) vexpr()   {}
func (VBin) vexpr()   {}
func (VUn) vexpr()    {}

// Stmt is one IR statement.
type Stmt interface{ stmt() }

// Alloc allocates the local part of an I-structure array; Shape is the local
// allocation (the paper's alloc function applied by the compiler).
type Alloc struct {
	Array string
	Shape []expr.Expr
}

// AllocBuf allocates a mutable message buffer of the given size (1-based
// indexing, like the paper's oldvalues/snewvalues/rnewvalues vectors).
type AllocBuf struct {
	Buf  string
	Size expr.Expr
}

// AssignVar sets a mutable compiler temporary.
type AssignVar struct {
	Name string
	Val  VExpr
}

// AssignIVar writes a program-level scalar I-variable (write-once). A
// definition (Def: a let, a formal, a scalar return) starts a fresh
// I-variable each time it runs, as the sequential program binds a fresh one
// per execution; an assignment writes the current one.
type AssignIVar struct {
	Name string
	Val  VExpr
	Def  bool
}

// ARead loads a local I-structure element into a temporary. Idx is the LOCAL
// index (the compiler has already applied the mapping's local function).
type ARead struct {
	Dst   string
	Array string
	Idx   []expr.Expr
}

// AWrite stores into a local I-structure element (local index).
type AWrite struct {
	Array string
	Idx   []expr.Expr
	Val   VExpr
}

// BufRead loads buffer element Idx into a temporary.
type BufRead struct {
	Dst string
	Buf string
	Idx expr.Expr
}

// BufWrite stores into a buffer element.
type BufWrite struct {
	Buf string
	Idx expr.Expr
	Val VExpr
}

// Send transmits one value to process Dst.
type Send struct {
	Dst expr.Expr
	Tag Tag
	Val VExpr
}

// Recv receives one value from process Src into a temporary.
type Recv struct {
	Src expr.Expr
	Tag Tag
	Dst string
}

// SendBuf transmits buffer elements Lo..Hi (inclusive) in one message.
type SendBuf struct {
	Dst    expr.Expr
	Tag    Tag
	Buf    string
	Lo, Hi expr.Expr
}

// RecvBuf receives one message into buffer elements Lo..Hi (inclusive).
type RecvBuf struct {
	Src    expr.Expr
	Tag    Tag
	Buf    string
	Lo, Hi expr.Expr
}

// Coerce is run-time resolution's value-moving primitive (§3.1): the value
// of a scalar I-variable or array element travels from its owner to the
// process that needs it. When owner and needer coincide (or the data is
// replicated), it is just a read. Every process executes the Coerce; each
// plays its role.
type Coerce struct {
	Dst string // temporary defined on the needing process
	// Source: either a scalar I-variable (Array == "") or an array element
	// with its LOCAL index (meaningful on the owner).
	Array string
	Idx   []expr.Expr
	Var   string
	// Owner is the owning process (ignored when OwnerAll); Needer is the
	// process that needs the value (ignored when NeederAll, meaning every
	// process needs it — the owner broadcasts).
	Owner     expr.Expr
	OwnerAll  bool
	Needer    expr.Expr
	NeederAll bool
	Tag       Tag
}

// For is a counted loop with inclusive upper bound and positive step.
type For struct {
	Var          string
	Lo, Hi, Step expr.Expr
	Body         []Stmt
}

// Guard executes Body only on process Proc — run-time resolution's
// "if P = mynode() then ..." (Fig. 4b).
type Guard struct {
	Proc expr.Expr
	Body []Stmt
}

// IfValue branches on a run-time data value.
type IfValue struct {
	Cond VExpr
	Then []Stmt
	Else []Stmt
}

func (*Alloc) stmt()      {}
func (*AllocBuf) stmt()   {}
func (*AssignVar) stmt()  {}
func (*AssignIVar) stmt() {}
func (*ARead) stmt()      {}
func (*AWrite) stmt()     {}
func (*BufRead) stmt()    {}
func (*BufWrite) stmt()   {}
func (*Send) stmt()       {}
func (*Recv) stmt()       {}
func (*SendBuf) stmt()    {}
func (*RecvBuf) stmt()    {}
func (*Coerce) stmt()     {}
func (*For) stmt()        {}
func (*Guard) stmt()      {}
func (*IfValue) stmt()    {}

// ArrayInfo records the global view of a distributed array for result
// gathering and for the transformations.
type ArrayInfo struct {
	Name        string
	Dist        dist.Dist
	GlobalShape []int64
}

// OutVar names a program output: a distributed array (gathered from owners)
// or a scalar I-variable (read from its owner, or any process when
// replicated).
type OutVar struct {
	Name    string
	IsArray bool
	// Dist of a scalar output (owner); arrays use Arrays[Name].Dist.
	ScalarDist dist.Dist
}

// Program is the code for one process, or the generic run-time resolution
// program executed by all processes.
type Program struct {
	Name string
	// Proc is the process this program was specialized for, or -1 for the
	// generic (run-time resolution) program.
	Proc int
	// Params declares input arrays (allocated and filled by the harness
	// before the run) in order.
	Params []ArrayInfo
	// Arrays records every distributed array the program touches, including
	// params and locally allocated ones.
	Arrays map[string]ArrayInfo
	Body   []Stmt
	// Outputs lists the values the program produces.
	Outputs []OutVar
}

// Clone returns a deep copy of the statement list (metadata is shared).
// Transformations clone before rewriting so the untransformed program
// remains usable.
func CloneBody(body []Stmt) []Stmt {
	out := make([]Stmt, len(body))
	for i, s := range body {
		out[i] = cloneStmt(s)
	}
	return out
}

func cloneStmt(s Stmt) Stmt {
	switch s := s.(type) {
	case *Alloc:
		c := *s
		c.Shape = append([]expr.Expr(nil), s.Shape...)
		return &c
	case *AllocBuf:
		c := *s
		return &c
	case *AssignVar:
		c := *s
		return &c
	case *AssignIVar:
		c := *s
		return &c
	case *ARead:
		c := *s
		c.Idx = append([]expr.Expr(nil), s.Idx...)
		return &c
	case *AWrite:
		c := *s
		c.Idx = append([]expr.Expr(nil), s.Idx...)
		return &c
	case *BufRead:
		c := *s
		return &c
	case *BufWrite:
		c := *s
		return &c
	case *Send:
		c := *s
		return &c
	case *Recv:
		c := *s
		return &c
	case *SendBuf:
		c := *s
		return &c
	case *RecvBuf:
		c := *s
		return &c
	case *Coerce:
		c := *s
		c.Idx = append([]expr.Expr(nil), s.Idx...)
		return &c
	case *For:
		c := *s
		c.Body = CloneBody(s.Body)
		return &c
	case *Guard:
		c := *s
		c.Body = CloneBody(s.Body)
		return &c
	case *IfValue:
		c := *s
		c.Then = CloneBody(s.Then)
		c.Else = CloneBody(s.Else)
		return &c
	default:
		panic("spmd: cloneStmt: unknown statement")
	}
}

// CloneProgram deep-copies a program's body (metadata shared).
func (p *Program) CloneProgram() *Program {
	c := *p
	c.Body = CloneBody(p.Body)
	return &c
}

// Inspect calls f on each statement of body in order and, when f returns
// true, inspects the statements nested in it the same way: a For's or a
// Guard's body, an IfValue's Then and then its Else. It is the IR's one child
// rule: code that only visits statements does so through Inspect, and code
// that rebuilds a body or carries context down it keeps its own switch.
func Inspect(body []Stmt, f func(Stmt) bool) {
	for _, st := range body {
		if !f(st) {
			continue
		}
		switch st := st.(type) {
		case *For:
			Inspect(st.Body, f)
		case *Guard:
			Inspect(st.Body, f)
		case *IfValue:
			Inspect(st.Then, f)
			Inspect(st.Else, f)
		}
	}
}

// SubstBody substitutes a symbolic variable (typically Me) by a constant in
// every integer expression of the body, in place. Used when specializing the
// generic program for one process.
func SubstBody(body []Stmt, name string, val expr.Expr) {
	Inspect(body, func(s Stmt) bool {
		substStmt(s, name, val)
		return true
	})
}

func substIdx(idx []expr.Expr, name string, val expr.Expr) {
	for i := range idx {
		idx[i] = idx[i].Subst(name, val)
	}
}

func substV(v VExpr, name string, val expr.Expr) VExpr {
	switch v := v.(type) {
	case VInt:
		return VInt{X: v.X.Subst(name, val)}
	case VBin:
		return VBin{Op: v.Op, L: substV(v.L, name, val), R: substV(v.R, name, val)}
	case VUn:
		return VUn{Op: v.Op, X: substV(v.X, name, val)}
	default:
		return v
	}
}

func substStmt(s Stmt, name string, val expr.Expr) {
	switch s := s.(type) {
	case *Alloc:
		substIdx(s.Shape, name, val)
	case *AllocBuf:
		s.Size = s.Size.Subst(name, val)
	case *AssignVar:
		s.Val = substV(s.Val, name, val)
	case *AssignIVar:
		s.Val = substV(s.Val, name, val)
	case *ARead:
		substIdx(s.Idx, name, val)
	case *AWrite:
		substIdx(s.Idx, name, val)
		s.Val = substV(s.Val, name, val)
	case *BufRead:
		s.Idx = s.Idx.Subst(name, val)
	case *BufWrite:
		s.Idx = s.Idx.Subst(name, val)
		s.Val = substV(s.Val, name, val)
	case *Send:
		s.Dst = s.Dst.Subst(name, val)
		s.Val = substV(s.Val, name, val)
	case *Recv:
		s.Src = s.Src.Subst(name, val)
	case *SendBuf:
		s.Dst = s.Dst.Subst(name, val)
		s.Lo = s.Lo.Subst(name, val)
		s.Hi = s.Hi.Subst(name, val)
	case *RecvBuf:
		s.Src = s.Src.Subst(name, val)
		s.Lo = s.Lo.Subst(name, val)
		s.Hi = s.Hi.Subst(name, val)
	case *Coerce:
		substIdx(s.Idx, name, val)
		if !s.OwnerAll {
			s.Owner = s.Owner.Subst(name, val)
		}
		if !s.NeederAll {
			s.Needer = s.Needer.Subst(name, val)
		}
	case *For:
		s.Lo = s.Lo.Subst(name, val)
		s.Hi = s.Hi.Subst(name, val)
		s.Step = s.Step.Subst(name, val)
	case *Guard:
		s.Proc = s.Proc.Subst(name, val)
	case *IfValue:
		s.Cond = substV(s.Cond, name, val)
	}
}
