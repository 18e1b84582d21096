// Package spmd defines the SPMD intermediate representation the
// process-decomposition compiler targets.
//
// A Program is the code for one process (or, for run-time resolution, the
// single "generic" program every process executes, whose guards and coerces
// compare process expressions with the paper's mynode()). Statements
// manipulate three kinds of state: write-once I-structure arrays (allocated
// per-process with their local shape), write-once scalar I-variables, and
// mutable compiler temporaries and message buffers. Communication is
// explicit: element sends and receives (the paper's csend/crecv), block
// transfers for vectorized messages, and the coerce primitive of run-time
// resolution (§3.1), which moves a value from its owner to the process that
// needs it.
//
// Index, bound, and processor expressions are symbolic integer expressions
// (internal/expr), which is what lets compile-time resolution and the §4
// transformations reason about them; data values are VExprs evaluated over
// the process's scalar environment.
//
// A leaf statement (every kind but For, Guard and IfValue) is never written
// after it is built, so programs share leaves freely: each process's
// specialized program shares the generic program's, and a copy made before a
// pass rewrites a stage (CloneProgram) rebuilds only the
// containers and the statement lists.
package spmd

import (
	"slices"

	"procdecomp/internal/dist"
	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
)

// Me is the reserved variable bound to the executing process's number. The
// compiler never emits it; programs built by hand may read it.
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

// SubstBody returns a copy of body with val in place of the variable name in
// every integer expression. Its containers (For, Guard, IfValue) and
// statement lists are new, and a leaf is copied only where name occurs in
// it; body is unchanged.
func SubstBody(body []Stmt, name string, val expr.Expr) []Stmt {
	return (&copier{name: name, val: val}).body(body)
}

// CloneProgram returns a copy of p whose containers and statement lists are
// new and whose leaf statements and metadata are shared. No code writes a
// field of a leaf after building it, so a pass may rewrite the copy's lists
// and loops while p stays as it was.
func (p *Program) CloneProgram() *Program {
	c := *p
	c.Body = (&copier{}).body(p.Body)
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

// copier is the IR's one copying rule. Containers are rebuilt; a leaf is
// shared unless name is set and occurs in it, and is then rebuilt with val
// substituted. hit records whether the statement being copied mentions name.
type copier struct {
	name string
	val  expr.Expr
	hit  bool
}

func (c *copier) body(in []Stmt) []Stmt {
	out := make([]Stmt, len(in))
	for i, s := range in {
		out[i] = c.stmt(s)
	}
	return out
}

func (c *copier) x(e expr.Expr) expr.Expr {
	if c.name == "" || !e.HasVar(c.name) {
		return e
	}
	c.hit = true
	return e.Subst(c.name, c.val)
}

func (c *copier) xs(idx []expr.Expr) []expr.Expr {
	if c.name == "" || !slices.ContainsFunc(idx, func(e expr.Expr) bool { return e.HasVar(c.name) }) {
		return idx
	}
	out := make([]expr.Expr, len(idx))
	for i, e := range idx {
		out[i] = c.x(e)
	}
	return out
}

func (c *copier) v(v VExpr) VExpr {
	if c.name == "" {
		return v
	}
	out, hit := substV(v, c.name, c.val)
	c.hit = c.hit || hit
	return out
}

func (c *copier) stmt(s Stmt) Stmt {
	c.hit = false
	switch s := s.(type) {
	case *For:
		return &For{Var: s.Var, Lo: c.x(s.Lo), Hi: c.x(s.Hi), Step: c.x(s.Step), Body: c.body(s.Body)}
	case *Guard:
		return &Guard{Proc: c.x(s.Proc), Body: c.body(s.Body)}
	case *IfValue:
		return &IfValue{Cond: c.v(s.Cond), Then: c.body(s.Then), Else: c.body(s.Else)}
	case *Alloc:
		if shape := c.xs(s.Shape); c.hit {
			return &Alloc{Array: s.Array, Shape: shape}
		}
	case *AllocBuf:
		if size := c.x(s.Size); c.hit {
			return &AllocBuf{Buf: s.Buf, Size: size}
		}
	case *AssignVar:
		if val := c.v(s.Val); c.hit {
			return &AssignVar{Name: s.Name, Val: val}
		}
	case *AssignIVar:
		if val := c.v(s.Val); c.hit {
			return &AssignIVar{Name: s.Name, Val: val, Def: s.Def}
		}
	case *ARead:
		if idx := c.xs(s.Idx); c.hit {
			return &ARead{Dst: s.Dst, Array: s.Array, Idx: idx}
		}
	case *AWrite:
		if idx, val := c.xs(s.Idx), c.v(s.Val); c.hit {
			return &AWrite{Array: s.Array, Idx: idx, Val: val}
		}
	case *BufRead:
		if idx := c.x(s.Idx); c.hit {
			return &BufRead{Dst: s.Dst, Buf: s.Buf, Idx: idx}
		}
	case *BufWrite:
		if idx, val := c.x(s.Idx), c.v(s.Val); c.hit {
			return &BufWrite{Buf: s.Buf, Idx: idx, Val: val}
		}
	case *Send:
		if dst, val := c.x(s.Dst), c.v(s.Val); c.hit {
			return &Send{Dst: dst, Tag: s.Tag, Val: val}
		}
	case *Recv:
		if src := c.x(s.Src); c.hit {
			return &Recv{Src: src, Tag: s.Tag, Dst: s.Dst}
		}
	case *SendBuf:
		if dst, lo, hi := c.x(s.Dst), c.x(s.Lo), c.x(s.Hi); c.hit {
			return &SendBuf{Dst: dst, Tag: s.Tag, Buf: s.Buf, Lo: lo, Hi: hi}
		}
	case *RecvBuf:
		if src, lo, hi := c.x(s.Src), c.x(s.Lo), c.x(s.Hi); c.hit {
			return &RecvBuf{Src: src, Tag: s.Tag, Buf: s.Buf, Lo: lo, Hi: hi}
		}
	case *Coerce:
		if idx, owner, needer := c.xs(s.Idx), c.x(s.Owner), c.x(s.Needer); c.hit {
			d := *s
			d.Idx, d.Owner, d.Needer = idx, owner, needer
			return &d
		}
	default:
		panic("spmd: copy: unknown statement")
	}
	return s
}

// substV returns v with val in place of name in its integer parts, and
// whether name occurs in v; v itself when it does not.
func substV(v VExpr, name string, val expr.Expr) (VExpr, bool) {
	switch v := v.(type) {
	case VInt:
		if v.X.HasVar(name) {
			return VInt{X: v.X.Subst(name, val)}, true
		}
	case VBin:
		l, lhit := substV(v.L, name, val)
		r, rhit := substV(v.R, name, val)
		if lhit || rhit {
			return VBin{Op: v.Op, L: l, R: r}, true
		}
	case VUn:
		if x, hit := substV(v.X, name, val); hit {
			return VUn{Op: v.Op, X: x}, true
		}
	}
	return v, false
}
