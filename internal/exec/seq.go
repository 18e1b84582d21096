// Package exec provides the two execution engines of the reproduction: a
// sequential reference interpreter for checked Idn programs (the semantics
// the programmer debugged against, §1), and an SPMD interpreter that runs
// compiled per-process programs on the simulated multicomputer, charging the
// machine's cost model. Comparing the two on the same inputs is how the test
// suite establishes that process decomposition preserves program meaning.
//
// The SPMD interpreter is one stepper (step.go) over two data domains.
// RunSPMD drives it with real values on a machine.Proc; (*Lowered).Walk
// drives it with no data at all and reports what the run would charge and
// communicate to a Sink — the static cost model of internal/autotune. The
// cost semantics are stated once, in the stepper.
//
// The stepper runs lowered programs only. Lower (lower.go) resolves an
// spmd.Program once: variable, array, buffer and scalar I-variable names
// become integer slots, every expr.Expr becomes an expr.Code over the
// variable slots, and each value expression's operator count becomes a
// constant. What is left for a step is what depends on the run: the frame
// (a Value and an int64 view of each variable slot, with a known bit that
// an untracked value clears), the checks, the charges and the messages.
// Each distinct program is lowered once per run or walk — the generic
// program of run-time resolution once, not once per process — and nothing
// lowered outlives the call that lowered it. RunSPMD's set-up is linear as
// well: a parameter is scattered to all processes in one pass over its
// elements. The sequential interpreter in this file shares none of this; it
// is the oracle the rest is checked against. It too resolves, then runs: a
// pre-pass over the Idn AST gives each sem.Symbol a slot in its procedure's
// frame and turns each statement and expression into a closure, so a run
// touches no map and no name. It resolves through sem.Info, not through
// Lower, so that the two sides share one definition only: lang's operator
// table, whose evaluator (lang.EvalBin, lang.EvalUn) computes div and mod as
// expr.FloorDiv and expr.EucMod.
package exec

import (
	"fmt"

	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
)

// Value is a runtime scalar.
type Value = float64

// ArgVal is an argument to (or result of) a program: exactly one field set.
type ArgVal struct {
	Matrix *istruct.Matrix
	Vector *istruct.Vector
	IsScal bool
	Scalar Value
}

// Outcome is the result of a sequential run.
type Outcome struct {
	HasRet bool
	Ret    ArgVal
}

// slot is the storage of one symbol in one activation. sem forbids shadowing
// and recursion, so a symbol is a slot of its procedure's frame; which field
// is live is decided once, from the symbol's kind and type.
type slot struct {
	ivar   istruct.IVar    // scalars (single-assignment)
	loop   Value           // loop variables (mutable)
	matrix *istruct.Matrix // arrays
	vector *istruct.Vector
}

func (s *slot) array() ArgVal { return ArgVal{Matrix: s.matrix, Vector: s.vector} }

// frame is one activation: its slots, and the outcome a return statement sets.
type frame struct {
	slots []slot
	Outcome
}

// Resolved expressions and statements are closures over the frame they run in.
type evalFn func(*frame) Value
type execFn func(*frame)

// seqProc is a resolved procedure. Parameters hold slots 0..len(Params)-1.
type seqProc struct {
	*sem.Proc
	nslots int
	body   execFn
}

// seqFailure carries a run-time error of the interpreted program up to
// RunSequential. It is the only panic RunSequential recovers: any other is a
// bug in the interpreter (or an inconsistent sem.Info) and propagates.
type seqFailure struct{ err error }

func seqFail(pos lang.Pos, format string, args ...any) {
	panic(seqFailure{fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...))})
}

func seqCheck(err error) {
	if err != nil {
		panic(seqFailure{err})
	}
}

func seqValue(v Value, err error) Value {
	seqCheck(err)
	return v
}

// RunSequential interprets procedure procName of the checked program with
// the given arguments, using the reference (single machine, global arrays)
// semantics. I-structure violations and other run-time errors are returned
// as errors.
func RunSequential(info *sem.Info, procName string, args []ArgVal) (out *Outcome, err error) {
	p, ok := info.Procs[procName]
	if !ok {
		return nil, fmt.Errorf("exec: no procedure %s", procName)
	}
	if len(args) != len(p.Params) {
		return nil, fmt.Errorf("exec: %s expects %d argument(s), got %d", procName, len(p.Params), len(args))
	}
	entry := (&resolver{info: info, procs: map[*sem.Proc]*seqProc{}, slots: map[*sem.Symbol]int{}}).proc(p)
	defer func() {
		switch r := recover().(type) {
		case nil:
		case seqFailure:
			out, err = nil, r.err
		default:
			panic(r)
		}
	}()
	res := entry.run(args)
	return &res, nil
}

// run is one activation: bind the arguments, checking each against its
// parameter's kind and declared shape, and execute the body in a new frame.
func (p *seqProc) run(args []ArgVal) Outcome {
	f := &frame{slots: make([]slot, p.nslots)}
	for i, prm := range p.Params {
		a, s, dims := args[i], &f.slots[i], prm.Type.Dims
		switch prm.Type.Base {
		case lang.TMatrix:
			if a.Matrix == nil {
				seqFail(p.Decl.Pos, "argument %d of %s must be a matrix", i+1, p.Name)
			}
			if rows, cols := a.Matrix.Rows(), a.Matrix.Cols(); rows != dims[0] || cols != dims[1] {
				seqFail(p.Decl.Pos, "argument %d of %s must be a %dx%d matrix, got %dx%d", i+1, p.Name, dims[0], dims[1], rows, cols)
			}
			s.matrix = a.Matrix
		case lang.TVector:
			if a.Vector == nil {
				seqFail(p.Decl.Pos, "argument %d of %s must be a vector", i+1, p.Name)
			}
			if n := a.Vector.Len(); n != dims[0] {
				seqFail(p.Decl.Pos, "argument %d of %s must be a vector of length %d, got %d", i+1, p.Name, dims[0], n)
			}
			s.vector = a.Vector
		default:
			s.ivar = *istruct.NewIVar(prm.Name)
			seqCheck(s.ivar.Write(a.Scalar))
		}
	}
	p.body(f)
	return f.Outcome
}

// resolver turns checked procedures into seqProcs. Its maps exist only while
// it resolves: what it produces holds slot indices, values and closures.
type resolver struct {
	info  *sem.Info
	procs map[*sem.Proc]*seqProc
	slots map[*sem.Symbol]int // a symbol's slot in its own procedure's frame
	cur   *seqProc            // the procedure being resolved
}

// proc resolves p once, and through its call sites every procedure it can
// reach; sem has already rejected recursion.
func (r *resolver) proc(p *sem.Proc) *seqProc {
	if sp, ok := r.procs[p]; ok {
		return sp
	}
	sp := &seqProc{Proc: p}
	r.procs[p] = sp
	in := &resolver{info: r.info, procs: r.procs, slots: r.slots, cur: sp}
	for _, prm := range p.Params {
		in.bind(prm)
	}
	sp.body = in.block(p.Decl.Body)
	return sp
}

// bind gives a symbol being declared the current procedure's next slot.
func (r *resolver) bind(sym *sem.Symbol) int {
	i := r.cur.nslots
	r.cur.nslots++
	r.slots[sym] = i
	return i
}

// slot returns the slot a symbol was bound to when it was declared.
func (r *resolver) slot(sym *sem.Symbol) int {
	i, ok := r.slots[sym]
	if !ok {
		panic(fmt.Sprintf("exec: %s %s is used before it is declared", sym.Kind, sym.Name))
	}
	return i
}

// element resolves an array element reference, node[indices]: the array's
// slot and subscripts. col is nil for a vector.
func (r *resolver) element(node any, indices []lang.Expr) (i int, row, col evalFn) {
	sym := r.info.SymbolOf(node)
	if sym.Type.Base == lang.TMatrix {
		col = r.expr(indices[1])
	}
	return r.slot(sym), r.expr(indices[0]), col
}

func (r *resolver) block(b *lang.Block) execFn {
	stmts := make([]execFn, len(b.Stmts))
	for i, st := range b.Stmts {
		stmts[i] = r.stmt(st)
	}
	return func(f *frame) {
		for _, st := range stmts {
			if st(f); f.HasRet {
				return
			}
		}
	}
}

func (r *resolver) stmt(st lang.Stmt) execFn {
	switch st := st.(type) {
	case *lang.LetStmt:
		return r.let(st)
	case *lang.AssignStmt:
		i, value := r.slot(r.info.SymbolOf(st)), r.expr(st.Value)
		return func(f *frame) { seqCheck(f.slots[i].ivar.Write(value(f))) }
	case *lang.StoreStmt:
		i, row, col := r.element(st, st.Indices)
		value := r.expr(st.Value)
		if col == nil {
			return func(f *frame) {
				v := value(f)
				seqCheck(f.slots[i].vector.Write(int64(row(f)), v))
			}
		}
		return func(f *frame) {
			v := value(f)
			seqCheck(f.slots[i].matrix.Write(int64(row(f)), int64(col(f)), v))
		}
	case *lang.ForStmt:
		lo, hi := r.expr(st.Lo), r.expr(st.Hi)
		var step evalFn
		if st.Step != nil {
			step = r.expr(st.Step)
		}
		i := r.bind(r.info.SymbolOf(st))
		body, pos := r.block(st.Body), st.Pos
		return func(f *frame) {
			from, to, by := int64(lo(f)), int64(hi(f)), int64(1)
			if step != nil {
				if by = int64(step(f)); by <= 0 {
					seqFail(pos, "loop step must be positive, got %d", by)
				}
			}
			for x := from; x <= to && !f.HasRet; x += by {
				f.slots[i].loop = Value(x)
				body(f)
			}
		}
	case *lang.IfStmt:
		cond, then := r.expr(st.Cond), r.block(st.Then)
		els := func(*frame) {}
		if st.Else != nil {
			els = r.block(st.Else)
		}
		return func(f *frame) {
			if cond(f) != 0 {
				then(f)
			} else {
				els(f)
			}
		}
	case *lang.CallStmt:
		call := r.call(st.Pos, st.Name, st.Args, false)
		return func(f *frame) { call(f) }
	case *lang.ReturnStmt:
		value := func(*frame) ArgVal { return ArgVal{} }
		if vr, ok := st.Value.(*lang.VarRef); ok && r.info.SymbolOf(vr).Kind == sem.SymArray {
			i := r.slot(r.info.SymbolOf(vr))
			value = func(f *frame) ArgVal { return f.slots[i].array() }
		} else if st.Value != nil {
			scalar := r.expr(st.Value)
			value = func(f *frame) ArgVal { return ArgVal{IsScal: true, Scalar: scalar(f)} }
		}
		return func(f *frame) { f.Outcome = Outcome{HasRet: true, Ret: value(f)} }
	}
	panic(fmt.Sprintf("exec: sem accepted a statement the interpreter does not know: %T", st))
}

// let resolves a declaration. Executing it makes a fresh I-variable or array
// every time, so a let in a loop body is written once per iteration: the slot
// is reused, the storage is not.
func (r *resolver) let(st *lang.LetStmt) execFn {
	sym := r.info.SymbolOf(st)
	name, dims := st.Name, sym.Type.Dims
	switch init := st.Init.(type) {
	case *lang.AllocExpr:
		i, isMatrix := r.bind(sym), sym.Type.Base == lang.TMatrix
		return func(f *frame) {
			var err error
			if s := &f.slots[i]; isMatrix {
				s.matrix, err = istruct.NewMatrix(name, dims[0], dims[1])
			} else {
				s.vector, err = istruct.NewVector(name, dims[0])
			}
			seqCheck(err)
		}
	case *lang.CallExpr:
		if sym.Kind == sem.SymArray {
			call, i := r.call(init.Pos, init.Name, init.Args, true), r.bind(sym)
			return func(f *frame) {
				rv := call(f)
				f.slots[i].matrix, f.slots[i].vector = rv.Matrix, rv.Vector
			}
		}
	}
	value, i := r.expr(st.Init), r.bind(sym)
	return func(f *frame) {
		f.slots[i].ivar = *istruct.NewIVar(name)
		seqCheck(f.slots[i].ivar.Write(value(f)))
	}
}

// call resolves a call site: the arguments are evaluated left to right in
// the caller's frame, then the callee runs in a frame of its own. A call
// whose result is used must come back with one.
func (r *resolver) call(pos lang.Pos, name string, args []lang.Expr, used bool) func(*frame) ArgVal {
	callee := r.proc(r.info.Procs[name])
	argFns := make([]func(*frame) ArgVal, len(args))
	for i, a := range args {
		if callee.Params[i].Type.IsArray() {
			s := r.slot(r.info.SymbolOf(a.(*lang.VarRef)))
			argFns[i] = func(f *frame) ArgVal { return f.slots[s].array() }
		} else {
			value := r.expr(a)
			argFns[i] = func(f *frame) ArgVal { return ArgVal{IsScal: true, Scalar: value(f)} }
		}
	}
	return func(f *frame) ArgVal {
		vals := make([]ArgVal, len(argFns))
		for i, arg := range argFns {
			vals[i] = arg(f)
		}
		res := callee.run(vals)
		if used && !res.HasRet {
			seqFail(pos, "procedure %s did not return a value", name)
		}
		return res.Ret
	}
}

func (r *resolver) expr(e lang.Expr) evalFn {
	switch e := e.(type) {
	case *lang.NumLit:
		return func(*frame) Value { return e.Val }
	case *lang.BoolLit:
		v := Value(0)
		if e.Val {
			v = 1
		}
		return func(*frame) Value { return v }
	case *lang.VarRef:
		sym := r.info.SymbolOf(e)
		if sym.Kind == sem.SymConst {
			v := sym.Const
			return func(*frame) Value { return v }
		}
		i := r.slot(sym)
		if sym.Kind == sem.SymLoopVar {
			return func(f *frame) Value { return f.slots[i].loop }
		}
		return func(f *frame) Value { return seqValue(f.slots[i].ivar.Read()) }
	case *lang.IndexExpr:
		i, row, col := r.element(e, e.Indices)
		if col == nil {
			return func(f *frame) Value { return seqValue(f.slots[i].vector.Read(int64(row(f)))) }
		}
		return func(f *frame) Value { return seqValue(f.slots[i].matrix.Read(int64(row(f)), int64(col(f)))) }
	case *lang.UnExpr:
		op, x := e.Op, r.expr(e.X)
		return func(f *frame) Value { return lang.EvalUn(op, x(f)) }
	case *lang.BinExpr:
		op, l, rhs, pos := e.Op, r.expr(e.L), r.expr(e.R), e.Pos
		fail := func(msg string) { seqFail(pos, "%s", msg) }
		return func(f *frame) Value { return lang.EvalBin(op, l(f), rhs(f), fail) }
	case *lang.CallExpr:
		call, pos := r.call(e.Pos, e.Name, e.Args, true), e.Pos
		return func(f *frame) Value {
			rv := call(f)
			if !rv.IsScal {
				seqFail(pos, "array-valued call used as a scalar")
			}
			return rv.Scalar
		}
	}
	panic(fmt.Sprintf("exec: sem accepted an expression the interpreter does not know: %T", e))
}
