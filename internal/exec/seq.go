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
// is the oracle the rest is checked against.
package exec

import (
	"fmt"
	"math"

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

// binding is one scope entry of the sequential interpreter.
type binding struct {
	sym    *sem.Symbol
	ivar   *istruct.IVar   // scalars (single-assignment)
	loop   *Value          // loop variables (mutable)
	matrix *istruct.Matrix // arrays
	vector *istruct.Vector
}

type seqInterp struct {
	info   *sem.Info
	scopes []map[string]*binding
}

type returnSignal struct{ val ArgVal }

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
	it := &seqInterp{info: info}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				out, err = nil, e
				return
			}
			panic(r)
		}
	}()
	ret, hasRet := it.call(p, args)
	return &Outcome{HasRet: hasRet, Ret: ret}, nil
}

func (it *seqInterp) fail(pos lang.Pos, format string, args ...any) {
	panic(fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

func (it *seqInterp) failErr(err error) { panic(err) }

func (it *seqInterp) call(p *sem.Proc, args []ArgVal) (ArgVal, bool) {
	saved := it.scopes
	it.scopes = []map[string]*binding{{}}
	defer func() { it.scopes = saved }()

	for i, prm := range p.Params {
		b := &binding{sym: prm}
		a := args[i]
		switch {
		case prm.Type.Base == lang.TMatrix:
			if a.Matrix == nil {
				it.fail(p.Decl.Pos, "argument %d of %s must be a matrix", i+1, p.Name)
			}
			b.matrix = a.Matrix
		case prm.Type.Base == lang.TVector:
			if a.Vector == nil {
				it.fail(p.Decl.Pos, "argument %d of %s must be a vector", i+1, p.Name)
			}
			b.vector = a.Vector
		default:
			b.ivar = istruct.NewIVar(prm.Name)
			if err := b.ivar.Write(a.Scalar); err != nil {
				it.failErr(err)
			}
		}
		it.scopes[0][prm.Name] = b
	}

	var ret ArgVal
	hasRet := false
	func() {
		defer func() {
			if r := recover(); r != nil {
				if sig, ok := r.(returnSignal); ok {
					ret, hasRet = sig.val, true
					return
				}
				panic(r)
			}
		}()
		it.block(p.Decl.Body)
	}()
	return ret, hasRet
}

func (it *seqInterp) pushScope() { it.scopes = append(it.scopes, map[string]*binding{}) }
func (it *seqInterp) popScope()  { it.scopes = it.scopes[:len(it.scopes)-1] }

func (it *seqInterp) lookup(name string) *binding {
	for i := len(it.scopes) - 1; i >= 0; i-- {
		if b, ok := it.scopes[i][name]; ok {
			return b
		}
	}
	return nil
}

func (it *seqInterp) block(b *lang.Block) {
	it.pushScope()
	defer it.popScope()
	for _, st := range b.Stmts {
		it.stmt(st)
	}
}

func (it *seqInterp) stmt(st lang.Stmt) {
	switch st := st.(type) {
	case *lang.LetStmt:
		sym := it.info.SymbolOf(st)
		b := &binding{sym: sym}
		switch {
		case sym.Kind == sem.SymArray:
			if _, isAlloc := st.Init.(*lang.AllocExpr); isAlloc {
				if sym.Type.Base == lang.TMatrix {
					m, err := istruct.NewMatrix(st.Name, sym.Type.Dims[0], sym.Type.Dims[1])
					if err != nil {
						it.failErr(err)
					}
					b.matrix = m
				} else {
					v, err := istruct.NewVector(st.Name, sym.Type.Dims[0])
					if err != nil {
						it.failErr(err)
					}
					b.vector = v
				}
			} else {
				// Array-valued call.
				call := st.Init.(*lang.CallExpr)
				rv := it.evalCall(call)
				b.matrix, b.vector = rv.Matrix, rv.Vector
			}
		default:
			b.ivar = istruct.NewIVar(st.Name)
			if err := b.ivar.Write(it.eval(st.Init)); err != nil {
				it.failErr(err)
			}
		}
		it.scopes[len(it.scopes)-1][st.Name] = b
	case *lang.AssignStmt:
		b := it.lookup(st.Name)
		v := it.eval(st.Value)
		if err := b.ivar.Write(v); err != nil {
			it.failErr(err)
		}
	case *lang.StoreStmt:
		b := it.lookup(st.Array)
		v := it.eval(st.Value)
		if b.matrix != nil {
			i, j := it.evalInt(st.Indices[0]), it.evalInt(st.Indices[1])
			if err := b.matrix.Write(i, j, v); err != nil {
				it.failErr(err)
			}
		} else {
			i := it.evalInt(st.Indices[0])
			if err := b.vector.Write(i, v); err != nil {
				it.failErr(err)
			}
		}
	case *lang.ForStmt:
		lo, hi := it.evalInt(st.Lo), it.evalInt(st.Hi)
		step := int64(1)
		if st.Step != nil {
			step = it.evalInt(st.Step)
			if step <= 0 {
				it.fail(st.Pos, "loop step must be positive, got %d", step)
			}
		}
		v := Value(0)
		b := &binding{sym: it.info.SymbolOf(st), loop: &v}
		it.pushScope()
		it.scopes[len(it.scopes)-1][st.Var] = b
		for x := lo; x <= hi; x += step {
			v = Value(x)
			it.block(st.Body)
		}
		it.popScope()
	case *lang.IfStmt:
		if it.eval(st.Cond) != 0 {
			it.block(st.Then)
		} else if st.Else != nil {
			it.block(st.Else)
		}
	case *lang.CallStmt:
		it.doCall(st.Pos, st.Name, st.Args)
	case *lang.ReturnStmt:
		if st.Value == nil {
			panic(returnSignal{})
		}
		if vr, ok := st.Value.(*lang.VarRef); ok {
			if b := it.lookup(vr.Name); b != nil && b.sym.Kind == sem.SymArray {
				panic(returnSignal{val: ArgVal{Matrix: b.matrix, Vector: b.vector}})
			}
		}
		panic(returnSignal{val: ArgVal{IsScal: true, Scalar: it.eval(st.Value)}})
	default:
		it.fail(st.Position(), "unsupported statement in interpreter")
	}
}

func (it *seqInterp) doCall(pos lang.Pos, name string, args []lang.Expr) (ArgVal, bool) {
	callee := it.info.Procs[name]
	vals := make([]ArgVal, len(args))
	for i, a := range args {
		prm := callee.Params[i]
		if prm.Type.IsArray() {
			b := it.lookup(a.(*lang.VarRef).Name)
			vals[i] = ArgVal{Matrix: b.matrix, Vector: b.vector}
		} else {
			vals[i] = ArgVal{IsScal: true, Scalar: it.eval(a)}
		}
	}
	return it.call(callee, vals)
}

func (it *seqInterp) evalCall(e *lang.CallExpr) ArgVal {
	rv, ok := it.doCall(e.Pos, e.Name, e.Args)
	if !ok {
		it.fail(e.Pos, "procedure %s did not return a value", e.Name)
	}
	return rv
}

func (it *seqInterp) evalInt(e lang.Expr) int64 {
	v := it.eval(e)
	return int64(v)
}

func (it *seqInterp) eval(e lang.Expr) Value {
	switch e := e.(type) {
	case *lang.NumLit:
		return e.Val
	case *lang.BoolLit:
		if e.Val {
			return 1
		}
		return 0
	case *lang.VarRef:
		sym := it.info.SymbolOf(e)
		if sym.Kind == sem.SymConst {
			return sym.Const
		}
		b := it.lookup(e.Name)
		if b.loop != nil {
			return *b.loop
		}
		v, err := b.ivar.Read()
		if err != nil {
			it.failErr(err)
		}
		return v
	case *lang.IndexExpr:
		b := it.lookup(e.Array)
		if b.matrix != nil {
			v, err := b.matrix.Read(it.evalInt(e.Indices[0]), it.evalInt(e.Indices[1]))
			if err != nil {
				it.failErr(err)
			}
			return v
		}
		v, err := b.vector.Read(it.evalInt(e.Indices[0]))
		if err != nil {
			it.failErr(err)
		}
		return v
	case *lang.UnExpr:
		x := it.eval(e.X)
		if e.Op == lang.OpNeg {
			return -x
		}
		if x != 0 {
			return 0
		}
		return 1
	case *lang.BinExpr:
		return EvalBin(e.Op, it.eval(e.L), it.eval(e.R), func(msg string) { it.fail(e.Pos, "%s", msg) })
	case *lang.CallExpr:
		rv := it.evalCall(e)
		if !rv.IsScal {
			it.fail(e.Pos, "array-valued call used as a scalar")
		}
		return rv.Scalar
	default:
		it.fail(e.Position(), "unsupported expression in interpreter")
		return 0
	}
}

// EvalBin applies a binary operator to runtime values with Idn semantics:
// div is floor division, mod is Euclidean, comparisons yield 1/0. The fail
// callback reports division by zero.
func EvalBin(op lang.Op, l, r Value, fail func(string)) Value {
	boolToV := func(b bool) Value {
		if b {
			return 1
		}
		return 0
	}
	switch op {
	case lang.OpAdd:
		return l + r
	case lang.OpSub:
		return l - r
	case lang.OpMul:
		return l * r
	case lang.OpDivReal:
		if r == 0 {
			fail("division by zero")
			return 0
		}
		return l / r
	case lang.OpDivInt:
		if r == 0 {
			fail("division by zero")
			return 0
		}
		return Value(floorDivI(int64(l), int64(r)))
	case lang.OpMod:
		if r == 0 {
			fail("mod by zero")
			return 0
		}
		return Value(eucModI(int64(l), int64(r)))
	case lang.OpEq:
		return boolToV(l == r)
	case lang.OpNe:
		return boolToV(l != r)
	case lang.OpLt:
		return boolToV(l < r)
	case lang.OpLe:
		return boolToV(l <= r)
	case lang.OpGt:
		return boolToV(l > r)
	case lang.OpGe:
		return boolToV(l >= r)
	case lang.OpAnd:
		return boolToV(l != 0 && r != 0)
	case lang.OpOr:
		return boolToV(l != 0 || r != 0)
	case lang.OpMin:
		return math.Min(l, r)
	case lang.OpMax:
		return math.Max(l, r)
	default:
		fail(fmt.Sprintf("unsupported operator %v", op))
		return 0
	}
}

func floorDivI(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

func eucModI(a, m int64) int64 {
	if m < 0 {
		m = -m
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}
