package exec

import (
	"errors"
	"fmt"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/spmd"
)

// The SPMD statement interpreter. One stepper owns everything that decides
// what a compiled process costs: control flow, the variable environment, and
// every charge site. What it does not own is data. Arrays, buffers, scalar
// I-variables and the message fabric sit behind the domain interface, which
// has two implementations: concrete (run.go) holds real values and drives a
// *machine.Proc; abstract (abstract.go) holds nothing, answers "unknown" for
// every datum, and forwards charges and message endpoints to a Sink. Control
// flow never depends on data in the programs the compiler emits, so an
// abstract run visits exactly the statements a concrete run does and charges
// exactly the same — by construction, not by a second copy of these rules.

// domain is where a stepper's data lives and where its charges go.
type domain interface {
	// The machine size and the compute charges: *machine.Proc's own methods
	// on the concrete side, the Sink's on the abstract.
	Procs() int
	Ops(n int64)
	Mem(n int64)
	LoopStep()

	// absent answers a value expression that reads a name the environment
	// does not hold (err says which). Concretely that is a program error;
	// abstractly it is data the run does not track: unknown.
	absent(err error) (Value, bool)
	// stored resolves a value that is only stored or sent, never branched
	// on. Subscripts and stored values reach the domain unevaluated, so an
	// abstract run never pays for them.
	stored(st *stepper, v spmd.VExpr) Value

	alloc(st *stepper, s *spmd.Alloc)
	allocBuf(st *stepper, s *spmd.AllocBuf)
	defineScalar(name string, v Value)
	scalar(name string) (Value, bool)
	aread(st *stepper, array string, idx []expr.Expr) (Value, bool)
	awrite(st *stepper, array string, idx []expr.Expr, v Value)
	bufRead(st *stepper, buf string, idx expr.Expr) (Value, bool)
	bufWrite(st *stepper, buf string, idx expr.Expr, v Value)

	send(dst int, tag int64, v Value)
	recv(src int, tag int64) (Value, bool)
	sendBuf(buf string, lo, hi int64, dst int, tag int64)
	recvBuf(buf string, lo, hi int64, src int, tag int64)
}

// stepper is one process's interpreter state.
type stepper struct {
	d    domain
	me   int64
	vars map[string]Value
	ienv expr.Env // integer view of vars + loop variables + me
}

func newStepper(me int, d domain) *stepper {
	return &stepper{d: d, me: int64(me), vars: map[string]Value{}, ienv: expr.Env{spmd.Me: int64(me)}}
}

// failure is the panic a failed step unwinds with; run turns it back into an
// error. Anything else that panics (the machine's aborts and crash-stops)
// passes through untouched.
type failure struct{ err error }

func fail(err error) { panic(failure{err}) }

func failf(format string, args ...any) { fail(fmt.Errorf(format, args...)) }

// run executes body and returns the step failure that stopped it, if any.
func (st *stepper) run(body []spmd.Stmt) (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
	st.exec(body)
	return nil
}

// set binds a variable; an unknown value unbinds it, so a later control
// expression that mentions it fails to evaluate.
func (st *stepper) set(name string, v Value, known bool) {
	if !known {
		delete(st.vars, name)
		delete(st.ienv, name)
		return
	}
	st.vars[name] = v
	st.ienv[name] = int64(v)
}

func (st *stepper) intOf(e expr.Expr) int64 {
	v, err := e.Eval(st.ienv)
	if err != nil {
		fail(err)
	}
	return v
}

// vexprOps counts operator nodes, for cost accounting.
func vexprOps(v spmd.VExpr) int64 {
	switch v := v.(type) {
	case spmd.VBin:
		return 1 + vexprOps(v.L) + vexprOps(v.R)
	case spmd.VUn:
		return 1 + vexprOps(v.X)
	default:
		return 0
	}
}

// evalV evaluates a value expression; the second result is false when some
// input is data the domain does not track.
func (st *stepper) evalV(v spmd.VExpr) (Value, bool) {
	switch v := v.(type) {
	case spmd.VConst:
		return v.F, true
	case spmd.VVar:
		if val, ok := st.vars[v.Name]; ok {
			return val, true
		}
		return st.d.absent(fmt.Errorf("undefined variable %s", v.Name))
	case spmd.VInt:
		i, err := v.X.Eval(st.ienv)
		if err != nil {
			return st.d.absent(err)
		}
		return Value(i), true
	case spmd.VBin:
		l, lok := st.evalV(v.L)
		r, rok := st.evalV(v.R)
		if !lok || !rok {
			return 0, false
		}
		bad := ""
		res := EvalBin(v.Op, l, r, func(msg string) { bad = msg })
		if bad != "" {
			return st.d.absent(errors.New(bad))
		}
		return res, true
	case spmd.VUn:
		x, ok := st.evalV(v.X)
		switch {
		case !ok:
			return 0, false
		case v.Op == lang.OpNeg:
			return -x, true
		case x != 0:
			return 0, true
		}
		return 1, true
	default:
		failf("unknown value expression %T", v)
		return 0, false
	}
}

func (st *stepper) exec(body []spmd.Stmt) {
	for _, s := range body {
		st.stmt(s)
	}
}

// indexCost is the flat operation charge for computing one array or buffer
// subscript (the local-index arithmetic of the paper's column_local).
const indexCost = 2

func (st *stepper) stmt(s spmd.Stmt) {
	d := st.d
	switch s := s.(type) {
	case *spmd.Alloc:
		d.alloc(st, s)
	case *spmd.AllocBuf:
		d.allocBuf(st, s)
	case *spmd.AssignVar:
		d.Ops(vexprOps(s.Val))
		v, known := st.evalV(s.Val)
		st.set(s.Name, v, known)
	case *spmd.AssignIVar:
		d.Ops(vexprOps(s.Val))
		v, known := st.evalV(s.Val)
		d.defineScalar(s.Name, v)
		st.set(s.Name, v, known)
	case *spmd.ARead:
		d.Ops(indexCost)
		d.Mem(1)
		v, known := d.aread(st, s.Array, s.Idx)
		st.set(s.Dst, v, known)
	case *spmd.AWrite:
		d.Ops(indexCost + vexprOps(s.Val))
		d.Mem(1)
		d.awrite(st, s.Array, s.Idx, d.stored(st, s.Val))
	case *spmd.BufRead:
		d.Ops(indexCost)
		d.Mem(1)
		v, known := d.bufRead(st, s.Buf, s.Idx)
		st.set(s.Dst, v, known)
	case *spmd.BufWrite:
		d.Ops(indexCost + vexprOps(s.Val))
		d.Mem(1)
		d.bufWrite(st, s.Buf, s.Idx, d.stored(st, s.Val))
	case *spmd.Send:
		d.Ops(vexprOps(s.Val))
		d.send(int(st.intOf(s.Dst)), s.Tag, d.stored(st, s.Val))
	case *spmd.Recv:
		v, known := d.recv(int(st.intOf(s.Src)), s.Tag)
		st.set(s.Dst, v, known)
	case *spmd.SendBuf:
		lo, hi := st.intOf(s.Lo), st.intOf(s.Hi)
		d.sendBuf(s.Buf, lo, hi, int(st.intOf(s.Dst)), s.Tag)
	case *spmd.RecvBuf:
		lo, hi := st.intOf(s.Lo), st.intOf(s.Hi)
		d.recvBuf(s.Buf, lo, hi, int(st.intOf(s.Src)), s.Tag)
	case *spmd.Coerce:
		st.coerce(s)
	case *spmd.For:
		lo, hi, step := st.intOf(s.Lo), st.intOf(s.Hi), st.intOf(s.Step)
		if step <= 0 {
			failf("loop step %d", step)
		}
		for x := lo; x <= hi; x += step {
			d.LoopStep()
			st.vars[s.Var] = Value(x)
			st.ienv[s.Var] = x // exact integer, not a float round-trip
			st.exec(s.Body)
		}
	case *spmd.Guard:
		d.Ops(1) // the mynode() test of run-time resolution, charged on every process
		if st.intOf(s.Proc) == st.me {
			st.exec(s.Body)
		}
	case *spmd.IfValue:
		d.Ops(vexprOps(s.Cond))
		c, known := st.evalV(s.Cond)
		switch {
		case !known:
			failf("branch on a computed value")
		case c != 0:
			st.exec(s.Then)
		default:
			st.exec(s.Else)
		}
	default:
		failf("unknown statement %T", s)
	}
}

// coerceSrc reads a coerce's source element or scalar, charging the access.
func (st *stepper) coerceSrc(s *spmd.Coerce) (Value, bool) {
	st.d.Mem(1)
	if s.Array != "" {
		st.d.Ops(indexCost)
		return st.d.aread(st, s.Array, s.Idx)
	}
	return st.d.scalar(s.Var)
}

// coerce implements run-time resolution's value movement (§3.1). Every
// process executes the statement and plays its role; the ownership tests are
// charged as compute.
func (st *stepper) coerce(s *spmd.Coerce) {
	d := st.d
	d.Ops(2) // owner/needer membership tests
	switch {
	case s.OwnerAll:
		// Replicated source: everyone who needs it reads its own copy.
		if s.NeederAll || st.intOf(s.Needer) == st.me {
			v, known := st.coerceSrc(s)
			st.set(s.Dst, v, known)
		}
	case s.NeederAll:
		owner := st.intOf(s.Owner)
		if owner == st.me {
			v, known := st.coerceSrc(s)
			for q := 0; q < d.Procs(); q++ {
				if int64(q) != st.me {
					d.send(q, s.Tag, v)
				}
			}
			st.set(s.Dst, v, known)
		} else {
			v, known := d.recv(int(owner), s.Tag)
			st.set(s.Dst, v, known)
		}
	default:
		owner, needer := st.intOf(s.Owner), st.intOf(s.Needer)
		switch {
		case owner == needer:
			if owner == st.me {
				v, known := st.coerceSrc(s)
				st.set(s.Dst, v, known)
			}
		case owner == st.me:
			v, _ := st.coerceSrc(s)
			d.send(int(needer), s.Tag, v)
		case needer == st.me:
			v, known := d.recv(int(owner), s.Tag)
			st.set(s.Dst, v, known)
		}
	}
}
