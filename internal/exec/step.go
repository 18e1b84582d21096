package exec

import (
	"errors"
	"fmt"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
)

// The SPMD statement interpreter. One stepper owns everything that decides
// what a compiled process costs: control flow, the variable frame, and every
// charge site. It runs the lowered form of a program (lower.go), never the
// spmd tree. What it does not own is data. Arrays, buffers, scalar
// I-variables and the message fabric sit behind the domain interface, which
// has two implementations: concrete (run.go) holds real values and drives a
// *machine.Proc; abstract (abstract.go) holds nothing, answers "unknown" for
// every datum, and forwards charges and message endpoints to a Sink. Control
// flow never depends on data in the programs the compiler emits, so an
// abstract run visits exactly the statements a concrete run does and charges
// exactly the same — by construction, not by a second copy of these rules.

// domain is where a stepper's data lives and where its charges go. Arrays,
// buffers and scalar I-variables are named by their Lowered slots.
type domain interface {
	// The machine size and the compute charges: *machine.Proc's own methods
	// on the concrete side, the Sink's on the abstract.
	Procs() int
	Ops(n int64)
	Mem(n int64)
	LoopStep()
	// tape runs keyed loop s from lo to hi by step, stepping an iteration and
	// charging others like it without stepping them, and returns how many
	// iterations it ran, from lo: 0 when it declines, and the stepper steps
	// the rest.
	tape(st *stepper, s *lstmt, lo, hi, step int64) int64

	// undefined answers a read of a variable the frame does not hold, and
	// absent a value expression that failed to evaluate (err says why).
	// Concretely either is a program error; abstractly it is data the run
	// does not track: unknown.
	undefined(st *stepper, slot int32) (Value, bool)
	absent(err error) (Value, bool)
	// stored resolves a value that is only stored or sent, never branched
	// on. Subscripts and stored values reach the domain unevaluated, so an
	// abstract run never pays for them.
	stored(st *stepper, v *lvexpr) Value

	alloc(st *stepper, s *lstmt)
	allocBuf(st *stepper, buf int32, size int64)
	defineScalar(st *stepper, slot int32, v Value, def bool)
	scalar(st *stepper, slot int32) (Value, bool)
	// aread, awrite, bufRead and bufWrite access element s.lo (, s.hi) of
	// array or buffer s.obj.
	aread(st *stepper, s *lstmt) (Value, bool)
	awrite(st *stepper, s *lstmt, v Value)
	bufRead(st *stepper, s *lstmt) (Value, bool)
	bufWrite(st *stepper, s *lstmt, v Value)

	send(dst int, tag int64, v Value)
	recv(src int, tag int64) (Value, bool)
	// sendBuf and recvBuf move buf[lo..hi], lo <= hi.
	sendBuf(st *stepper, buf int32, lo, hi int64, dst int, tag int64)
	recvBuf(st *stepper, buf int32, lo, hi int64, src int, tag int64)
}

// stepper is one process's interpreter state: the program and its frame.
// Variable slot s is bound when f.Known[s]; it then holds vals[s], and f.Vals
// holds the integer view of it that control expressions read. Slot me is the
// exception: an integer the program can compute with but not a variable it
// can read, it has no value in vals. Past the variables, f holds the memo
// slots of loop-invariant control codes (memo.go).
type stepper struct {
	d    domain
	low  *Lowered
	me   int64
	f    expr.Frame
	vals []Value
}

func newStepper(low *Lowered, me int, d domain) *stepper {
	frame := len(low.vars) + int(low.memos)
	st := &stepper{d: d, low: low, me: int64(me),
		f:    expr.Frame{Vals: make([]int64, frame), Known: make([]bool, frame), Names: low.vars},
		vals: make([]Value, len(low.vars))}
	st.f.Vals[meSlot], st.f.Known[meSlot] = st.me, true
	return st
}

// failure is the panic a failed step unwinds with; run turns it back into an
// error. Anything else that panics (the machine's aborts) passes through
// untouched.
type failure struct{ err error }

func fail(err error) { panic(failure{err}) }

func failf(format string, args ...any) { fail(fmt.Errorf(format, args...)) }

// run executes the program and returns the step failure that stopped it, if
// any.
func (st *stepper) run() (err error) {
	defer func() {
		if r := recover(); r != nil {
			f, ok := r.(failure)
			if !ok {
				panic(r)
			}
			err = f.err
		}
	}()
	st.exec(st.low.body)
	return nil
}

// set binds a variable; an unknown value unbinds it, so a later control
// expression that mentions it fails to evaluate.
func (st *stepper) set(slot int32, v Value, known bool) {
	st.vals[slot] = v
	st.f.Vals[slot], st.f.Known[slot] = int64(v), known
}

// evalV evaluates a value expression; the second result is false when some
// input is data the domain does not track.
func (st *stepper) evalV(v *lvexpr) (Value, bool) {
	switch v.kind {
	case vConst:
		return v.f, true
	case vVar:
		if st.f.Known[v.slot] && v.slot != meSlot {
			return st.vals[v.slot], true
		}
		return st.d.undefined(st, v.slot)
	case vInt:
		i, err := v.x.Eval(&st.f)
		if err != nil {
			return st.d.absent(err)
		}
		return Value(i), true
	case vBin:
		l, lok := st.evalV(v.l)
		r, rok := st.evalV(v.r)
		if !lok || !rok {
			return 0, false
		}
		bad := ""
		res := lang.EvalBin(v.op, l, r, func(msg string) { bad = msg })
		if bad != "" {
			return st.d.absent(errors.New(bad))
		}
		return res, true
	case vUn:
		x, ok := st.evalV(v.l)
		if !ok {
			return 0, false
		}
		return lang.EvalUn(v.op, x), true
	default:
		fail(errors.New(st.low.unknown[v.slot]))
		return 0, false
	}
}

func (st *stepper) exec(body []lstmt) {
	for i := range body {
		st.stmt(&body[i])
	}
}

// indexCost is the flat operation charge for computing one array or buffer
// subscript (the local-index arithmetic of the paper's column_local).
const indexCost = 2

func (st *stepper) stmt(s *lstmt) {
	d := st.d
	switch s.op {
	case opAlloc:
		d.alloc(st, s)
	case opAllocBuf:
		size := st.ctl(s, mLo)
		if size < 0 {
			failf("buffer %s of size %d", st.low.bufs[s.obj], size)
		}
		d.allocBuf(st, s.obj, size)
	case opAssignVar:
		d.Ops(int64(s.ops))
		v, known := st.evalV(s.val)
		st.set(s.dst, v, known)
	case opAssignIVar:
		d.Ops(int64(s.ops))
		v, known := st.evalV(s.val)
		d.defineScalar(st, s.obj, v, s.flags&fDef != 0)
		st.set(s.dst, v, known)
	case opARead:
		d.Ops(indexCost)
		d.Mem(1)
		v, known := d.aread(st, s)
		st.set(s.dst, v, known)
	case opAWrite:
		d.Ops(indexCost + int64(s.ops))
		d.Mem(1)
		d.awrite(st, s, d.stored(st, s.val))
	case opBufRead:
		d.Ops(indexCost)
		d.Mem(1)
		v, known := d.bufRead(st, s)
		st.set(s.dst, v, known)
	case opBufWrite:
		d.Ops(indexCost + int64(s.ops))
		d.Mem(1)
		d.bufWrite(st, s, d.stored(st, s.val))
	case opSend:
		d.Ops(int64(s.ops))
		d.send(int(st.ctl(s, mX)), s.tag, d.stored(st, s.val))
	case opRecv:
		v, known := d.recv(int(st.ctl(s, mX)), s.tag)
		st.set(s.dst, v, known)
	case opSendBuf:
		lo, hi, dst := st.block(s, "send of")
		d.sendBuf(st, s.obj, lo, hi, dst, s.tag)
	case opRecvBuf:
		lo, hi, src := st.block(s, "receive into")
		d.recvBuf(st, s.obj, lo, hi, src, s.tag)
	case opCoerce:
		st.coerce(s)
	case opFor:
		st.loop(s)
	case opGuard:
		st.guard(s)
	case opIfValue:
		d.Ops(int64(s.ops))
		c, known := st.evalV(s.val)
		switch {
		case !known:
			failf("branch on a computed value")
		case c != 0:
			st.exec(s.body)
		default:
			st.exec(s.els)
		}
	default:
		fail(errors.New(st.low.unknown[s.obj]))
	}
}

// block evaluates a block transfer's range and peer, refusing an empty range.
func (st *stepper) block(s *lstmt, what string) (lo, hi int64, peer int) {
	lo, hi, peer = st.ctl(s, mLo), st.ctl(s, mHi), int(st.ctl(s, mX))
	if hi < lo {
		failf("block %s %s[%d..%d]", what, st.low.bufs[s.obj], lo, hi)
	}
	return lo, hi, peer
}

// loop runs a For. A keyed loop (fKeyed, keyed.go) of more than one
// iteration is first offered to the domain's tape, which runs as many of its
// iterations as it can charge without stepping each: a walk tapes one
// iteration per key vector, and the machine charges a uniform loop in one
// call when its first iteration gives this process no role. The stepper steps
// whatever the tape leaves; either way the induction variable takes its last
// value.
func (st *stepper) loop(s *lstmt) {
	lo, hi, step := st.ctl(s, mLo), st.ctl(s, mHi), st.ctl(s, mX)
	if step <= 0 {
		failf("loop step %d", step)
	}
	clear(st.f.Known[s.obj : s.obj+s.rank]) // a new activation: forget the memos this loop owns
	x := lo
	if s.flags&fKeyed != 0 && x < hi {
		k := st.d.tape(st, s, lo, hi, step)
		if k > iterations(lo, hi, step) {
			return
		}
		x += k * step
	}
	for ; x <= hi; x += step {
		st.d.LoopStep()
		st.induct(s.dst, x)
		st.exec(s.body)
	}
}

// iterations is how many iterations of a loop from x to hi by step follow
// the one at x; unsigned, so hi-x cannot overflow.
func iterations(x, hi, step int64) int64 { return int64(uint64(hi-x) / uint64(step)) }

// induct sets a loop's induction variable to x.
func (st *stepper) induct(slot int32, x int64) {
	st.vals[slot] = Value(x)
	st.f.Vals[slot], st.f.Known[slot] = x, true // exact integer, not a float round-trip
}

// guard runs a Guard.
func (st *stepper) guard(s *lstmt) {
	st.d.Ops(1) // the mynode() test of run-time resolution, charged on every process
	if st.ctl(s, mX) == st.me {
		st.exec(s.body)
	}
}

// coerceSrc reads a coerce's source element or scalar, charging the access.
func (st *stepper) coerceSrc(s *lstmt) (Value, bool) {
	st.d.Mem(1)
	if s.flags&fFromArray != 0 {
		st.d.Ops(indexCost)
		return st.d.aread(st, s)
	}
	return st.d.scalar(st, s.obj)
}

// coerce implements run-time resolution's value movement (§3.1). Every
// process executes the statement and plays its role; the ownership tests are
// charged as compute. s.x is the owner and s.y the needer.
func (st *stepper) coerce(s *lstmt) {
	d := st.d
	d.Ops(2) // owner/needer membership tests
	switch {
	case s.flags&fOwnerAll != 0:
		// Replicated source: everyone who needs it reads its own copy.
		if s.flags&fNeederAll == 0 && st.ctl(s, mY) != st.me {
			return
		}
		v, known := st.coerceSrc(s)
		st.set(s.dst, v, known)
	case s.flags&fNeederAll != 0:
		owner := st.ctl(s, mX)
		if owner == st.me {
			v, known := st.coerceSrc(s)
			for q := 0; q < d.Procs(); q++ {
				if int64(q) != st.me {
					d.send(q, s.tag, v)
				}
			}
			st.set(s.dst, v, known)
		} else {
			v, known := d.recv(int(owner), s.tag)
			st.set(s.dst, v, known)
		}
	default:
		owner, needer := st.ctl(s, mX), st.ctl(s, mY)
		switch {
		case owner == needer && owner == st.me:
			v, known := st.coerceSrc(s)
			st.set(s.dst, v, known)
		case owner == st.me:
			v, _ := st.coerceSrc(s)
			d.send(int(needer), s.tag, v)
		case needer == st.me:
			v, known := d.recv(int(owner), s.tag)
			st.set(s.dst, v, known)
		}
	}
}
