package exec

import (
	"math/bits"
	"slices"

	"procdecomp/internal/expr"
)

// Loop-invariant control codes. Under run-time resolution every process steps
// every statement, and most of what decides its role there — a guard's
// process, a coerce's owner and needer, a local column subscript — depends on
// outer loop indices only. Lowering gives each control code (a statement's lo,
// hi, x or y) that is invariant in an enclosing loop a memo slot, and the
// stepper evaluates it at most once per activation of the loop that owns the
// slot. A linear code (no mod, div, min, max or product) costs what reading
// its memo would, so it gets none: every process's frame would grow for it.
//
// The rule is syntactic. A code inside loops L1 ⊃ … ⊃ Ld is invariant in Lk
// when no slot it reads is assigned anywhere in Lk: the dst of an assignment,
// a read, a receive or a coerce, or a loop's induction variable — before or
// after the code, in nested loops, in either arm of an IfValue. A statement's
// memoized codes share one owner, the innermost of the outermost loops each
// is invariant in, so they take consecutive slots; a loop's slots form one
// range, which it clears on entry.
//
// Evaluation stays lazy: the first evaluation in an activation computes the
// code and stores it. A code on a path a process never takes (a zero-trip
// loop, a false guard) is never evaluated, and one that fails fails at the
// step, on the process and with the words it always did. The memo values live
// in the stepper's frame past the variable slots, per run like the variables,
// so a Lowered stays immutable and holds no cache.
//
// The same rule's assigned sets decide which loops are keyed (keyed.go). A
// uniform keyed loop, one with no keys, also serves the machine: when its
// first iteration gives this process no role, neither does any other, and
// the concrete domain charges the rest in one call (run.go's tape).

// The bits of lstmt.flags.
const (
	fFromArray uint16 = 1 << iota // Coerce: the source is an array element, else a scalar I-variable
	fOwnerAll                     // Coerce: the owner is every process
	fNeederAll                    // Coerce: the needer is every process
	mLo                           // lo is memoized
	mHi
	mX
	mY
	fKeyed   // For: keyed, its keys s.y, none when uniform (keyed.go)
	fDef     // AssignIVar: a definition, which starts a fresh I-variable
	memoBits = mLo | mHi | mX | mY
)

// code returns the control code of s that memo bit f names.
func (s *lstmt) code(f uint16) *expr.Code {
	switch f {
	case mLo:
		return s.lo
	case mHi:
		return s.hi
	case mX:
		return s.x
	}
	return s.y
}

// ctl evaluates the control code of s that memo bit f names. It is the one
// place a statement's lo, hi, x or y is evaluated (internal/rules keeps it so).
func (st *stepper) ctl(s *lstmt, f uint16) int64 {
	m := int32(-1)
	if s.flags&f != 0 {
		m = s.memo + int32(bits.OnesCount16(s.flags&memoBits&(f-1)))
		if st.f.Known[m] {
			return st.f.Vals[m]
		}
	}
	v, err := s.code(f).Eval(&st.f)
	if err != nil {
		fail(err)
	}
	if m >= 0 {
		st.f.Vals[m], st.f.Known[m] = v, true
	}
	return v
}

// keys appends the values of keyed For s's keys to out, or reports false
// when one fails to evaluate. It is the one place a For's keys are evaluated
// (internal/rules keeps it so); they have no memo.
func (st *stepper) keys(s *lstmt, out []int64) ([]int64, bool) {
	if s.y == nil {
		return out, true
	}
	out, err := s.y.EvalAtoms(&st.f, out)
	return out, err == nil
}

// memoize decides which control codes of l are memoized and numbers their
// slots, in two walks that evaluate nothing: own picks each statement's owner
// and counts each loop's slots, number lays the loops' ranges out one after
// another and gives each statement its first slot.
func (l *Lowered) memoize() {
	// The loop stacks live on the goroutine's stack, so lowering allocates
	// no more than it did (TestLowerAllocsUnchangedByMemo); a nest deeper than
	// eight, which the compiler never emits, grows them.
	var scopes [8]scope
	own(l.body, scopes[:0])
	var loops [8]*lstmt
	next := int32(len(l.vars))
	number(l.body, loops[:0], &next)
	l.memos = next - int32(len(l.vars))
}

// scope is an enclosing loop and the slots assigned anywhere in it, as a set
// of slots modulo 64: a program with more variables memoizes less, never
// wrongly.
type scope struct {
	loop     *lstmt
	assigned uint64
}

func bit(slot int32) uint64 { return 1 << (slot & 63) }

func own(body []lstmt, loops []scope) {
	for i := range body {
		s := &body[i]
		owner := -1
		for f := mLo; f <= mY; f <<= 1 {
			if c := s.code(f); c != nil && !c.Linear() {
				if k := invariantIn(c, loops); k >= 0 {
					s.flags |= f
					owner = max(owner, k)
				}
			}
		}
		if owner >= 0 {
			s.memo = int32(owner) // the owner's depth, until number replaces it
			loops[owner].loop.rank += int32(bits.OnesCount16(s.flags & memoBits))
		}
		if s.op == opFor {
			sc := scope{s, bit(s.dst) | assigned(s.body)}
			if keys, ok := keyed(s, sc.assigned); ok {
				s.flags |= fKeyed
				s.y = keys
			}
			own(s.body, append(loops, sc))
		} else {
			own(s.body, loops)
			own(s.els, loops)
		}
	}
}

// invariantIn returns the depth of the outermost of loops that assigns no slot
// c reads, or -1. Inner loops assign subsets of what outer ones do, so every
// deeper loop qualifies too.
func invariantIn(c *expr.Code, loops []scope) int {
	r := reads(c, nil)
	for k := range loops {
		if loops[k].assigned&r == 0 {
			return k
		}
	}
	return -1
}

// reads is the set of slots c reads, apart from the slots in but; a nil code
// reads none.
func reads(c *expr.Code, but []int32) uint64 {
	if c == nil {
		return 0
	}
	var buf [8]int32
	return set(c.Slots(buf[:0]), but)
}

// set is the set of slots, apart from the slots in but.
func set(slots, but []int32) (bits uint64) {
	for _, slot := range slots {
		if !slices.Contains(but, slot) {
			bits |= bit(slot)
		}
	}
	return bits
}

// assigned is the set of slots that body, nested statements included,
// assigns.
func assigned(body []lstmt) (set uint64) {
	for i := range body {
		s := &body[i]
		if s.defines() {
			set |= bit(s.dst)
		}
		set |= assigned(s.body) | assigned(s.els)
	}
	return set
}

// defines reports whether s assigns its dst.
func (s *lstmt) defines() bool {
	switch s.op {
	case opAssignVar, opAssignIVar, opARead, opBufRead, opRecv, opCoerce, opFor:
		return true
	}
	return false
}

func number(body []lstmt, loops []*lstmt, next *int32) {
	for i := range body {
		s := &body[i]
		if s.flags&memoBits != 0 {
			o := loops[s.memo]
			s.memo = o.obj + o.rank
			o.rank += int32(bits.OnesCount16(s.flags & memoBits))
		}
		if s.op == opFor {
			s.obj, *next = *next, *next+s.rank
			s.rank = 0 // counts back up to the range's length as the slots are handed out
			number(s.body, append(loops, s), next)
		} else {
			number(s.body, loops, next)
			number(s.els, loops, next)
		}
	}
}
