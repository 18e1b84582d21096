package exec

import (
	"slices"
	"sync"
)

// Uniform loops. A walk (abstract.go) evaluates two kinds of read: the
// control codes ctl evaluates (a buffer's size, a message's peer, a block's
// range, a coerce's owner and needer, a loop's bounds and step, a guard's
// process) and the value expressions evalV evaluates (AssignVar, AssignIVar,
// IfValue). Subscripts and stored or sent values never reach it. Lower marks a
// For uniform when no such read anywhere in its body touches a slot the loop
// assigns, with one exception: a nested For's induction variable may be read
// inside that For when nothing else in the loop assigns it.
//
// Then a walk cannot tell the loop's iterations apart. Every read it makes in
// the body sees the value the slot had when the loop began, or, for an exempt
// induction variable, a value the nested For sets from bounds that are the
// same in every iteration. So every iteration takes the same guards and
// branches, evaluates the same peers, ranges and sizes, and makes the same Sink
// calls. It also leaves the frame as the one before it did: each assignment
// writes the same value, and a read, receive or coerce leaves its destination
// unknown. Only the induction variable differs.
//
// So a walk steps the first iteration into a tape, the charges made between
// two messages summed and each message kept, and plays the tape once per
// iteration into its Sink; a tape with no messages is one call per kind of
// charge. The machine declines: a real run's iterations differ in their data.
// The rule is syntactic and conservative, over slot sets modulo 64 like the
// memo's (memo.go), and the exception is made for the one slot itself, never
// for its bit.

// uniform reports whether For s is uniform, assigned being the slots it
// assigns, its induction variable among them.
func uniform(s *lstmt, assigned uint64) bool {
	var exempt [8]int32 // on the stack, as memoize's loop stacks are
	return !touches(s, s.body, assigned, exempt[:0])
}

// touches reports whether a read a walk evaluates in body, a part of For
// loop's body, touches a slot in banned, other than a read of one of the
// exempt induction variables.
func touches(loop *lstmt, body []lstmt, banned uint64, exempt []int32) bool {
	for i := range body {
		s := &body[i]
		var r uint64
		switch s.op {
		case opAllocBuf:
			r = reads(s.lo, exempt)
		case opSend, opRecv, opGuard:
			r = reads(s.x, exempt)
		case opSendBuf, opRecvBuf, opFor:
			r = reads(s.lo, exempt) | reads(s.hi, exempt) | reads(s.x, exempt)
		case opCoerce:
			r = reads(s.x, exempt) | reads(s.y, exempt)
		case opAssignVar, opAssignIVar, opIfValue:
			r = valueReads(s.val, exempt)
		}
		if r&banned != 0 {
			return true
		}
		inner := exempt
		if s.op == opFor && s.dst != loop.dst && assignments(loop.body, s.dst) == 1 {
			inner = append(exempt, s.dst)
		}
		if touches(loop, s.body, banned, inner) || touches(loop, s.els, banned, exempt) {
			return true
		}
	}
	return false
}

// valueReads is the set of slots v reads, apart from the slots in but.
func valueReads(v *lvexpr, but []int32) uint64 {
	switch v.kind {
	case vVar:
		if !slices.Contains(but, v.slot) {
			return bit(v.slot)
		}
	case vInt:
		return reads(v.x, but)
	case vBin:
		return valueReads(v.l, but) | valueReads(v.r, but)
	case vUn:
		return valueReads(v.l, but)
	}
	return 0
}

// assignments counts the statements of body, nested ones included, that
// assign slot.
func assignments(body []lstmt, slot int32) (n int) {
	for i := range body {
		s := &body[i]
		if s.defines() && s.dst == slot {
			n++
		}
		n += assignments(s.body, slot) + assignments(s.els, slot)
	}
	return n
}

// A tape is one iteration of a uniform loop as a Sink would see it: each
// message, with the charges made since the one before, and the charges made
// after the last. It is itself the Sink the iteration is stepped into.
type tape struct {
	dom   domain // abstract{this tape}, boxed once for the tape's lifetime
	depth int    // how many tapes enclose this one
	procs int
	msgs  []taped
	// Charged since the last message.
	ops, mem, steps int64
}

// taped is one message of a tape and the charges made before it.
type taped struct {
	ops, mem, steps int64
	recv            bool
	peer            int
	tag             int64
	values          int
}

func (t *tape) Procs() int  { return t.procs }
func (t *tape) Ops(n int64) { t.ops += n }
func (t *tape) Mem(n int64) { t.mem += n }
func (t *tape) LoopStep()   { t.steps++ }

func (t *tape) LoopSteps(n, ops int64) {
	t.steps += n
	t.ops += n * ops
}

// A tape refuses no message: the Sink it is played into decides.
func (t *tape) Send(dst int, tag int64, values int) error { return t.message(false, dst, tag, values) }
func (t *tape) Recv(src int, tag int64, values int) error { return t.message(true, src, tag, values) }

func (t *tape) message(recv bool, peer int, tag int64, values int) error {
	t.msgs = append(t.msgs, taped{t.ops, t.mem, t.steps, recv, peer, tag, values})
	t.ops, t.mem, t.steps = 0, 0, 0
	return nil
}

// tapes are a walk's tapes by nesting depth, recycled across walks the way
// autotune's walkScratch recycles its action list: a tape keeps the messages
// it grew to hold.
type tapes []*tape

var tapePool = sync.Pool{New: func() any { return new(tapes) }}

// at returns the tape at depth, emptied, for a machine of procs processes.
func (ts *tapes) at(depth, procs int) *tape {
	for len(*ts) <= depth {
		t := &tape{depth: len(*ts)}
		t.dom = abstract{t, ts}
		*ts = append(*ts, t)
	}
	t := (*ts)[depth]
	t.procs, t.msgs, t.ops, t.mem, t.steps = procs, t.msgs[:0], 0, 0, 0
	return t
}

// tape steps the first iteration of uniform loop s into a tape and plays
// that tape for it and every iteration after it, then sets the induction
// variable to its last value. The Sink sees what stepping them would have
// shown it, up to where a walk that stepped them would have stopped: the
// first message it refuses, or a step that fails in the first iteration. A
// loop of one iteration is left to step.
func (a abstract) tape(st *stepper, s *lstmt, lo, hi, step int64) bool {
	n := iterations(lo, hi, step)
	if n == 0 {
		return false
	}
	depth := 0
	if outer, ok := a.Sink.(*tape); ok {
		depth = outer.depth + 1
	}
	t := a.tapes.at(depth, a.Procs())
	saved := st.d // restored, not boxed again: boxing allocates
	st.d = t.dom
	t.record(st, s, lo, a.Sink)
	st.d = saved
	t.play(a.Sink, n+1)
	st.induct(s.dst, lo+n*step)
	return true
}

// record steps iteration x of s into t. A failing step fails the walk after
// sink has seen what the iteration charged and sent before it.
func (t *tape) record(st *stepper, s *lstmt, x int64, sink Sink) {
	defer func() {
		if r := recover(); r != nil {
			t.play(sink, 1) // fails first if sink refuses a message
			panic(r)
		}
	}()
	st.d.LoopStep()
	st.induct(s.dst, x)
	st.exec(s.body)
}

// play delivers n iterations of t to sink, the charges between two messages
// in one call per kind.
func (t *tape) play(sink Sink, n int64) {
	if len(t.msgs) == 0 {
		charge(sink, n*t.ops, n*t.mem, n*t.steps)
		return
	}
	var ops, mem, steps int64 // the previous iteration's last charges
	for ; n > 0; n-- {
		for i := range t.msgs {
			m := &t.msgs[i]
			charge(sink, ops+m.ops, mem+m.mem, steps+m.steps)
			ops, mem, steps = 0, 0, 0
			var err error
			if m.recv {
				err = sink.Recv(m.peer, m.tag, m.values)
			} else {
				err = sink.Send(m.peer, m.tag, m.values)
			}
			if err != nil {
				fail(err)
			}
		}
		ops, mem, steps = t.ops, t.mem, t.steps
	}
	charge(sink, ops, mem, steps)
}

// charge makes the nonzero ones of ops operations, mem accesses and steps
// loop steps.
func charge(sink Sink, ops, mem, steps int64) {
	if ops != 0 {
		sink.Ops(ops)
	}
	if mem != 0 {
		sink.Mem(mem)
	}
	if steps != 0 {
		sink.LoopSteps(steps, 0)
	}
}
