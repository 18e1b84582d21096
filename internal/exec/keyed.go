package exec

import (
	"slices"
	"sync"

	"procdecomp/internal/expr"
)

// Keyed loops. A walk (abstract.go) evaluates two kinds of read: the control
// codes ctl evaluates (a buffer's size, a message's peer, a block's range, a
// coerce's owner and needer, a loop's bounds and step, a guard's process) and
// the value expressions evalV evaluates (AssignVar, AssignIVar, IfValue).
// Subscripts and stored or sent values never reach it. Lowering marks a For
// keyed when every such read anywhere in its body does one of two things:
//
//   - it touches no slot the loop assigns, but a nested For's induction
//     variable read inside that For when nothing else in the loop assigns
//     it (an exempt variable);
//   - or it is a control code that reads the loop's induction variable only
//     inside top-level mod, div, min, max or product atoms that read no other
//     slot the loop assigns, exempt variables included.
//
// Those atoms are the loop's keys (the §2.3 owner terms (j-1) div b and
// (j-1) mod S are the usual ones), kept as the For's y (expr.Atoms); a loop
// with none is uniform. Two more conditions bound what the keys may decide: a
// nested For's bounds and step read no key, and under a guard whose process
// reads one, only a read, a receive or a coerce assigns.
//
// Every read a walk makes in an iteration then sees a slot the loop leaves
// alone, a key, or an exempt variable that a nested For steps through the same
// values in every iteration. So two iterations whose keys have equal values
// take the same guards and branches, evaluate the same peers, ranges and
// sizes, and make the same Sink calls. Their frames may differ, and the
// conditions say how. An assignment or a nested For runs alike in every
// iteration, since no key decides whether it runs, and writes the same values,
// since its reads are of the first kind; only its order against the rest can
// differ. A read, a receive or a coerce may run in some iterations and not in
// others, but on a walk it always leaves its destination unknown. So a slot
// some iteration writes with a known value is written in every iteration, and
// is left as the last iteration leaves it; any other slot is unknown after a
// loop exactly when some iteration wrote it.
//
// So a walk evaluates the keys at each iteration, steps the first iteration
// of each distinct key vector into a tape (the charges made between two
// messages summed and each message kept), and plays that tape for every later
// iteration with the same keys, a run of consecutive repeats in one play. A
// tape with no messages is one call per kind of charge. Played iterations
// write nothing to the frame: every key vector's writes were made when it was
// recorded, which settles the slots that are unknown after the loop, and the
// last iteration is stepped unless its keys are the latest recorded, which
// settles the rest. The machine declines a loop with keys: a real run's
// iterations differ in their data, and it charges a uniform loop's iterations
// in one call only when the first gives this process no role (run.go's
// tape). The rule is syntactic and conservative, over slot sets modulo
// 64 like the memo's (memo.go): an exemption is made for the one slot itself,
// never for its bit, and a key must read the induction variable's own slot.

// keyed reports whether For s is keyed, assigned being the slots it assigns,
// its induction variable among them, and returns its keys.
func keyed(s *lstmt, assigned uint64) (*expr.Code, bool) {
	var keys [32]expr.TermOf // on the stack, as memoize's loop stacks are
	var exempt [8]int32
	k := keyer{s, assigned}
	found, ok := k.body(s.body, exempt[:0], keys[:0], false)
	if !ok {
		return nil, false
	}
	return expr.Atoms(found), true
}

// A keyer checks the reads of a For's body against the rule.
type keyer struct {
	loop   *lstmt
	banned uint64 // the slots the loop assigns
}

// body reports whether every read a walk evaluates in body, a part of the
// loop's body where the induction variables in exempt may be read, keeps the
// rule, and appends the keys it reads to keys. Under a guard whose process
// reads a key (underKey) only a read, a receive or a coerce may assign: a
// walk leaves their destinations unknown whatever the keys are.
func (k *keyer) body(body []lstmt, exempt []int32, keys []expr.TermOf, underKey bool) ([]expr.TermOf, bool) {
	ok := true
	for i := range body {
		s := &body[i]
		var codes [3]*expr.Code
		switch s.op {
		case opAllocBuf:
			codes[0] = s.lo
		case opSend, opRecv, opGuard:
			codes[0] = s.x
		case opSendBuf, opRecvBuf, opFor:
			codes = [3]*expr.Code{s.lo, s.hi, s.x}
		case opCoerce:
			codes[0], codes[1] = s.x, s.y
		case opAssignVar, opAssignIVar, opIfValue:
			if valueReads(s.val, exempt)&k.banned != 0 {
				return nil, false
			}
		}
		if underKey && (s.op == opAssignVar || s.op == opAssignIVar || s.op == opFor) {
			return nil, false
		}
		n := len(keys)
		for _, c := range codes {
			if keys, ok = k.code(c, exempt, keys); !ok {
				return nil, false
			}
		}
		if s.op == opFor && len(keys) > n { // its variable's last value would depend on the keys
			return nil, false
		}
		inner := exempt
		if s.op == opFor && s.dst != k.loop.dst && assignments(k.loop.body, s.dst) == 1 {
			inner = append(exempt, s.dst)
		}
		if keys, ok = k.body(s.body, inner, keys, underKey || len(keys) > n); !ok {
			return nil, false
		}
		if keys, ok = k.body(s.els, exempt, keys, underKey); !ok {
			return nil, false
		}
	}
	return keys, true
}

// code reports whether control code c keeps the rule, and appends its keys to
// keys.
func (k *keyer) code(c *expr.Code, exempt []int32, keys []expr.TermOf) ([]expr.TermOf, bool) {
	if c == nil {
		return keys, true
	}
	v := k.loop.dst
	var buf [8]int32
	for i := range c.Terms() {
		slots, atom := c.Term(i, buf[:0])
		switch {
		case set(slots, exempt)&k.banned == 0:
		case atom && slices.Contains(slots, v) && set(slots, []int32{v})&k.banned == 0:
			keys = append(keys, expr.TermOf{C: c, I: i})
		default:
			return nil, false
		}
	}
	return keys, true
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

// A tape is one iteration of a keyed loop as a Sink would see it: each
// message, with the charges made since the one before, and the charges made
// after the last. It is itself the Sink the iteration is stepped into.
type tape struct {
	dom   domain // abstract{this tape}, boxed once for the tape's lifetime
	depth int    // how many tapes enclose this one
	procs int
	key   []int64 // the keys of the iteration it holds
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

func (t *tape) LoopSteps(n int64) { t.steps += n }

// A tape refuses no message: the Sink it is played into decides.
func (t *tape) Send(dst int, tag int64, values int) error { return t.message(false, dst, tag, values) }
func (t *tape) Recv(src int, tag int64, values int) error { return t.message(true, src, tag, values) }

func (t *tape) message(recv bool, peer int, tag int64, values int) error {
	t.msgs = append(t.msgs, taped{t.ops, t.mem, t.steps, recv, peer, tag, values})
	t.ops, t.mem, t.steps = 0, 0, 0
	return nil
}

// maxTapes bounds the key vectors one activation of a loop tapes: a loop
// whose keys keep changing is stepped past that many, so finding a tape never
// costs more than a short scan.
const maxTapes = 64

// A level holds the tapes of the keyed loop running at one nesting depth.
type level struct {
	tapes []*tape // the first n hold this activation's key vectors
	n     int
	key   []int64 // the current iteration's keys
}

// tapes are a walk's levels by nesting depth, recycled across walks the way
// autotune's scratch recycles its action list: a tape keeps the messages it
// grew to hold.
type tapes []*level

var tapePool = sync.Pool{New: func() any { return new(tapes) }}

// at returns the level at depth, emptied for a new activation.
func (ts *tapes) at(depth int) *level {
	for len(*ts) <= depth {
		*ts = append(*ts, new(level))
	}
	lv := (*ts)[depth]
	lv.n = 0
	return lv
}

// find returns the tape of lv whose keys are lv.key, or nil.
func (lv *level) find() *tape {
	for _, t := range lv.tapes[:lv.n] {
		if slices.Equal(t.key, lv.key) {
			return t
		}
	}
	return nil
}

// add returns a new empty tape of lv for lv.key, on a machine of procs
// processes, or nil when lv holds maxTapes already.
func (lv *level) add(ts *tapes, depth, procs int) *tape {
	if lv.n == maxTapes {
		return nil
	}
	if lv.n == len(lv.tapes) {
		t := &tape{depth: depth}
		t.dom = abstract{t, ts}
		lv.tapes = append(lv.tapes, t)
	}
	t := lv.tapes[lv.n]
	lv.n++
	t.procs, t.key, t.msgs, t.ops, t.mem, t.steps = procs, append(t.key[:0], lv.key...), t.msgs[:0], 0, 0, 0
	return t
}

// tape runs keyed loop s from lo to hi by step and returns how many of its
// iterations it ran; the stepper steps the rest. Each iteration whose keys no
// earlier one had is stepped into a new tape, and every iteration is played
// from its keys' tape, consecutive ones in one play; a uniform loop is one
// recording and one play. The Sink sees what stepping them would have shown
// it, up to where a walk that stepped them would have stopped: the first
// message it refuses, or a step that fails in a recorded iteration. A loop of
// one iteration is left to step, and so is the rest of a loop from an
// iteration whose keys fail to evaluate or which would start a tape past
// maxTapes. So is the last iteration when its keys are not the latest
// recorded: the frame holds what the latest recording left, and a slot every
// iteration writes must hold what the last one wrote. When it runs them all,
// the induction variable takes its last value.
func (a abstract) tape(st *stepper, s *lstmt, lo, hi, step int64) int64 {
	n := iterations(lo, hi, step)
	if n == 0 {
		return 0
	}
	depth := 0
	if outer, ok := a.Sink.(*tape); ok {
		depth = outer.depth + 1
	}
	lv := a.tapes.at(depth)
	var last, latest *tape // the previous iteration's tape, and the latest recorded
	run := int64(0)        // iterations of last still to play
	i, x := int64(0), lo
	for ; i <= n; i, x = i+1, x+step {
		st.induct(s.dst, x)
		var ok bool
		if lv.key, ok = st.keys(s, lv.key[:0]); !ok {
			break
		}
		if last != nil && slices.Equal(last.key, lv.key) {
			run++
			continue
		}
		if last != nil {
			last.play(a.Sink, run)
			last = nil
		}
		t := lv.find()
		if t == nil {
			if t = lv.add(a.tapes, depth, a.Procs()); t == nil {
				break
			}
			saved := st.d // restored, not boxed again: boxing allocates
			st.d = t.dom
			t.record(st, s, x, a.Sink)
			st.d = saved
			latest = t
		}
		last, run = t, 1
		if s.y == nil { // uniform: every later iteration is this one
			run, i = n+1, n+1
			break
		}
	}
	if i > n && last != latest {
		run, i = run-1, n // step the last iteration: the frame holds what latest left
	}
	if last != nil {
		last.play(a.Sink, run)
	}
	if i > n {
		st.induct(s.dst, lo+n*step)
	}
	return i
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
		sink.LoopSteps(steps)
	}
}
