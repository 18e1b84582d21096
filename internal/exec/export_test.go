package exec

import (
	"fmt"
	"slices"

	"procdecomp/internal/expr"
	"procdecomp/internal/istruct"
	"procdecomp/internal/machine"
	"procdecomp/internal/spmd"
)

// WithoutMemos returns a copy of l with nothing memoized: every memo bit,
// memo index and loop range zeroed. The same stepper runs it; it is the
// control the memo differential tests compare against, not a second path.
func WithoutMemos(l *Lowered) *Lowered {
	c := *l
	c.body, c.memos = rewrite(l.body, func(s *lstmt) {
		s.flags &^= memoBits
		s.memo = 0
		if s.op == opFor {
			s.obj, s.rank = 0, 0
		}
	}), 0
	return &c
}

// WithoutKeys returns a copy of l with no loop keyed. The same stepper runs
// it, stepping every iteration, on a walk and on the machine; it is the
// control the tape differential tests compare against.
func WithoutKeys(l *Lowered) *Lowered {
	c := *l
	c.body = rewrite(l.body, func(s *lstmt) { s.flags &^= fKeyed })
	return &c
}

// rewrite returns a deep copy of body with f applied to every statement.
func rewrite(body []lstmt, f func(*lstmt)) []lstmt {
	if body == nil {
		return nil
	}
	out := slices.Clone(body)
	for i := range out {
		s := &out[i]
		f(s)
		s.body, s.els = rewrite(s.body, f), rewrite(s.els, f)
	}
	return out
}

// WithoutMemos is the image whose every process runs WithoutMemos of its
// program.
func (im *Image) WithoutMemos() *Image { return im.each(WithoutMemos) }

// WithoutKeys is the image whose every process runs WithoutKeys of its
// program.
func (im *Image) WithoutKeys() *Image { return im.each(WithoutKeys) }

func (im *Image) each(f func(*Lowered) *Lowered) *Image {
	c := *im
	c.low = make([]*Lowered, len(im.low))
	for p, l := range im.low {
		c.low[p] = f(l)
	}
	return &c
}

// Charges is what a run's stepper charged one machine process: its Ops, Mem
// and LoopStep calls, and the loops its tape charged in bulk.
type Charges struct{ Calls, Bulk int64 }

// RunCharges runs im under cfg on inputs as Run does, but neither gathers
// nor checks a trace, and counts each process's charges.
func (im *Image) RunCharges(cfg machine.Config, inputs map[string]*istruct.Matrix) ([]Charges, error) {
	states, err := im.states(inputs)
	if err != nil {
		return nil, err
	}
	charges := make([]Charges, cfg.Procs)
	return charges, machine.New(cfg).Run(func(p *machine.Proc) {
		d := states[p.ID()]
		d.Proc = p
		if err := newStepper(d.low, p.ID(), counting{d, &charges[p.ID()]}).run(); err != nil {
			panic(fmt.Errorf("process %d: %w", p.ID(), err))
		}
	})
}

// counting is a concrete domain that counts its charges into c.
type counting struct {
	*concrete
	c *Charges
}

func (d counting) Ops(n int64) { d.c.Calls++; d.concrete.Ops(n) }
func (d counting) Mem(n int64) { d.c.Calls++; d.concrete.Mem(n) }
func (d counting) LoopStep()   { d.c.Calls++; d.concrete.LoopStep() }

func (d counting) tape(st *stepper, s *lstmt, lo, hi, step int64) int64 {
	k := d.concrete.tape(st, s, lo, hi, step)
	if k > 1 {
		d.c.Bulk++
	}
	return k
}

// Uniform lists, for every For of l in pre-order, whether the lowering made it
// keyed with no keys.
func Uniform(l *Lowered) []bool {
	var out []bool
	for _, n := range Keyed(l) {
		out = append(out, n == 0)
	}
	return out
}

// Keyed lists, for every For of l in pre-order, how many keys the lowering
// gave it, or -1 when it is not keyed.
func Keyed(l *Lowered) []int {
	var out []int
	for _, s := range fors(nil, l.body) {
		switch {
		case s.flags&fKeyed == 0:
			out = append(out, -1)
		case s.y == nil:
			out = append(out, 0)
		default:
			out = append(out, s.y.Terms())
		}
	}
	return out
}

// fors appends every For of body, in pre-order, to out.
func fors(out []*lstmt, body []lstmt) []*lstmt {
	for i := range body {
		s := &body[i]
		if s.op == opFor {
			out = append(out, s)
		}
		out = fors(fors(out, s.body), s.els)
	}
	return out
}

// Memo is one control code of a lowered program and what the lowering
// decided for it.
type Memo struct {
	Op       string // the statement: "coerce", "guard", "aread", …
	Field    string // "lo", "hi", "x" or "y"
	Depth    int    // how many loops enclose the statement
	Memoized bool
}

func (m Memo) String() string {
	return fmt.Sprintf("%s.%s@%d memoized=%v", m.Op, m.Field, m.Depth, m.Memoized)
}

var opNames = map[opcode]string{
	opAlloc: "alloc", opAllocBuf: "allocbuf", opAssignVar: "assign", opAssignIVar: "assigni",
	opARead: "aread", opAWrite: "awrite", opBufRead: "bufread", opBufWrite: "bufwrite",
	opSend: "send", opRecv: "recv", opSendBuf: "sendbuf", opRecvBuf: "recvbuf",
	opCoerce: "coerce", opFor: "for", opGuard: "guard", opIfValue: "if",
}

// Memos lists every control code of l, statements in pre-order and fields in
// lo, hi, x, y order.
func Memos(l *Lowered) []Memo { return memos(nil, l.body, 0) }

func memos(out []Memo, body []lstmt, depth int) []Memo {
	for i := range body {
		s := &body[i]
		for k, f := range [...]uint16{mLo, mHi, mX, mY} {
			if s.code(f) != nil && (s.op != opFor || f != mY) { // a For's y holds its keys
				out = append(out, Memo{Op: opNames[s.op], Field: [...]string{"lo", "hi", "x", "y"}[k],
					Depth: depth, Memoized: s.flags&f != 0})
			}
		}
		inner := depth
		if s.op == opFor {
			inner++
		}
		out = memos(out, s.body, inner)
		out = memos(out, s.els, inner)
	}
	return out
}

// Codes lists the control codes (lo, hi, x, y) of every statement of
// process p's program whose opcode opNames names op, in pre-order.
func (im *Image) Codes(p int, op string) [][4]*expr.Code {
	var out [][4]*expr.Code
	var walk func(body []lstmt)
	walk = func(body []lstmt) {
		for i := range body {
			s := &body[i]
			if opNames[s.op] == op {
				out = append(out, [4]*expr.Code{s.lo, s.hi, s.x, s.y})
			}
			walk(s.body)
			walk(s.els)
		}
	}
	walk(im.low[p].body)
	return out
}

// Lower lowers prog alone: LowerAll's path, with one program run by one
// process, whatever process it was specialized for.
func Lower(prog *spmd.Program) *Lowered {
	return lower(func(int) *spmd.Program { return prog }, 1)[0]
}
