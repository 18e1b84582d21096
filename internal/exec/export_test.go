package exec

import (
	"fmt"
	"slices"
)

// WithoutMemos returns a copy of l with nothing memoized: every memo bit,
// memo index and loop range zeroed. The same stepper runs it; it is the
// control the memo differential tests compare against, not a second path.
func WithoutMemos(l *Lowered) *Lowered {
	c := *l
	c.body, c.memos = unmemo(l.body), 0
	return &c
}

func unmemo(body []lstmt) []lstmt {
	if body == nil {
		return nil
	}
	out := slices.Clone(body)
	for i := range out {
		s := &out[i]
		s.flags &^= memoBits
		s.memo = 0
		if s.op == opFor {
			s.obj, s.rank = 0, 0
		}
		s.body, s.els = unmemo(s.body), unmemo(s.els)
	}
	return out
}

// WithoutMemos is the image whose every process runs WithoutMemos of its
// program.
func (im *Image) WithoutMemos() *Image {
	c := *im
	c.low = make([]*Lowered, len(im.low))
	for p, l := range im.low {
		c.low[p] = WithoutMemos(l)
	}
	return &c
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
		for k, f := range [...]uint8{mLo, mHi, mX, mY} {
			if s.code(f) != nil {
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
