package exec

import (
	"fmt"
	"slices"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/spmd"
)

// Lowering. The stepper does not run spmd.Program trees: LowerAll resolves an
// image's programs, once, into the form it runs, with one lowerer for them
// all. Every name becomes a slot in the image's one name table — variables
// (temporaries, loop variables and me) index the stepper's frame; arrays,
// buffers and scalar I-variables index the domain's stores — so every process
// numbers a name alike. Every expr.Expr becomes an expr.Code over the
// variable slots through the image's one expr.Compiler, so the processes of a
// compile-time-resolution image, which hold the same bounds, subscripts,
// owner codes and process numbers, share one Code for each value; a small
// constant's Code is built once for every image. Every value expression's
// operator count, the one charge that depends on the program text alone, is
// taken here, and, once every program is lowered, every loop-invariant
// control code gets a memo slot past the table's variables and every keyed
// loop its mark and its keys (memo.go, keyed.go).
// Nothing is evaluated or checked: which statements run, what they charge
// and how they fail is decided when the stepper reaches them, exactly as
// before, so a lowered program that is never run has reported nothing.

// Lowered is an spmd.Program ready to step. It is immutable, so the processes
// of a run-time-resolution run share one, and the processes of an image share
// its name table and its Codes.
type Lowered struct {
	body []lstmt
	*nameTable
	// memos counts the memo slots a stepper's frame holds past the
	// variables (memo.go).
	memos int32
}

// nameTable is an image's one name table: slot → name, for messages (and for
// finding a parameter's or an output's slot by name). vars[meSlot] is
// spmd.Me.
type nameTable struct {
	vars, arrays, bufs, scalars []string
	// unknown holds the "unknown statement/value expression" messages of
	// nodes the lowering did not recognise; they fail only if reached.
	unknown []string
}

// meSlot is the variable slot of spmd.Me, bound before the first step.
const meSlot = 0

type opcode uint8

const (
	opUnknown opcode = iota
	opAlloc
	opAllocBuf
	opAssignVar
	opAssignIVar
	opARead
	opAWrite
	opBufRead
	opBufWrite
	opSend
	opRecv
	opSendBuf
	opRecvBuf
	opCoerce
	opFor
	opGuard
	opIfValue
)

// lstmt is one lowered statement. Fields are shared between opcodes by role.
// It is packed to 120 bytes (TestLoweredStatementSize): the stepper walks
// slices of them.
type lstmt struct {
	op opcode
	// flags holds the coerce bits (fFromArray, fOwnerAll, fNeederAll), a
	// For's fKeyed, an AssignIVar's fDef, and which of lo, hi, x, y are
	// memoized (mLo … mY, see memo.go). It sits in the padding after op.
	flags uint16
	// dst is the variable slot the statement defines: an assignment's name, a
	// read's or receive's destination, a loop's induction variable.
	dst int32
	// obj is the array, buffer or scalar I-variable slot the statement
	// touches (AssignIVar has both a dst and an obj: the name is a variable
	// and an I-variable). For opUnknown it indexes Lowered.unknown. For a
	// For, obj and rank are the frame range [obj, obj+rank) of the memo
	// slots the loop owns.
	obj  int32
	rank int32 // Alloc: len(Shape)
	tag  spmd.Tag
	ops  int32 // vexprOps of val (or of the IfValue condition)
	// memo is the frame slot of the first memoized code of lo, hi, x, y; the
	// others follow it in that order.
	memo int32
	// lo, hi: loop bounds; a block transfer's range; the subscripts of an
	// array element (hi nil for a vector); a buffer subscript or size (lo);
	// an allocation's shape.
	lo, hi *expr.Code
	// x: the loop step; a message's peer; a guard's process; a coerce's owner.
	// y: a coerce's needer; a keyed For's keys (keyed.go), never memoized.
	x, y *expr.Code
	val  *lvexpr // the value assigned, stored or sent; the IfValue condition
	body []lstmt // For, Guard; IfValue's Then
	els  []lstmt // IfValue's Else
}

// lvexpr is a lowered spmd.VExpr.
type lvexpr struct {
	f    Value      // vConst
	x    *expr.Code // vInt
	l, r *lvexpr    // vBin; vUn (l)
	op   lang.Op
	slot int32 // vVar; vUnknown: index into Lowered.unknown
	kind uint8
}

const (
	vUnknown uint8 = iota
	vConst
	vVar
	vInt
	vBin
	vUn
)

// lower lowers the program each of procs processes runs, pick(p) being
// process p's, with one lowerer: one name table and one expression-code
// table for the image. A program process p shares with process p-1 is
// lowered once. Memo slots are numbered last, past every variable any
// process names.
func lower(pick func(p int) *spmd.Program, procs int) []*Lowered {
	lw := &lowerer{nameTable: &nameTable{vars: []string{meSlot: spmd.Me}}}
	lw.exprs.Slot = lw.varSlot
	low := make([]*Lowered, procs)
	for p := range low {
		if p > 0 && pick(p) == pick(p-1) {
			low[p] = low[p-1]
			continue
		}
		prog := pick(p)
		// A parameter has a slot even if the body never touches it: the
		// harness fills it before the run and gathers it back as an output.
		for _, prm := range prog.Params {
			intern(&lw.arrays, prm.Name)
		}
		low[p] = &Lowered{body: lw.stmts(prog.Body), nameTable: lw.nameTable}
	}
	for p, l := range low {
		if p == 0 || l != low[p-1] {
			l.memoize()
		}
	}
	return low
}

// intern returns name's index in names, appending it if new. Programs name a
// few dozen things at most, so a scan beats a map and allocates nothing.
func intern(names *[]string, name string) int32 {
	if i := index(*names, name); i >= 0 {
		return i
	}
	*names = append(*names, name)
	return int32(len(*names) - 1)
}

// index returns name's slot in names, or -1.
func index(names []string, name string) int32 { return int32(slices.Index(names, name)) }

type lowerer struct {
	*nameTable
	exprs expr.Compiler
}

func (lw *lowerer) varSlot(name string) int32 { return intern(&lw.vars, name) }

func (lw *lowerer) code(e expr.Expr) *expr.Code { return lw.exprs.Compile(e) }

// codes lowers up to two subscripts or dimensions into (lo, hi).
func (lw *lowerer) codes(es []expr.Expr) (lo, hi *expr.Code) {
	if len(es) >= 1 {
		lo = lw.code(es[0])
	}
	if len(es) == 2 {
		hi = lw.code(es[1])
	}
	return lo, hi
}

func (lw *lowerer) unknownf(format string, args ...any) int32 {
	lw.unknown = append(lw.unknown, fmt.Sprintf(format, args...))
	return int32(len(lw.unknown) - 1)
}

func (lw *lowerer) stmts(body []spmd.Stmt) []lstmt {
	if len(body) == 0 {
		return nil
	}
	out := make([]lstmt, len(body))
	for i, s := range body {
		lw.stmt(&out[i], s)
	}
	return out
}

func (lw *lowerer) stmt(o *lstmt, s spmd.Stmt) {
	switch s := s.(type) {
	case *spmd.Alloc:
		o.op, o.obj, o.rank = opAlloc, intern(&lw.arrays, s.Array), int32(len(s.Shape))
		o.lo, o.hi = lw.codes(s.Shape)
	case *spmd.AllocBuf:
		o.op, o.obj, o.lo = opAllocBuf, intern(&lw.bufs, s.Buf), lw.code(s.Size)
	case *spmd.AssignVar:
		o.op, o.dst = opAssignVar, lw.varSlot(s.Name)
		o.val, o.ops = lw.value(s.Val)
	case *spmd.AssignIVar:
		o.op, o.dst, o.obj = opAssignIVar, lw.varSlot(s.Name), intern(&lw.scalars, s.Name)
		o.val, o.ops = lw.value(s.Val)
		if s.Def {
			o.flags |= fDef
		}
	case *spmd.ARead:
		o.op, o.dst, o.obj = opARead, lw.varSlot(s.Dst), intern(&lw.arrays, s.Array)
		o.lo, o.hi = lw.codes(s.Idx)
	case *spmd.AWrite:
		o.op, o.obj = opAWrite, intern(&lw.arrays, s.Array)
		o.lo, o.hi = lw.codes(s.Idx)
		o.val, o.ops = lw.value(s.Val)
	case *spmd.BufRead:
		o.op, o.dst, o.obj, o.lo = opBufRead, lw.varSlot(s.Dst), intern(&lw.bufs, s.Buf), lw.code(s.Idx)
	case *spmd.BufWrite:
		o.op, o.obj, o.lo = opBufWrite, intern(&lw.bufs, s.Buf), lw.code(s.Idx)
		o.val, o.ops = lw.value(s.Val)
	case *spmd.Send:
		o.op, o.x, o.tag = opSend, lw.code(s.Dst), s.Tag
		o.val, o.ops = lw.value(s.Val)
	case *spmd.Recv:
		o.op, o.x, o.tag, o.dst = opRecv, lw.code(s.Src), s.Tag, lw.varSlot(s.Dst)
	case *spmd.SendBuf:
		o.op, o.x, o.tag, o.obj = opSendBuf, lw.code(s.Dst), s.Tag, intern(&lw.bufs, s.Buf)
		o.lo, o.hi = lw.code(s.Lo), lw.code(s.Hi)
	case *spmd.RecvBuf:
		o.op, o.x, o.tag, o.obj = opRecvBuf, lw.code(s.Src), s.Tag, intern(&lw.bufs, s.Buf)
		o.lo, o.hi = lw.code(s.Lo), lw.code(s.Hi)
	case *spmd.Coerce:
		o.op, o.dst, o.tag = opCoerce, lw.varSlot(s.Dst), s.Tag
		if s.Array != "" {
			o.flags |= fFromArray
			o.obj = intern(&lw.arrays, s.Array)
			o.lo, o.hi = lw.codes(s.Idx)
		} else {
			o.obj = intern(&lw.scalars, s.Var)
		}
		// An "all" flag means the expression beside it is never read.
		if s.OwnerAll {
			o.flags |= fOwnerAll
		} else {
			o.x = lw.code(s.Owner)
		}
		if s.NeederAll {
			o.flags |= fNeederAll
		} else {
			o.y = lw.code(s.Needer)
		}
	case *spmd.For:
		o.op, o.dst = opFor, lw.varSlot(s.Var)
		o.lo, o.hi, o.x = lw.code(s.Lo), lw.code(s.Hi), lw.code(s.Step)
		o.body = lw.stmts(s.Body)
	case *spmd.Guard:
		o.op, o.x, o.body = opGuard, lw.code(s.Proc), lw.stmts(s.Body)
	case *spmd.IfValue:
		o.op = opIfValue
		o.val, o.ops = lw.value(s.Cond)
		o.body, o.els = lw.stmts(s.Then), lw.stmts(s.Else)
	default:
		o.op, o.obj = opUnknown, lw.unknownf("unknown statement %T", s)
	}
}

// value lowers v and counts its operator nodes, the cost accounting's charge
// for evaluating it.
func (lw *lowerer) value(v spmd.VExpr) (*lvexpr, int32) {
	switch v := v.(type) {
	case spmd.VConst:
		return &lvexpr{kind: vConst, f: v.F}, 0
	case spmd.VVar:
		return &lvexpr{kind: vVar, slot: lw.varSlot(v.Name)}, 0
	case spmd.VInt:
		return &lvexpr{kind: vInt, x: lw.code(v.X)}, 0
	case spmd.VBin:
		l, lops := lw.value(v.L)
		r, rops := lw.value(v.R)
		return &lvexpr{kind: vBin, op: v.Op, l: l, r: r}, 1 + lops + rops
	case spmd.VUn:
		x, ops := lw.value(v.X)
		return &lvexpr{kind: vUn, op: v.Op, l: x}, 1 + ops
	default:
		return &lvexpr{kind: vUnknown, slot: lw.unknownf("unknown value expression %T", v)}, 0
	}
}
