// Package xform implements the message-passing optimizations of the paper's
// §4 and Appendix A as automated IR-to-IR passes over the specialized
// programs produced by compile-time resolution:
//
//   - vectorize (Optimized I, A.2): element sends of a read-only array are
//     combined into one column message ("the Old values do not change during
//     the computation"), and the matching element receives become one block
//     receive plus local buffer reads.
//
//   - jam (Optimized II, A.3): the loop that sends a produced array's
//     elements is fused into the loop that computes them, so every new value
//     is sent as soon as it is written — pipelining computation with
//     communication and exposing the wavefront parallelism.
//
//   - strip mining (Optimized III, A.4): the pipelined per-element messages
//     are blocked: values accumulate in a buffer and are sent every blksize
//     elements, trading a little pipeline latency for far fewer messages.
//
// The paper applied these transformations by hand ("We plan to automate
// these transformations in the next phase of our compiler development");
// here they are automated for the program shapes compile-time resolution
// emits. A Pass names one of them, and Pass.Apply is the only way one runs.
// It takes a census of every channel site in the programs (collect, the
// package's only walk over statement lists), rewrites the lowest-numbered
// channel whose plan — a predicate over the census — holds, and takes a
// fresh census, until no channel qualifies. A channel is identified by its
// message tag, which is global across the process programs; it is rewritten
// only when the applicability conditions hold at every send and receive
// site in every program, and is left untouched otherwise. The passes only
// move sends earlier relative to their receives, or re-chunk both sides of
// a channel identically, so they preserve deadlock-freedom and per-channel
// FIFO order.
//
// Interchange (§4) is not a message pass: it swaps a perfectly nested loop
// pair of the generic program, before specialization, to align the
// iteration order with the decomposition.
package xform

import (
	"slices"
	"strings"

	"procdecomp/internal/expr"
	"procdecomp/internal/spmd"
)

// sendLoop is one element-send pair inside a pure communication loop:
//
//	for v = lo to hi { ...; ct := is_read(A[v, e]); send(ct, to dst); ... }
//
// with dst and e invariant in v. The loop may pack several channels (when
// ownership classes coincide, e.g. on a two-processor ring the left and
// right neighbours are the same process); each read/send pair is a separate
// site. A loop qualifies only when it performs no receives, no array writes,
// and no nested control flow — it is purely a column-emission loop.
type sendLoop struct {
	loop    *spmd.For
	array   string
	read    *spmd.ARead
	send    *spmd.Send
	pairPos int // index of the ARead in loop.Body; the Send follows it
	dim     int // which subscript varies with the loop (0 rows, 1 columns)
}

// varyingDim reports which subscript of a rank-2 index equals the loop
// variable, with the other subscript loop-invariant.
func varyingDim(idx []expr.Expr, v string) (int, bool) {
	if len(idx) != 2 {
		return 0, false
	}
	if idx[0].Equal(expr.V(v)) && !idx[1].HasVar(v) {
		return 0, true
	}
	if idx[1].Equal(expr.V(v)) && !idx[0].HasVar(v) {
		return 1, true
	}
	return 0, false
}

// sendPair matches the read-and-send pair every message pass rewrites: body[i]
// is a Send of the value the ARead just before it read, to a destination
// invariant in the loop variable v.
func sendPair(body []spmd.Stmt, i int, v string) (*spmd.ARead, *spmd.Send, bool) {
	sd, ok := body[i].(*spmd.Send)
	if !ok || i == 0 {
		return nil, nil, false
	}
	rd, ok := body[i-1].(*spmd.ARead)
	if !ok {
		return nil, nil, false
	}
	vv, ok := sd.Val.(spmd.VVar)
	if !ok || vv.Name != rd.Dst || sd.Dst.HasVar(v) {
		return nil, nil, false
	}
	return rd, sd, true
}

// matchSendPairs returns every element-send pair of a pure communication
// loop, or ok=false when the loop does not qualify (its sends are then bare
// sends, which vectorize and jam do not rewrite).
func matchSendPairs(f *spmd.For) ([]sendLoop, bool) {
	if v, ok := f.Step.ConstVal(); !ok || v != 1 {
		return nil, false
	}
	var pairs []sendLoop
	for i := 0; i < len(f.Body); i++ {
		switch f.Body[i].(type) {
		case *spmd.ARead:
			// Part of a pair, or a stray read (neutral).
		case *spmd.Send:
			rd, sd, ok := sendPair(f.Body, i, f.Var)
			if !ok {
				return nil, false
			}
			dim, ok := varyingDim(rd.Idx, f.Var)
			if !ok {
				return nil, false
			}
			pairs = append(pairs, sendLoop{loop: f, array: rd.Array, read: rd, send: sd, pairPos: i - 1, dim: dim})
		case *spmd.BufWrite, *spmd.AssignVar:
			// Neutral packing statements.
		default:
			return nil, false // receives, writes, nested control: not a send loop
		}
	}
	return pairs, len(pairs) > 0
}

// site is one element receive or send of a channel, with the context needed
// to rewrite it in place.
type site struct {
	prog *spmd.Program
	tag  spmd.Tag
	// holder/pos locate the top statement of the site (the send loop, or
	// the Recv or Send itself) in its containing list.
	holder *[]spmd.Stmt
	pos    int
	// cond is the condition of the enclosing IfValue piece (nil if none).
	cond spmd.VExpr
	// roundVar is the variable of the enclosing round loop ("" if none).
	roundVar string
	// home is the innermost loop enclosing the site with no guard between
	// them (for a send-loop pair, the send loop); nil if there is none.
	home *spmd.For

	recv *spmd.Recv // an element receive
	send *sendLoop  // an element-send-loop pair
	bare *spmd.Send // any other send: fused into a computing loop, or scalar
}

// loopSite is one loop with its location, and what its own body holds of
// channel operations in the shape strip mining re-chunks: at most one Recv
// and at most one read-and-send pair, bare or as the whole of an IfValue, all
// of one channel.
type loopSite struct {
	holder *[]spmd.Stmt
	pos    int
	loop   *spmd.For

	tag      spmd.Tag    // the channel of the operations below
	recvPos  int         // index of the Recv in loop.Body, or -1
	sendPos  int         // index of the pair's ARead, or of the IfValue wrapping the pair; -1 if none
	sendCond spmd.VExpr  // condition wrapping the pair, nil if bare
	sendRead *spmd.ARead // the pair
	sendStmt *spmd.Send
	// mixed is set when the body also holds operations of another channel,
	// a second receive or send, a send outside the pair shape, other
	// conditional communication, a nested loop, a block operation or a
	// coerce — re-chunking it would desynchronize some channel's remote end.
	mixed bool
}

// take records a channel operation of the loop's own body at *pos.
func (l *loopSite) take(tag spmd.Tag, pos *int, at int) {
	if *pos >= 0 || (l.recvPos >= 0 || l.sendPos >= 0) && l.tag != tag {
		l.mixed = true
	}
	l.tag, *pos = tag, at
}

// takeSend records a Send of the loop's own body, which must end a
// read-and-send pair.
func (l *loopSite) takeSend(body []spmd.Stmt, i int) {
	rd, sd, ok := sendPair(body, i, l.loop.Var)
	if !ok {
		l.mixed = true
		return
	}
	l.take(sd.Tag, &l.sendPos, i-1)
	l.sendRead, l.sendStmt = rd, sd
}

// takeCond records an IfValue of the loop's own body that holds
// communication: it must be a read-and-send pair guarded by its send
// condition (a send jam fused into this loop), and nothing else.
func (l *loopSite) takeCond(i int, st *spmd.IfValue) {
	if len(st.Then) != 2 || len(st.Else) != 0 {
		l.mixed = true
		return
	}
	rd, sd, ok := sendPair(st.Then, 1, l.loop.Var)
	if !ok {
		l.mixed = true
		return
	}
	l.take(sd.Tag, &l.sendPos, i)
	l.sendCond, l.sendRead, l.sendStmt = st.Cond, rd, sd
}

// loopWrite is an array write of a loop's own body, which makes the loop a
// producer of the array when the write's subscript varies with the loop
// variable (jamPlan asks). cond and roundVar are as for a site.
type loopWrite struct {
	prog     *spmd.Program
	loop     *spmd.For
	write    *spmd.AWrite
	writePos int
	cond     spmd.VExpr
	roundVar string
}

// suite is the channel census of a program suite: every fact the message
// passes test.
type suite struct {
	sites   []site                 // element receives and sends, in program order
	tags    []spmd.Tag             // the channels of the sites, sorted
	loops   map[*spmd.For]loopSite // every loop whose body holds communication
	blocked map[spmd.Tag]bool      // channels with a block send or receive, or a coerce
	written map[string]bool        // arrays written anywhere in any program
	writes  []loopWrite            // the writes loops make in their own bodies
}

// collect takes a fresh census of progs into s, reusing its storage. The
// driver re-collects after rewriting each channel, so site positions are
// never stale.
func (s *suite) collect(progs []*spmd.Program) *suite {
	clear(s.loops)
	clear(s.blocked)
	clear(s.written)
	s.sites, s.writes, s.tags = s.sites[:0], s.writes[:0], s.tags[:0]
	for _, p := range progs {
		s.walk(p, &p.Body, walkCtx{})
	}
	for i := range s.sites {
		s.tags = append(s.tags, s.sites[i].tag)
	}
	slices.Sort(s.tags)
	s.tags = slices.Compact(s.tags)
	return s
}

type walkCtx struct {
	cond     spmd.VExpr
	roundVar string
	// home is the innermost loop with no guard in between (nil if none),
	// and holder/pos locate it.
	home   *spmd.For
	holder *[]spmd.Stmt
	pos    int
	direct bool // the list is home's own body
	pairs  bool // home is a send loop, whose pairs are recorded already
}

// walk records the sites of one statement list and reports whether the list
// holds any channel operation, at any depth. The call that walks a loop's own
// body classifies the loop for strip mining as it goes.
func (s *suite) walk(p *spmd.Program, body *[]spmd.Stmt, ctx walkCtx) (comm bool) {
	at := site{prog: p, holder: body, cond: ctx.cond, roundVar: ctx.roundVar, home: ctx.home}
	// own is home's record when the list is home's own body; elsewhere it is
	// dropped.
	own := loopSite{holder: ctx.holder, pos: ctx.pos, loop: ctx.home, recvPos: -1, sendPos: -1}
	for i := 0; i < len(*body); i++ {
		at.pos = i
		switch st := (*body)[i].(type) {
		case *spmd.AWrite:
			s.written[st.Array] = true
			if ctx.direct {
				s.writes = append(s.writes, loopWrite{prog: p, loop: ctx.home, write: st, writePos: i, cond: ctx.cond, roundVar: ctx.roundVar})
			}
		case *spmd.Coerce:
			s.blocked[st.Tag], own.mixed, comm = true, true, true
		case *spmd.SendBuf:
			s.blocked[st.Tag], own.mixed, comm = true, true, true
		case *spmd.RecvBuf:
			s.blocked[st.Tag], own.mixed, comm = true, true, true
		case *spmd.Recv:
			rs := at
			rs.tag, rs.recv = st.Tag, st
			s.sites = append(s.sites, rs)
			own.take(st.Tag, &own.recvPos, i)
			comm = true
		case *spmd.Send:
			if !ctx.pairs {
				bs := at
				bs.tag, bs.bare = st.Tag, st
				s.sites = append(s.sites, bs)
			}
			if ctx.direct {
				own.takeSend(*body, i)
			}
			comm = true
		case *spmd.For:
			own.mixed = true
			inner := walkCtx{cond: ctx.cond, roundVar: ctx.roundVar, home: st, holder: body, pos: i, direct: true}
			if pairs, ok := matchSendPairs(st); ok {
				for k := range pairs {
					ps := at
					ps.tag, ps.home, ps.send = pairs[k].send.Tag, st, &pairs[k]
					s.sites = append(s.sites, ps)
				}
				inner.pairs = true
			} else if isRoundLoop(st) {
				inner.roundVar = st.Var
			}
			comm = s.walk(p, &st.Body, inner) || comm
		case *spmd.IfValue:
			inner := ctx
			inner.direct = false
			thenCtx := inner
			thenCtx.cond = st.Cond
			c := s.walk(p, &st.Then, thenCtx)
			c = s.walk(p, &st.Else, inner) || c
			if c && ctx.direct {
				own.takeCond(i, st)
			}
			comm = comm || c
		case *spmd.Guard:
			comm = s.walk(p, &st.Body, walkCtx{cond: ctx.cond, roundVar: ctx.roundVar}) || comm
		}
	}
	if ctx.direct && comm {
		s.loops[ctx.home] = own
	}
	return comm
}

// isRoundLoop recognizes the round structure compile-time resolution emits
// when several ownership classes share one loop: every body item is a
// range-guarded piece.
func isRoundLoop(f *spmd.For) bool {
	if len(f.Body) == 0 {
		return false
	}
	for _, st := range f.Body {
		if _, ok := st.(*spmd.IfValue); !ok {
			return false
		}
	}
	return true
}

// pairsOnly reports whether every send of the channel is an element-send-loop
// pair and it has no block operation or coerce: the channels vectorize and
// jam can rewrite.
func (s *suite) pairsOnly(tag spmd.Tag) bool {
	if s.blocked[tag] {
		return false
	}
	for _, st := range s.sites {
		if st.tag == tag && st.bare != nil {
			return false
		}
	}
	return true
}

// splice replaces (*holder)[pos] with the given statements.
func splice(holder *[]spmd.Stmt, pos int, repl ...spmd.Stmt) {
	out := make([]spmd.Stmt, 0, len(*holder)-1+len(repl))
	out = append(out, (*holder)[:pos]...)
	out = append(out, repl...)
	out = append(out, (*holder)[pos+1:]...)
	*holder = out
}

// condOrTrue substitutes "always true" for a nil piece condition.
func condOrTrue(c spmd.VExpr) spmd.VExpr {
	if c == nil {
		return spmd.VConst{F: 1}
	}
	return c
}

// Interchange swaps a perfectly nested loop pair whose outer loop has the
// given variable, in the (generic) program body. §4: "if the sequential
// version of Gauss-Seidel had had the i and j-loops reversed then [the]
// generated code would not have shown any parallelism, so loop interchange
// would be required."
//
// The structural preconditions checked here are that the outer loop's body
// is exactly the inner loop and that neither loop's bounds mention the other
// loop's variable. Dependence legality is the caller's responsibility (the
// paper treats it as a planned compiler phase guided by the mapping); the
// equivalence tests in this repository validate the uses the benchmarks make
// of it. Returns true when a swap happened.
func Interchange(prog *spmd.Program, outerVar string) bool {
	done := false
	spmd.Inspect(prog.Body, func(st spmd.Stmt) bool {
		f, ok := st.(*spmd.For)
		if !ok || !matchesVar(f.Var, outerVar) || len(f.Body) != 1 {
			return true
		}
		in, ok := f.Body[0].(*spmd.For)
		if !ok || in.Lo.HasVar(f.Var) || in.Hi.HasVar(f.Var) || in.Step.HasVar(f.Var) ||
			f.Lo.HasVar(in.Var) || f.Hi.HasVar(in.Var) || f.Step.HasVar(in.Var) {
			return true
		}
		f.Var, f.Lo, f.Hi, f.Step, in.Var, in.Lo, in.Hi, in.Step = in.Var, in.Lo, in.Hi, in.Step, f.Var, f.Lo, f.Hi, f.Step
		done = true
		return false // the swapped nest is not searched again
	})
	return done
}

// matchesVar accepts the source variable name or the compiler's uniquified
// form of it ("i" matches both "i" and "i#2").
func matchesVar(irVar, srcVar string) bool {
	return irVar == srcVar || strings.HasPrefix(irVar, srcVar+"#")
}
