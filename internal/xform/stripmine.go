package xform

import (
	"fmt"
	"slices"

	"procdecomp/internal/expr"
	"procdecomp/internal/spmd"
)

// stripPlan is Optimized III's plan (Appendix A.4): the pipelined
// per-element messages produced by jam are blocked. Each loop that receives
// or sends a channel's elements one at a time is strip-mined into an outer
// block loop and an inner element loop; a whole block is received before the
// inner loop and the produced block is sent after it, using the
// snewvalues/rnewvalues buffers of the paper's Fig. 3.
//
// Applicability per channel: the channel has no block operation or coerce;
// every element receive and send sits in a loop whose own body holds the
// channel in the shape strip mining re-chunks (a fused compute loop, or a
// remainder element-send loop; see loopSite), with no guard between them;
// and all those loops have unit stride and share their bounds, so both ends
// chunk identically. The plan is the channel's loops, in program order.
func (s *suite) stripPlan(tag spmd.Tag) ([]loopSite, bool) {
	if s.blocked[tag] {
		return nil, false
	}
	var loops []loopSite
	for _, st := range s.sites {
		if st.tag != tag {
			continue
		}
		l, ok := s.loops[st.home]
		if !ok || l.mixed || l.tag != tag {
			return nil, false
		}
		if v, ok := l.loop.Step.ConstVal(); !ok || v != 1 {
			return nil, false
		}
		// Lo need not be constant — only shared, so both ends chunk
		// identically.
		if len(loops) > 0 && (!l.loop.Lo.Equal(loops[0].loop.Lo) || !l.loop.Hi.Equal(loops[0].loop.Hi)) {
			return nil, false
		}
		if !slices.ContainsFunc(loops, func(m loopSite) bool { return m.loop == l.loop }) {
			loops = append(loops, l)
		}
	}
	return loops, len(loops) > 0
}

func stripMineChannel(tag spmd.Tag, sites []loopSite, blksize int64) {
	for _, site := range sites {
		f := site.loop
		kVar := f.Var + ".blk"
		blkLo := expr.Add(f.Lo, expr.Mul(expr.V(kVar), expr.C(blksize)))
		blkHi := expr.Min(expr.Add(blkLo, expr.C(blksize-1)), f.Hi)
		cnt := expr.Range(blkLo, blkHi).Count()
		pos := expr.Range(blkLo, expr.V(f.Var)).Count()

		rbuf := fmt.Sprintf("rnewvalues%d", tag)
		sbuf := fmt.Sprintf("snewvalues%d", tag)

		// Rewrite the loop body: Recv -> buffer read, Send -> buffer write
		// (keeping a fused send's condition wrapper around the write).
		var recvSrc expr.Expr
		body := make([]spmd.Stmt, 0, len(f.Body))
		for k := 0; k < len(f.Body); k++ {
			switch {
			case k == site.recvPos:
				rc := f.Body[k].(*spmd.Recv)
				recvSrc = rc.Src
				body = append(body, &spmd.BufRead{Dst: rc.Dst, Buf: rbuf, Idx: pos})
			case site.sendPos >= 0 && k == site.sendPos && site.sendCond != nil:
				pack := []spmd.Stmt{site.sendRead,
					&spmd.BufWrite{Buf: sbuf, Idx: pos, Val: site.sendStmt.Val}}
				body = append(body, &spmd.IfValue{Cond: site.sendCond, Then: pack})
			case site.sendPos >= 0 && site.sendCond == nil && k == site.sendPos+1:
				body = append(body, &spmd.BufWrite{Buf: sbuf, Idx: pos, Val: site.sendStmt.Val})
			default:
				body = append(body, f.Body[k])
			}
		}

		inner := &spmd.For{Var: f.Var, Lo: blkLo, Hi: blkHi, Step: expr.C(1), Body: body}
		var blockBody []spmd.Stmt
		if site.recvPos >= 0 {
			blockBody = append(blockBody, &spmd.RecvBuf{Src: recvSrc, Tag: tag, Buf: rbuf, Lo: expr.C(1), Hi: cnt})
		}
		blockBody = append(blockBody, inner)
		if site.sendPos >= 0 {
			sendBuf := spmd.Stmt(&spmd.SendBuf{Dst: site.sendStmt.Dst, Tag: tag, Buf: sbuf, Lo: expr.C(1), Hi: cnt})
			if site.sendCond != nil {
				sendBuf = &spmd.IfValue{Cond: site.sendCond, Then: []spmd.Stmt{sendBuf}}
			}
			blockBody = append(blockBody, sendBuf)
		}
		// The blocks start at Lo, Lo + blksize, ... up to Hi.
		blocks := expr.Owned{First: f.Lo, Hi: f.Hi, Stride: blksize}.Count()
		outer := &spmd.For{Var: kVar, Lo: expr.C(0), Hi: expr.Sub(blocks, expr.C(1)), Step: expr.C(1), Body: blockBody}

		var repl []spmd.Stmt
		if site.recvPos >= 0 {
			repl = append(repl, &spmd.AllocBuf{Buf: rbuf, Size: expr.C(blksize)})
		}
		if site.sendPos >= 0 {
			repl = append(repl, &spmd.AllocBuf{Buf: sbuf, Size: expr.C(blksize)})
		}
		repl = append(repl, outer)
		splice(site.holder, site.pos, repl...)
	}
}
