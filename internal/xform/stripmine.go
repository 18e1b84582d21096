package xform

import (
	"fmt"

	"procdecomp/internal/expr"
	"procdecomp/internal/spmd"
)

// StripMine applies Optimized III (Appendix A.4): the pipelined per-element
// messages produced by Jam are blocked. Each loop that receives or sends a
// channel's elements one at a time is strip-mined into an outer block loop
// and an inner element loop; a whole block is received before the inner loop
// and the produced block is sent after it, using the snewvalues/rnewvalues
// buffers of the paper's Fig. 3.
//
// Applicability per channel: the channel carries a written array; every site
// is either a fused compute loop (per-element Recv and/or adjacent
// ARead+Send of the channel directly in a unit-stride loop body) or a
// remainder element-send loop; and all site loops share the same bounds so
// both ends chunk identically. Returns the number of channels transformed.
func StripMine(progs []*spmd.Program, blksize int64) int {
	if blksize <= 0 {
		return 0
	}
	transformed := 0
	for {
		s := collect(progs)
		tag, ok := s.nextStripminable()
		if !ok {
			return transformed
		}
		s.stripMineChannel(tag, blksize)
		transformed++
	}
}

// smSite is one loop participating in a channel, in fused or send-loop form.
type smSite struct {
	holder *[]spmd.Stmt
	pos    int
	loop   *spmd.For
	// positions within loop.Body
	recvPos int // index of Recv, or -1
	sendPos int // index of the ARead of an adjacent ARead+Send pair, or of
	// the IfValue wrapping such a pair; -1 if none
	sendCond spmd.VExpr // condition wrapping the pair, nil if bare
	sendRead *spmd.ARead
	sendStmt *spmd.Send
}

// stripPlan gathers every loop touching the channel. ok is false when any
// site is outside the supported shapes or bounds disagree.
func (s *suite) stripPlan(tag spmd.Tag) ([]*smSite, bool) {
	var sites []*smSite
	var lo, hi expr.Expr
	haveBounds := false
	addLoop := func(holder *[]spmd.Stmt, pos int, f *spmd.For) *smSite {
		for _, st := range sites {
			if st.loop == f {
				return st
			}
		}
		st := &smSite{holder: holder, pos: pos, loop: f, recvPos: -1, sendPos: -1}
		sites = append(sites, st)
		return st
	}

	okShape := true
	var walk func(body *[]spmd.Stmt, accounted bool)
	walk = func(body *[]spmd.Stmt, accounted bool) {
		for i := 0; i < len(*body); i++ {
			switch st := (*body)[i].(type) {
			case *spmd.For:
				// Does this loop touch the channel directly in its body
				// (possibly through a fused send's condition wrapper)?
				touches := false
				for _, inner := range st.Body {
					switch inner := inner.(type) {
					case *spmd.Recv:
						if inner.Tag == tag {
							touches = true
						}
					case *spmd.Send:
						if inner.Tag == tag {
							touches = true
						}
					case *spmd.IfValue:
						for _, t := range inner.Then {
							if sd, ok := t.(*spmd.Send); ok && sd.Tag == tag {
								touches = true
							}
						}
					}
				}
				if touches {
					site := addLoop(body, i, st)
					if !s.classifySite(site, tag) {
						okShape = false
						return
					}
					if v, okc := st.Step.ConstVal(); !okc || v != 1 {
						okShape = false
						return
					}
					if !haveBounds {
						lo, hi, haveBounds = st.Lo, st.Hi, true
					} else if !st.Lo.Equal(lo) || !st.Hi.Equal(hi) {
						okShape = false
						return
					}
				}
				walk(&st.Body, touches)
			case *spmd.IfValue:
				walk(&st.Then, accounted)
				walk(&st.Else, accounted)
			case *spmd.Guard:
				walk(&st.Body, false)
			case *spmd.Recv:
				if st.Tag == tag && !accounted {
					okShape = false // receive outside any site loop
					return
				}
			case *spmd.Send:
				if st.Tag == tag && !accounted {
					okShape = false // send outside a recognized site loop
					return
				}
			case *spmd.SendBuf:
				if st.Tag == tag {
					okShape = false // already block-based
					return
				}
			case *spmd.RecvBuf:
				if st.Tag == tag {
					okShape = false
					return
				}
			case *spmd.Coerce:
				if st.Tag == tag {
					okShape = false
					return
				}
			}
			if !okShape {
				return
			}
		}
	}
	for _, p := range s.progs {
		walk(&p.Body, false)
		if !okShape {
			return nil, false
		}
	}
	if !haveBounds {
		return nil, false
	}
	// Lo need not be constant — only shared, so both ends chunk identically.
	return sites, len(sites) > 0
}

// classifySite locates the channel operations inside the site loop:
// at most one Recv and at most one adjacent ARead+Send pair, and no bare
// element operations of other channels (those would be re-chunked
// inconsistently with their own remote ends).
func (s *suite) classifySite(site *smSite, tag spmd.Tag) bool {
	matchPair := func(rd *spmd.ARead, sd *spmd.Send) bool {
		vv, ok := sd.Val.(spmd.VVar)
		return ok && vv.Name == rd.Dst && !sd.Dst.HasVar(site.loop.Var)
	}
	for k, inner := range site.loop.Body {
		switch inner := inner.(type) {
		case *spmd.Recv:
			if inner.Tag != tag {
				return false
			}
			if site.recvPos >= 0 {
				return false
			}
			site.recvPos = k
		case *spmd.Send:
			if inner.Tag != tag {
				return false
			}
			if site.sendPos >= 0 || k == 0 {
				return false
			}
			rd, ok := site.loop.Body[k-1].(*spmd.ARead)
			if !ok || !matchPair(rd, inner) {
				return false
			}
			site.sendPos, site.sendRead, site.sendStmt = k-1, rd, inner
		case *spmd.IfValue:
			// The only conditional shape supported is a fused send guarded
			// by its original send condition: exactly [ARead; Send]. Any
			// other conditional communication makes the loop ineligible —
			// re-chunking it would desynchronize the channel's remote end.
			if !containsComm(inner.Then) && !containsComm(inner.Else) {
				continue
			}
			if len(inner.Then) != 2 || len(inner.Else) != 0 {
				return false
			}
			rd, okR := inner.Then[0].(*spmd.ARead)
			sd, okS := inner.Then[1].(*spmd.Send)
			if !okR || !okS || sd.Tag != tag {
				return false
			}
			if site.sendPos >= 0 || !matchPair(rd, sd) {
				return false
			}
			site.sendPos, site.sendCond, site.sendRead, site.sendStmt = k, inner.Cond, rd, sd
		case *spmd.For, *spmd.Coerce, *spmd.SendBuf, *spmd.RecvBuf:
			// Nested loops or other communication forms: unsupported shape.
			return false
		}
	}
	return site.recvPos >= 0 || site.sendPos >= 0
}

func (s *suite) nextStripminable() (spmd.Tag, bool) {
	var tags []spmd.Tag
	for t := range s.allChannelTags() {
		tags = append(tags, t)
	}
	sortTags(tags)
	for _, t := range tags {
		if _, ok := s.stripPlan(t); ok {
			return t, true
		}
	}
	return 0, false
}

// allChannelTags scans for element send/recv tags anywhere (fused sends are
// bare Sends, so s.sends does not cover them).
func (s *suite) allChannelTags() map[spmd.Tag]bool {
	out := map[spmd.Tag]bool{}
	for _, p := range s.progs {
		spmd.Inspect(p.Body, func(st spmd.Stmt) bool {
			switch st := st.(type) {
			case *spmd.Send:
				out[st.Tag] = true
			case *spmd.Recv:
				out[st.Tag] = true
			}
			return true
		})
	}
	return out
}

func sortTags(tags []spmd.Tag) {
	for i := 1; i < len(tags); i++ {
		for j := i; j > 0 && tags[j] < tags[j-1]; j-- {
			tags[j], tags[j-1] = tags[j-1], tags[j]
		}
	}
}

func (s *suite) stripMineChannel(tag spmd.Tag, blksize int64) {
	sites, _ := s.stripPlan(tag)
	for _, site := range sites {
		f := site.loop
		kVar := f.Var + ".blk"
		blkLo := expr.Add(f.Lo, expr.Mul(expr.V(kVar), expr.C(blksize)))
		blkHi := expr.Min(expr.Add(blkLo, expr.C(blksize-1)), f.Hi)
		cnt := expr.Add(expr.Sub(blkHi, blkLo), expr.C(1))
		pos := expr.Add(expr.Sub(expr.V(f.Var), blkLo), expr.C(1))

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
		blocks := expr.Div(expr.Sub(f.Hi, f.Lo), expr.C(blksize))
		outer := &spmd.For{Var: kVar, Lo: expr.C(0), Hi: blocks, Step: expr.C(1), Body: blockBody}

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

// containsComm reports whether a statement list contains any communication,
// at any depth.
func containsComm(body []spmd.Stmt) bool {
	found := false
	spmd.Inspect(body, func(st spmd.Stmt) bool {
		switch st.(type) {
		case *spmd.Send, *spmd.Recv, *spmd.SendBuf, *spmd.RecvBuf, *spmd.Coerce:
			found = true
		}
		return !found
	})
	return found
}
