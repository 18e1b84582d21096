package xform

import (
	"fmt"

	"procdecomp/internal/expr"
	"procdecomp/internal/spmd"
)

// vectorizable is Optimized I's plan (Appendix A.2): for a channel whose
// source array is read-only ("the Old values are not changed during the
// execution of the loop"), the element-send loop becomes a pack-and-send of
// one column message, and every matching element receive becomes one block
// receive before its loop plus buffer reads inside it.
//
// Applicability per channel: every send site matches the element-send-loop
// pattern over a read-only array; every receive site is a bare receive
// directly inside a unit-stride loop whose bounds equal the send loop's; the
// channel has no other send, block operation or coerce.
func (s *suite) vectorizable(tag spmd.Tag) bool {
	if !s.pairsOnly(tag) {
		return false
	}
	var first *spmd.For // the first send loop; every loop shares its bounds
	for _, st := range s.sites {
		if st.tag != tag || st.send == nil {
			continue
		}
		if s.written[st.send.array] {
			return false // only read-only data may be hoisted into one message
		}
		if first == nil {
			first = st.send.loop
		} else if !st.send.loop.Lo.Equal(first.Lo) || !st.send.loop.Hi.Equal(first.Hi) {
			return false
		}
	}
	if first == nil {
		return false
	}
	for _, rt := range s.sites {
		if rt.tag != tag || rt.recv == nil {
			continue
		}
		f := rt.home
		if f == nil {
			return false
		}
		if v, ok := f.Step.ConstVal(); !ok || v != 1 {
			return false
		}
		if !f.Lo.Equal(first.Lo) || !f.Hi.Equal(first.Hi) {
			return false
		}
		if rt.recv.Src.HasVar(f.Var) {
			return false
		}
		// The receive must sit directly in the loop body (holder is the
		// loop's body) so the block receive can precede the loop.
		if rt.holder != &f.Body {
			return false
		}
	}
	return true
}

func (s *suite) vectorizeChannel(tag spmd.Tag) {
	for _, st := range s.sites {
		sl := st.send
		if st.tag != tag || sl == nil {
			continue
		}
		buf := fmt.Sprintf("oldvalues%d", tag)
		count := expr.Range(sl.loop.Lo, sl.loop.Hi).Count()
		pos := expr.Range(sl.loop.Lo, expr.V(sl.loop.Var)).Count()
		// The pair's send becomes a buffer write (the loop may pack other
		// channels too, so it is rewritten in place), and the single column
		// message goes out after the loop.
		sl.loop.Body[sl.pairPos+1] = &spmd.BufWrite{Buf: buf, Idx: pos, Val: spmd.VVar{Name: sl.read.Dst}}
		splice(st.holder, st.pos,
			&spmd.AllocBuf{Buf: buf, Size: count},
			sl.loop,
			&spmd.SendBuf{Dst: sl.send.Dst, Tag: tag, Buf: buf, Lo: expr.C(1), Hi: count},
		)
	}
	for _, rt := range s.sites {
		if rt.tag != tag || rt.recv == nil {
			continue
		}
		f := rt.home
		home := s.loops[f]
		buf := fmt.Sprintf("rvalues%d", tag)
		count := expr.Range(f.Lo, f.Hi).Count()
		pos := expr.Range(f.Lo, expr.V(f.Var)).Count()
		// Replace the element receive with a buffer read.
		(*rt.holder)[rt.pos] = &spmd.BufRead{Dst: rt.recv.Dst, Buf: buf, Idx: pos}
		// Hoist one block receive before the loop.
		splice(home.holder, home.pos,
			&spmd.AllocBuf{Buf: buf, Size: count},
			&spmd.RecvBuf{Src: rt.recv.Src, Tag: tag, Buf: buf, Lo: expr.C(1), Hi: count},
			f,
		)
	}
}
