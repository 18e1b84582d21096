package xform

import (
	"fmt"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/spmd"
)

// jamPlan is Optimized II's plan (Appendix A.3): for a channel that carries
// a produced (written) array, the element-send loop is fused into the loop
// that computes the values — each new value is sent as soon as it is
// written, pipelining computation with communication.
//
// The specialized programs place the send role and the compute role of one
// column in different congruence classes of the round structure, so fusion
// must align them: if the send loop at round r transmits the column the
// compute loop produced at round r-δ (δ is found by comparing the two local
// column expressions), the fused send covers all rounds the compute loop
// runs, and the original send loop survives only as a remainder guarded by
// "this round's column was not produced by the compute loop" — for
// Gauss-Seidel, exactly the boundary column filled by init_boundary.
//
// Applicability per channel: every send site matches the element-send-loop
// pattern; the array is written; each sender program has exactly one
// producer loop (unit stride, same range as the send loop, the same
// subscript varying with it) whose shift δ ∈ {0,1,2} aligns the column
// expressions. Receive sites are untouched — moving sends earlier cannot
// starve them. The plan is one fusion step per send site.
func (s *suite) jamPlan(tag spmd.Tag) ([]jamStep, bool) {
	if !s.pairsOnly(tag) {
		return nil, false
	}
	var steps []jamStep
	for i := range s.sites {
		st := &s.sites[i]
		sl := st.send
		if st.tag != tag || sl == nil {
			continue
		}
		if !s.written[sl.array] {
			return nil, false // read-only channels belong to vectorize
		}
		// Among the loops producing this array, exactly one must align with
		// the sent slice: e_send(round+δ) == e_compute(round) for a small
		// shift δ in the loop-invariant subscript. Boundary-initialization
		// loops write constant slices and never align; they are covered by
		// the remainder condition.
		eSend := sl.read.Idx[1-sl.dim]
		rv := st.roundVar
		var chosen *jamStep
		for k := range s.writes {
			prod := &s.writes[k]
			if prod.prog != st.prog || prod.write.Array != sl.array {
				continue
			}
			if dim, ok := varyingDim(prod.write.Idx, prod.loop.Var); !ok || dim != sl.dim {
				continue
			}
			if !prod.loop.Lo.Equal(sl.loop.Lo) || !prod.loop.Hi.Equal(sl.loop.Hi) {
				continue
			}
			if v, ok := prod.loop.Step.ConstVal(); !ok || v != 1 {
				continue
			}
			if prod.roundVar != rv {
				continue
			}
			eComp := prod.write.Idx[1-sl.dim]
			for d := int64(0); d <= 2; d++ {
				cand := eSend
				if rv != "" {
					cand = eSend.Subst(rv, expr.Add(expr.V(rv), expr.C(d)))
				}
				if cand.Equal(eComp) {
					if chosen != nil {
						return nil, false // ambiguous producers
					}
					chosen = &jamStep{site: st, prod: prod, delta: d}
					break
				}
			}
		}
		if chosen == nil {
			return nil, false
		}
		steps = append(steps, *chosen)
	}
	return steps, len(steps) > 0
}

type jamStep struct {
	site  *site
	prod  *loopWrite // the producer loop's write
	delta int64
}

func jamChannel(tag spmd.Tag, steps []jamStep) {
	for _, step := range steps {
		sl := step.site.send
		prod := step.prod
		// Insert "read the freshly written element and send it" right after
		// the producing write (Appendix A.3's fused body). The send fires
		// only when the original send loop would have: a column nobody
		// consumes (the last one of the wavefront) is computed but not sent,
		// keeping the message count identical to the hand-written program.
		ct := fmt.Sprintf("jam%d", tag)
		fusedRead := &spmd.ARead{Dst: ct, Array: sl.array,
			Idx: []expr.Expr{prod.write.Idx[0], prod.write.Idx[1]}}
		fusedSend := &spmd.Send{Dst: sl.send.Dst, Tag: tag, Val: spmd.VVar{Name: ct}}
		fused := []spmd.Stmt{fusedRead, fusedSend}
		rv := step.site.roundVar
		sendCond := condOrTrue(step.site.cond)
		if rv != "" {
			sendCond = spmd.SubstVExpr(sendCond, rv, expr.Add(expr.V(rv), expr.C(step.delta)))
		}
		if !spmd.VExprEqual(sendCond, condOrTrue(prod.cond)) {
			fused = []spmd.Stmt{&spmd.IfValue{Cond: sendCond, Then: fused}}
		}
		body := prod.loop.Body
		out := make([]spmd.Stmt, 0, len(body)+2)
		out = append(out, body[:prod.writePos+1]...)
		out = append(out, fused...)
		out = append(out, body[prod.writePos+1:]...)
		prod.loop.Body = out

		// Detach the pair from its communication loop; the remainder loop
		// (below) re-emits it for the rounds the compute loop does not cover.
		residual := make([]spmd.Stmt, 0, len(sl.loop.Body)-2)
		residual = append(residual, sl.loop.Body[:sl.pairPos]...)
		residual = append(residual, sl.loop.Body[sl.pairPos+2:]...)
		sl.loop.Body = residual
		remainderLoop := &spmd.For{Var: sl.loop.Var, Lo: sl.loop.Lo, Hi: sl.loop.Hi,
			Step: sl.loop.Step, Body: []spmd.Stmt{sl.read, sl.send}}

		// The original send survives only for rounds whose column the
		// compute loop does not produce: rounds before δ, and rounds where
		// the shifted compute condition fails.
		var remainder spmd.Stmt
		switch {
		case rv == "" && spmd.VExprEqual(condOrTrue(step.site.cond), condOrTrue(prod.cond)):
			remainder = nil // fully covered
		case rv == "":
			remainder = &spmd.IfValue{
				Cond: spmd.VUn{Op: lang.OpNot, X: condOrTrue(prod.cond)},
				Then: []spmd.Stmt{remainderLoop}}
		case step.delta == 0 && spmd.VExprEqual(condOrTrue(step.site.cond), condOrTrue(prod.cond)):
			remainder = nil // fully covered
		default:
			shifted := spmd.SubstVExpr(condOrTrue(prod.cond), rv, expr.Sub(expr.V(rv), expr.C(step.delta)))
			headRemainder := spmd.VBin{Op: lang.OpLt,
				L: spmd.VInt{X: expr.V(rv)}, R: spmd.VConst{F: float64(step.delta)}}
			notCovered := spmd.VBin{Op: lang.OpOr,
				L: headRemainder,
				R: spmd.VUn{Op: lang.OpNot, X: shifted}}
			remainder = &spmd.IfValue{Cond: notCovered, Then: []spmd.Stmt{remainderLoop}}
		}

		var repl []spmd.Stmt
		if len(sl.loop.Body) > 0 {
			repl = append(repl, sl.loop)
		}
		if remainder != nil {
			repl = append(repl, remainder)
		}
		splice(step.site.holder, step.site.pos, repl...)
	}
}
