package core

import (
	"cmp"
	"fmt"
	"slices"

	"procdecomp/internal/expr"
	"procdecomp/internal/lang"
	"procdecomp/internal/spmd"
)

// Compile-time resolution (§3.2). The generic run-time resolution program is
// specialized for each process by one walk over it:
//
//  1. Loops, guards and ifs are rebuilt for the process; every other
//     statement it keeps is the generic program's own, shared by every
//     process and never rewritten (the generic program never mentions
//     "me", so nothing in it waits for the process number).
//  2. Ownership guards are resolved with the three-valued comparison, at one
//     place (on): true guards are spliced, false guards are dropped,
//     inconclusive guards stay as run-time tests.
//  3. Coerces whose owner/needer relationship is decided split into bare
//     sends, receives, or local reads, each role decided by on; undecided
//     coerces stay (run-time resolution fallback).
//  4. Loops whose residual guards solve to congruence classes of the loop
//     variable (j mod S == p, Fig. 5; expr.Solve) are restricted to the
//     iterations the process participates in: the loop's range intersected
//     with each class, one expr.Owned set per guard. The restricted form
//     preserves the exact global execution order of run-time resolution:
//     when several sets coexist, the loop iterates over "rounds" of S
//     consecutive iterations, visiting each set at its position within the
//     round; a single set becomes the classic strided loop of Fig. 5, from
//     its first iteration even when only the run knows it.

// SpecializeAll produces one specialized program per process from the
// generic program.
func SpecializeAll(generic *spmd.Program, procs int64, restrict bool) []*spmd.Program {
	out := make([]*spmd.Program, procs)
	for p := int64(0); p < procs; p++ {
		out[p] = (&spec{p: p, procs: procs, restrict: restrict}).specialize(generic)
	}
	return out
}

// specialize produces the program for process s.p.
func (s *spec) specialize(generic *spmd.Program) *spmd.Program {
	prog := *generic
	prog.Body = s.stmts(generic.Body)
	prog.Proc = int(s.p)
	return &prog
}

type spec struct {
	p        int64
	procs    int64
	restrict bool
	nextTmp  int
	// solved, when set, is told each guard condition restrictLoop solves,
	// with its loop (a test hook).
	solved func(cond expr.Expr, loop *spmd.For)
}

func (s *spec) tmp() string {
	s.nextTmp++
	return fmt.Sprintf("ct%d", s.nextTmp)
}

// me returns this process's number as an expression.
func (s *spec) me() expr.Expr { return expr.C(s.p) }

// on decides whether this process is proc, the one place compile-time
// resolution does (§3.2): yes splices the body, no drops it, and an
// inconclusive answer keeps it under a run-time test. body is built only when
// it may run, so the temporaries it takes keep their numbers.
func (s *spec) on(proc expr.Expr, body func() []spmd.Stmt) []spmd.Stmt {
	tri := expr.EqualTri(s.me(), proc)
	if tri == expr.No {
		return nil
	}
	b := body()
	if tri == expr.Yes || len(b) == 0 {
		return b
	}
	return []spmd.Stmt{&spmd.Guard{Proc: proc, Body: b}}
}

func (s *spec) stmts(in []spmd.Stmt) []spmd.Stmt {
	var out []spmd.Stmt
	for _, st := range in {
		out = append(out, s.stmt(st)...)
	}
	return out
}

func (s *spec) stmt(st spmd.Stmt) []spmd.Stmt {
	switch st := st.(type) {
	case *spmd.Guard:
		return s.on(st.Proc, func() []spmd.Stmt { return s.stmts(st.Body) })
	case *spmd.Coerce:
		return s.coerce(st)
	case *spmd.For:
		body := s.stmts(st.Body)
		if len(body) == 0 {
			return nil
		}
		loop := &spmd.For{Var: st.Var, Lo: st.Lo, Hi: st.Hi, Step: st.Step, Body: body}
		if s.restrict {
			return s.restrictLoop(loop)
		}
		return []spmd.Stmt{loop}
	case *spmd.IfValue:
		then := s.stmts(st.Then)
		els := s.stmts(st.Else)
		if len(then) == 0 && len(els) == 0 {
			return nil
		}
		return []spmd.Stmt{&spmd.IfValue{Cond: st.Cond, Then: then, Else: els}}
	default:
		return []spmd.Stmt{st}
	}
}

// readInto builds the statement that loads a coerce's source into dst
// (valid only on the owner).
func readInto(co *spmd.Coerce, dst string) spmd.Stmt {
	if co.Array != "" {
		return &spmd.ARead{Dst: dst, Array: co.Array, Idx: co.Idx}
	}
	return &spmd.AssignVar{Name: dst, Val: spmd.VVar{Name: co.Var}}
}

// coerce resolves one coerce for process p, splitting it into its roles when
// the analysis decides them; an inconclusive analysis keeps the coerce as a
// run-time test (§3.2's third outcome).
func (s *spec) coerce(co *spmd.Coerce) []spmd.Stmt {
	switch {
	case co.OwnerAll && co.NeederAll:
		return []spmd.Stmt{readInto(co, co.Dst)}
	case co.OwnerAll:
		// Replicated source: the needer reads its own copy.
		return s.on(co.Needer, func() []spmd.Stmt { return []spmd.Stmt{readInto(co, co.Dst)} })
	case co.NeederAll:
		// Broadcast from the owner; the one role decision outside on,
		// because every process that is not the owner receives.
		switch expr.EqualTri(s.me(), co.Owner) {
		case expr.Yes:
			out := []spmd.Stmt{readInto(co, co.Dst)}
			for q := int64(0); q < s.procs; q++ {
				if q != s.p {
					out = append(out, &spmd.Send{Dst: expr.C(q), Tag: co.Tag, Val: spmd.VVar{Name: co.Dst}})
				}
			}
			return out
		case expr.No:
			return []spmd.Stmt{&spmd.Recv{Src: co.Owner, Tag: co.Tag, Dst: co.Dst}}
		default:
			return []spmd.Stmt{co}
		}
	}
	switch expr.EqualTri(co.Owner, co.Needer) {
	case expr.Yes:
		// Local: just a read on the owner.
		return s.on(co.Owner, func() []spmd.Stmt { return []spmd.Stmt{readInto(co, co.Dst)} })
	case expr.No:
		send := s.on(co.Owner, func() []spmd.Stmt {
			tmp := s.tmp()
			return []spmd.Stmt{readInto(co, tmp), &spmd.Send{Dst: co.Needer, Tag: co.Tag, Val: spmd.VVar{Name: tmp}}}
		})
		recv := s.on(co.Needer, func() []spmd.Stmt {
			return []spmd.Stmt{&spmd.Recv{Src: co.Owner, Tag: co.Tag, Dst: co.Dst}}
		})
		return append(send, recv...)
	default:
		// Owner-needer relationship undecidable: run-time resolution.
		return []spmd.Stmt{co}
	}
}

// piece is a classified fragment of a loop body: stmts that execute exactly
// when cond's process expression equals p (condDep) or unconditionally
// (cond == nil).
type piece struct {
	cond  *expr.Expr // the guard's process expression, nil for unconditional
	stmts []spmd.Stmt
}

// classify decomposes a loop-body statement into guard-classified pieces.
// ok is false when the statement cannot be classified (data-dependent
// control flow, residual coerces, unguarded leaf work).
func classify(st spmd.Stmt) (pieces []piece, ok bool) {
	switch st := st.(type) {
	case *spmd.Guard:
		c := st.Proc
		return []piece{{cond: &c, stmts: st.Body}}, true
	case *spmd.For:
		inner, ok := classifyList(st.Body)
		if !ok {
			return nil, false
		}
		// Rebuild one loop per class. Distribution across classes is exact
		// because classifyList guarantees classes are pairwise disjoint.
		var out []piece
		for _, pc := range inner {
			loop := &spmd.For{Var: st.Var, Lo: st.Lo, Hi: st.Hi, Step: st.Step, Body: pc.stmts}
			out = append(out, piece{cond: pc.cond, stmts: []spmd.Stmt{loop}})
		}
		return out, true
	default:
		return nil, false
	}
}

// classifyList classifies every statement of a loop body and merges pieces
// with provably-equal conditions (preserving their relative order). It fails
// when any statement is unclassifiable or when two conditions are neither
// provably equal nor provably different — distribution would then be unsound.
func classifyList(body []spmd.Stmt) ([]piece, bool) {
	var merged []piece
	for _, st := range body {
		pieces, ok := classify(st)
		if !ok {
			return nil, false
		}
		for _, pc := range pieces {
			placed := false
			for i := range merged {
				switch expr.EqualTri(*merged[i].cond, *pc.cond) {
				case expr.Yes:
					merged[i].stmts = append(merged[i].stmts, pc.stmts...)
					placed = true
				case expr.No:
					// disjoint: keep looking
				default:
					return nil, false // can't prove the classes disjoint
				}
				if placed {
					break
				}
			}
			if !placed {
				merged = append(merged, pc)
			}
		}
	}
	return merged, true
}

// restrictLoop restricts a specialized loop to the iterations in which this
// process participates. When the body does not fit the decidable fragment,
// the loop is returned unchanged — the run-time guards keep it correct.
func (s *spec) restrictLoop(loop *spmd.For) []spmd.Stmt {
	if step, ok := loop.Step.ConstVal(); !ok || step != 1 {
		return []spmd.Stmt{loop}
	}
	pieces, ok := classifyList(loop.Body)
	if !ok || len(pieces) == 0 {
		return []spmd.Stmt{loop}
	}

	// Each piece runs on the iterations of the loop's range that this
	// process owns under its condition, one set per piece. The rounds form
	// below steps the sets by one stride and orders them by their first
	// iterations, so several sets must share a stride and start at
	// constants; a single set may start anywhere.
	type owned struct {
		expr.Owned
		stmts []spmd.Stmt
	}
	sets := make([]owned, len(pieces))
	for i, pc := range pieces {
		class, solved := expr.Solve(*pc.cond, s.p, loop.Var)
		if !solved {
			return []spmd.Stmt{loop}
		}
		if s.solved != nil {
			s.solved(*pc.cond, loop)
		}
		sets[i] = owned{expr.Range(loop.Lo, loop.Hi).Intersect(class), pc.stmts}
		if _, known := sets[i].First.ConstVal(); len(pieces) > 1 && (!known || sets[i].Stride != sets[0].Stride) {
			return []spmd.Stmt{loop}
		}
	}
	if len(sets) == 1 {
		// Fig. 5: the classic strided loop "for j = p to N by S".
		return []spmd.Stmt{&spmd.For{Var: loop.Var, Lo: sets[0].First, Hi: sets[0].Hi, Step: expr.C(sets[0].Stride), Body: sets[0].stmts}}
	}
	slices.SortStableFunc(sets, func(a, b owned) int {
		d, _ := expr.Sub(a.First, b.First).ConstVal()
		return cmp.Compare(d, 0)
	})

	// Several disjoint sets: iterate over rounds of S consecutive
	// iterations, visiting each set at its position within the round, as
	// many rounds as the first set has members. This preserves the exact
	// global iteration order of the unrestricted loop while skipping every
	// iteration this process has no role in.
	round := loop.Var + ".round"
	var body []spmd.Stmt
	for _, o := range sets {
		v := expr.Add(o.First, expr.Mul(expr.V(round), expr.C(o.Stride)))
		inRange := spmd.VBin{
			Op: lang.OpLe,
			L:  spmd.VInt{X: v},
			R:  spmd.VInt{X: o.Hi},
		}
		body = append(body, &spmd.IfValue{Cond: inRange, Then: spmd.SubstBody(o.stmts, loop.Var, v)})
	}
	return []spmd.Stmt{&spmd.For{
		Var:  round,
		Lo:   expr.C(0),
		Hi:   expr.Sub(sets[0].Count(), expr.C(1)),
		Step: expr.C(1),
		Body: body,
	}}
}
