package core

import (
	"procdecomp/internal/expr"
	"procdecomp/internal/spmd"
)

// A SolvedGuard is a guard condition restrictLoop solved, with the loop
// whose range it restricted.
type SolvedGuard struct {
	Cond   expr.Expr
	Var    string
	Lo, Hi expr.Expr
}

// SolvedGuards specializes generic for each of procs processes, restricting
// loops, and returns every guard condition restrictLoop solved.
func SolvedGuards(generic *spmd.Program, procs int64) []SolvedGuard {
	var out []SolvedGuard
	for p := range procs {
		s := &spec{p: p, procs: procs, restrict: true, solved: func(cond expr.Expr, loop *spmd.For) {
			out = append(out, SolvedGuard{cond, loop.Var, loop.Lo, loop.Hi})
		}}
		s.specialize(generic)
	}
	return out
}
