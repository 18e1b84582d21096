package expr

// CodeCorpus returns the expressions of TestCodeMatchesEval's seeded sweep,
// in order.
func CodeCorpus() []Expr {
	cases := codeCorpus()
	out := make([]Expr, len(cases))
	for i, c := range cases {
		out[i] = c.e
	}
	return out
}

// Swap substitutes a and b for each other at once, through a fresh name.
func Swap(e Expr) Expr {
	return e.Subst("a", V("\x00")).Subst("b", V("a")).Subst("\x00", V("b"))
}
