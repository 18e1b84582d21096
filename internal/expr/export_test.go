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
