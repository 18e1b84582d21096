package expr

import (
	"math/rand"
	"slices"
	"testing"
)

// Code.Eval is Expr.Eval: the same value, or the same first error, on
// expressions nobody picked. genExpr draws an expression from a stream of
// choices, so one generator serves the seeded sweep and the fuzz target.

var codeTestVars = []string{"a", "b", "c", "d"}

// genExpr builds an expression of at most the given depth over the first
// nvars test variables; pick(n) chooses in [0, n). Constants and coefficients
// lie in [-7, 7], so zero and negative divisors and moduli occur.
func genExpr(pick func(n int) int, nvars, depth int) Expr {
	small := func() int64 { return int64(pick(15)) - 7 }
	if depth == 0 || pick(4) == 0 {
		if pick(3) == 0 {
			return C(small())
		}
		return Add(Mul(C(small()), V(codeTestVars[pick(nvars)])), C(small()))
	}
	l, r := genExpr(pick, nvars, depth-1), genExpr(pick, nvars, depth-1)
	switch pick(7) {
	case 0:
		return Add(l, r)
	case 1:
		return Sub(l, r)
	case 2:
		return Mul(l, r)
	case 3:
		return Div(l, r)
	case 4:
		return Mod(l, r)
	case 5:
		return Min(l, r)
	default:
		return Max(l, r)
	}
}

// namer is a Compiler's Slot that numbers names as it first meets them, into
// *names.
func namer(names *[]string) func(string) int32 {
	return func(name string) int32 {
		if i := slices.Index(*names, name); i >= 0 {
			return int32(i)
		}
		*names = append(*names, name)
		return int32(len(*names) - 1)
	}
}

// testCompiler numbers the test variables in order.
func testCompiler() *Compiler {
	return &Compiler{Slot: func(name string) int32 { return int32(slices.Index(codeTestVars, name)) }}
}

// checkCodeMatchesEval compiles e, binds the variables bound selects (bit i
// for variable i) to vals, and compares the two evaluators.
func checkCodeMatchesEval(t *testing.T, e Expr, bound uint, vals [4]int64) {
	t.Helper()
	var names []string
	k := Compiler{Slot: namer(&names)}
	code := k.Compile(e)
	// The slots a code reads are the slots of e's free variables, each once.
	slots := code.Slots(nil)
	free := make([]int32, 0, len(slots))
	for _, v := range codeTestVars {
		if e.HasVar(v) {
			free = append(free, int32(slices.Index(names, v)))
		}
	}
	slices.Sort(slots)
	if slices.Sort(free); !slices.Equal(slots, free) {
		t.Fatalf("%s: Code.Slots = %v, want the slots of its free variables %v", e, slots, free)
	}
	env, f := bind(names, bound, vals)
	checkEval(t, e, code, env, f)
}

// bind binds the variables bound selects (bit i for variable i) to vals, as
// an Env and as a Frame over names.
func bind(names []string, bound uint, vals [4]int64) (Env, *Frame) {
	env := Env{}
	for i, name := range codeTestVars {
		if bound&(1<<i) != 0 {
			env[name] = vals[i]
		}
	}
	f := &Frame{Vals: make([]int64, len(names)), Known: make([]bool, len(names)), Names: names}
	for s, name := range names {
		f.Vals[s], f.Known[s] = env[name]
	}
	return env, f
}

// checkEval compares code.Eval over f with e.Eval over env.
func checkEval(t *testing.T, e Expr, code *Code, env Env, f *Frame) {
	t.Helper()
	want, wantErr := e.Eval(env)
	got, gotErr := code.Eval(f)
	switch {
	case (wantErr == nil) != (gotErr == nil),
		wantErr != nil && wantErr.Error() != gotErr.Error():
		t.Fatalf("%s under %v: Code.Eval error %v, Expr.Eval error %v", e, env, gotErr, wantErr)
	case wantErr == nil && got != want:
		t.Fatalf("%s under %v: Code.Eval = %d, Expr.Eval = %d", e, env, got, want)
	}
}

// codeCase is one case of the seeded sweep: an expression, the variables it
// binds (bit i for variable i) and their values.
type codeCase struct {
	e     Expr
	bound uint
	vals  [4]int64
}

// codeCorpus draws the seeded sweep's 2,000 cases. The compile witness
// replays the same expressions (CodeCorpus in export_test.go).
func codeCorpus() []codeCase {
	rng := rand.New(rand.NewSource(17))
	cases := make([]codeCase, 2000)
	for n := range cases {
		c := &cases[n]
		c.e = genExpr(rng.Intn, 1+rng.Intn(4), 4)
		for i := range c.vals {
			c.vals[i] = int64(rng.Intn(41)) - 20
		}
		c.bound = uint(rng.Intn(16))
		if rng.Intn(2) == 0 {
			c.bound = 15 // all bound: reach the mod and division errors, not just "unbound"
		}
	}
	return cases
}

func TestCodeMatchesEval(t *testing.T) {
	errs := 0
	for _, c := range codeCorpus() {
		checkCodeMatchesEval(t, c.e, c.bound, c.vals)
		if _, err := c.e.Eval(Env{"a": c.vals[0], "b": c.vals[1], "c": c.vals[2], "d": c.vals[3]}); err != nil {
			errs++
		}
	}
	// The sweep is only worth its name if both outcomes are common.
	if errs < 100 || errs > 1900 {
		t.Errorf("%d of 2000 generated expressions fail to evaluate fully bound; want a mix", errs)
	}
}

// Slots reuses the caller's buffer: enumerating into one with room to spare
// allocates nothing, however deep the operands nest.
func TestCodeSlotsDoesNotAllocate(t *testing.T) {
	a, b, c := V("a"), V("b"), V("c")
	e := Add(Mod(Add(a, Div(b, C(3))), Max(c, C(2))), Mul(C(4), a))
	code := testCompiler().Compile(e)
	buf := make([]int32, 0, 8)
	if n := testing.AllocsPerRun(100, func() { buf = code.Slots(buf[:0]) }); n != 0 {
		t.Errorf("Code.Slots: %.0f allocations into a buffer with room, want 0", n)
	}
	if slices.Sort(buf); !slices.Equal(buf, []int32{0, 1, 2}) {
		t.Errorf("Code.Slots = %v, want [0 1 2]", buf)
	}
}

// Constants from -1 to 254 compile to Codes every Compiler shares, with no
// allocation and no table entry; a constant outside them gets an entry.
func TestCompilerSmallConstants(t *testing.T) {
	k := testCompiler()
	for _, v := range []int64{-1, 0, 1, 10, 254} {
		if n := testing.AllocsPerRun(100, func() { k.Compile(C(v)) }); n != 0 {
			t.Errorf("Compile(%d): %.0f allocations, want 0", v, n)
		}
		if k.Compile(C(v)) != testCompiler().Compile(C(v)) {
			t.Errorf("Compile(%d): two Compilers built two Codes", v)
		}
		if got, err := k.Compile(C(v)).Eval(&Frame{}); err != nil || got != v {
			t.Errorf("Compile(%d).Eval = %d, %v", v, got, err)
		}
	}
	if len(k.seen) != 0 {
		t.Errorf("the table holds %d entries for small constants, want 0", len(k.seen))
	}
	for _, v := range []int64{-2, 255, 1000} {
		if got, err := k.Compile(C(v)).Eval(&Frame{}); err != nil || got != v {
			t.Errorf("Compile(%d).Eval = %d, %v", v, got, err)
		}
	}
	if len(k.seen) != 3 {
		t.Errorf("the table holds %d entries for three large constants, want 3", len(k.seen))
	}
}

// One table compiles a value once: compiling it again returns the same Code
// and allocates nothing, and an atom's operand is the Code the table returns
// for the operand on its own.
func TestCompilerCompilesOnce(t *testing.T) {
	k := testCompiler()
	inner := Add(V("a"), C(300))
	e := Add(Mod(inner, V("b")), Mul(C(2), V("c")))
	c := k.Compile(e)
	if k.Compile(e) != c {
		t.Errorf("%s compiled twice: two Codes", e)
	}
	if n := testing.AllocsPerRun(100, func() { k.Compile(e) }); n != 0 {
		t.Errorf("compiling %s again: %.0f allocations, want 0", e, n)
	}
	checkShared(t, k, e, c)
	if k.Compile(inner) != c.terms[0].a {
		t.Errorf("%s: its mod's operand was compiled apart from %s", e, inner)
	}
}

// operands appends to out the operands of e's atoms, and theirs, in the order
// a Compiler meets them: the values it compiles through its table.
func operands(out []Expr, e Expr) []Expr {
	for _, t := range e.terms {
		if p, ok := pairOf(t.atom); ok {
			out = operands(append(out, p.a), p.a)
			out = operands(append(out, p.b), p.b)
		}
	}
	return out
}

// pairOf returns an opaque atom's operands; a variable has none.
func pairOf(a atom) (pair, bool) {
	switch a := a.(type) {
	case modAtom:
		return a.pair, true
	case divAtom:
		return a.pair, true
	case minAtom:
		return a.pair, true
	case maxAtom:
		return a.pair, true
	case prodAtom:
		return a.pair, true
	}
	return pair{}, false
}

// checkShared holds every atom operand of code, e compiled by k, to the Code
// k returns for that operand on its own.
func checkShared(t *testing.T, k *Compiler, e Expr, code *Code) {
	t.Helper()
	for i, tm := range e.terms {
		if p, ok := pairOf(tm.atom); ok {
			ct := &code.terms[i]
			if k.Compile(p.a) != ct.a || k.Compile(p.b) != ct.b {
				t.Fatalf("%s: an operand of term %d has a Code of its own", e, i)
			}
			checkShared(t, k, p.a, ct.a)
			checkShared(t, k, p.b, ct.b)
		}
	}
}

func FuzzCodeMatchesEval(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(15), int64(3), int64(-2), int64(0), int64(7))
	f.Add([]byte{4, 4, 0, 9, 3, 1, 7, 200, 13, 5}, uint8(5), int64(-1), int64(1), int64(5), int64(-5))
	f.Add([]byte{}, uint8(0), int64(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, choices []byte, bound uint8, a, b, c, d int64) {
		pick := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			x := int(choices[0]) % n
			choices = choices[1:]
			return x
		}
		nvars := 1 + pick(4)
		checkCodeMatchesEval(t, genExpr(pick, nvars, 4), uint(bound), [4]int64{a, b, c, d})
	})
}

// FuzzCompilerSharesCodes compiles a generated expression, its atoms'
// operands and other generated values through one table, interleaved, and
// holds every Code the table returns to Expr.Eval: a Code returned for one
// value and served again for another would evaluate the first. The table
// returns one Code for a value compiled twice, and an operand compiled on
// its own is the Code its atom holds.
func FuzzCompilerSharesCodes(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(15), int64(3), int64(-2), int64(0), int64(7))
	f.Add([]byte{4, 4, 0, 9, 3, 1, 7, 200, 13, 5, 2, 2, 6, 1}, uint8(15), int64(-1), int64(1), int64(5), int64(-5))
	f.Add([]byte{}, uint8(0), int64(0), int64(0), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, choices []byte, bound uint8, a, b, c, d int64) {
		pick := func(n int) int {
			if len(choices) == 0 {
				return 0
			}
			x := int(choices[0]) % n
			choices = choices[1:]
			return x
		}
		var names []string
		k := &Compiler{Slot: namer(&names)}
		var es []Expr
		var codes []*Code
		compile := func(e Expr) {
			es, codes = append(es, e), append(codes, k.Compile(e))
		}
		e := genExpr(pick, 1+pick(4), 4)
		compile(e)
		for _, sub := range operands(nil, e) {
			compile(genExpr(pick, 4, 2))
			compile(sub)
		}
		compile(e)
		if codes[len(codes)-1] != codes[0] {
			t.Fatalf("%s compiled twice: two Codes", e)
		}
		checkShared(t, k, e, codes[0])
		env, fr := bind(names, uint(bound), [4]int64{a, b, c, d})
		for i, e := range es {
			checkEval(t, e, codes[i], env, fr)
		}
	})
}
