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

// checkCodeMatchesEval compiles e, binds the variables bound selects (bit i
// for variable i) to vals, and compares the two evaluators.
func checkCodeMatchesEval(t *testing.T, e Expr, bound uint, vals [4]int64) {
	t.Helper()
	var names []string
	code := Compile(e, func(name string) int32 {
		for i, n := range names {
			if n == name {
				return int32(i)
			}
		}
		names = append(names, name)
		return int32(len(names) - 1)
	})
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
	code := Compile(e, func(name string) int32 { return int32(slices.Index(codeTestVars, name)) })
	buf := make([]int32, 0, 8)
	if n := testing.AllocsPerRun(100, func() { buf = code.Slots(buf[:0]) }); n != 0 {
		t.Errorf("Code.Slots: %.0f allocations into a buffer with room, want 0", n)
	}
	if slices.Sort(buf); !slices.Equal(buf, []int32{0, 1, 2}) {
		t.Errorf("Code.Slots = %v, want [0 1 2]", buf)
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
