package lang

import (
	"fmt"
	"math"

	"procdecomp/internal/expr"
)

// Op enumerates operators. Each is defined once, by its row of ops: the
// parser, the printer, sem's typing and constant folding, the sequential
// interpreter and the SPMD stepper all read that row.
type Op int

// Operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDivReal // "/"
	OpDivInt  // "div"
	OpMod     // "mod"
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpNot
	OpNeg
	OpMin
	OpMax
	numOps
)

// form is where an operator's token stands: between its operands, before
// its one operand, or before a parenthesized pair of operands ("min(a, b)").
type form uint8

const (
	infix form = iota
	prefix
	call
	numForms
)

// Binding powers of the infix operators, loosest first. Prefix operators
// and calls bind tighter than any of them, at precUnary.
const (
	precOr = 1 + iota
	precAnd
	precCmp // comparisons do not chain: "a < b < c" is a syntax error
	precAdd
	precMul
	precUnary
)

// Class is the set of operand types an operator accepts.
type Class uint8

// Operand classes.
const (
	Numeric Class = iota // int or real
	Integer              // int
	Boolean              // bool
)

// Admits reports whether a value of type b is in the class.
func (c Class) Admits(b BaseType) bool {
	switch c {
	case Numeric:
		return b == TInt || b == TReal
	case Integer:
		return b == TInt
	}
	return b == TBool
}

// String names the class as type errors do.
func (c Class) String() string { return [...]string{"numeric", "int", "bool"}[c] }

// rule gives an operator's result type from its operands' types.
type rule uint8

const (
	promote rule = iota // real if either operand is real, else int
	toReal
	toBool
)

// opDef is one operator's definition; a field left zero means infix,
// numeric operands, a promoted result and no failure. Values are float64 at
// run time: ints are whole numbers and bools are 1 and 0, where any nonzero
// operand is true.
type opDef struct {
	tok      Kind
	form     form
	prec     int // binding power of an infix operator
	operands Class
	result   rule
	zero     string // the failure when the right operand is zero
	eval     func(l, r float64) float64
}

var ops = [numOps]opDef{
	OpAdd:     {tok: Plus, prec: precAdd, eval: func(l, r float64) float64 { return l + r }},
	OpSub:     {tok: Minus, prec: precAdd, eval: func(l, r float64) float64 { return l - r }},
	OpMul:     {tok: Star, prec: precMul, eval: func(l, r float64) float64 { return l * r }},
	OpDivReal: {tok: Slash, prec: precMul, result: toReal, zero: "division by zero", eval: func(l, r float64) float64 { return l / r }},
	OpDivInt: {tok: KwDiv, prec: precMul, operands: Integer, zero: "division by zero",
		eval: func(l, r float64) float64 { return float64(expr.FloorDiv(int64(l), int64(r))) }},
	OpMod: {tok: KwMod, prec: precMul, operands: Integer, zero: "mod by zero",
		eval: func(l, r float64) float64 { return float64(expr.EucMod(int64(l), int64(r))) }},
	OpEq:  {tok: Eq, prec: precCmp, result: toBool, eval: func(l, r float64) float64 { return truth(l == r) }},
	OpNe:  {tok: Ne, prec: precCmp, result: toBool, eval: func(l, r float64) float64 { return truth(l != r) }},
	OpLt:  {tok: Lt, prec: precCmp, result: toBool, eval: func(l, r float64) float64 { return truth(l < r) }},
	OpLe:  {tok: Le, prec: precCmp, result: toBool, eval: func(l, r float64) float64 { return truth(l <= r) }},
	OpGt:  {tok: Gt, prec: precCmp, result: toBool, eval: func(l, r float64) float64 { return truth(l > r) }},
	OpGe:  {tok: Ge, prec: precCmp, result: toBool, eval: func(l, r float64) float64 { return truth(l >= r) }},
	OpAnd: {tok: KwAnd, prec: precAnd, operands: Boolean, result: toBool, eval: func(l, r float64) float64 { return truth(l != 0 && r != 0) }},
	OpOr:  {tok: KwOr, prec: precOr, operands: Boolean, result: toBool, eval: func(l, r float64) float64 { return truth(l != 0 || r != 0) }},
	OpNot: {tok: KwNot, form: prefix, operands: Boolean, result: toBool, eval: func(x, _ float64) float64 { return truth(x == 0) }},
	OpNeg: {tok: Minus, form: prefix, eval: func(x, _ float64) float64 { return -x }},
	OpMin: {tok: KwMin, form: call, eval: math.Min},
	OpMax: {tok: KwMax, form: call, eval: math.Max},
}

func truth(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// spelled[f][k] is the operator token k spells in form f.
var spelled = func() (s [numForms]map[Kind]Op) {
	for f := range s {
		s[f] = map[Kind]Op{}
	}
	for o, d := range ops {
		s[d.form][d.tok] = Op(o)
	}
	return s
}()

func (o Op) String() string {
	if o < 0 || o >= numOps {
		return "?"
	}
	return ops[o].tok.String()
}

// Ops lists every operator.
func Ops() []Op {
	out := make([]Op, numOps)
	for i := range out {
		out[i] = Op(i)
	}
	return out
}

// Unary reports whether o takes one operand.
func (o Op) Unary() bool { return ops[o].form == prefix }

// Comparison reports whether o is one of the six comparisons.
func (o Op) Comparison() bool { return ops[o].prec == precCmp }

// Operands is the class each of o's operands must be in.
func (o Op) Operands() Class { return ops[o].operands }

// Result is the type o yields on operands of types l and r (for a unary
// operator, pass its operand twice).
func (o Op) Result(l, r BaseType) BaseType {
	switch ops[o].result {
	case toReal:
		return TReal
	case toBool:
		return TBool
	}
	if l == TReal || r == TReal {
		return TReal
	}
	return l
}

// EvalBin applies a binary operator to run-time values with Idn semantics:
// div is floor division and mod is Euclidean (expr.FloorDiv and expr.EucMod,
// as compiled code computes them), and comparisons, and and or yield 1 or 0.
// fail reports a zero divisor, or an operator that is not binary; the result
// is then 0.
func EvalBin(op Op, l, r float64, fail func(string)) float64 {
	if op < 0 || op >= numOps || ops[op].form == prefix {
		fail(fmt.Sprintf("unsupported operator %v", op))
		return 0
	}
	d := &ops[op]
	if r == 0 && d.zero != "" {
		fail(d.zero)
		return 0
	}
	return d.eval(l, r)
}

// EvalUn applies a unary operator to a run-time value: - negates, and not
// yields 1 for 0 and 0 for anything else.
func EvalUn(op Op, x float64) float64 { return ops[op].eval(x, 0) }
