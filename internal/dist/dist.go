// Package dist implements domain decompositions: the <map, local, alloc>
// triples of the paper's §2.3 that describe how arrays (and scalars) are
// distributed across the processors of a message-passing machine.
//
// A decomposition provides both a concrete view — which processor owns a
// given element, where the element lives in that processor's local storage,
// and how big the local allocation is — and a symbolic view used by
// compile-time resolution, which needs the mapping as an expression over the
// program's index variables (e.g. "(j) mod S" for wrapped columns).
//
// Global indices are 1-based, following the paper's programs
// (matrix(N,N) is indexed 1..N); local indices are 1-based as well.
// Processors are numbered 0..P-1.
package dist

import (
	"fmt"

	"procdecomp/internal/expr"
)

// All is the pseudo-processor returned by Owner for replicated data: every
// processor owns a copy (the paper's "a:ALL" mapping).
const All int64 = -1

// Kind identifies the decomposition family.
type Kind int

// Decomposition families.
const (
	KindCyclicCols Kind = iota // column j on processor j mod S ("wrapped" columns)
	KindCyclicRows             // row i on processor i mod S
	KindBlockCols              // contiguous column blocks
	KindBlockRows              // contiguous row blocks
	KindBlock2D                // 2-D processor grid, 2-D blocks
	KindReplicated             // a copy on every processor (ALL)
	KindSingle                 // everything on one processor (a:P1)
	KindCyclicVec              // vector element i on processor i mod S
	KindBlockVec               // contiguous vector blocks
)

func (k Kind) String() string {
	switch k {
	case KindCyclicCols:
		return "cyclic_cols"
	case KindCyclicRows:
		return "cyclic_rows"
	case KindBlockCols:
		return "block_cols"
	case KindBlockRows:
		return "block_rows"
	case KindBlock2D:
		return "block2d"
	case KindReplicated:
		return "all"
	case KindSingle:
		return "single"
	case KindCyclicVec:
		return "cyclic"
	case KindBlockVec:
		return "block"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// A Dist is a bound domain decomposition: a mapping family instantiated with
// a machine size and a global array shape.
type Dist interface {
	// Kind reports the decomposition family.
	Kind() Kind
	// Procs reports the number of processors the decomposition targets.
	Procs() int64
	// GlobalShape reports the global array dimensions ([] for a scalar).
	GlobalShape() []int64
	// Owner returns the processor owning the element at idx, or All when the
	// data is replicated. This is the paper's "map" function.
	Owner(idx []int64) int64
	// Local translates a global index to the owner's local index, written
	// into dst[:0]; it returns the result and allocates only when dst is too
	// small. This is the paper's "local" function.
	Local(dst, idx []int64) []int64
	// LocalShape reports the per-processor allocation dimensions. This is the
	// paper's "alloc" function.
	LocalShape() []int64
	// SymbolicOwner builds the mapping expression over symbolic indices, for
	// use by the evaluators/participants analysis. Replicated decompositions
	// have no single owner; callers must test Kind first.
	SymbolicOwner(idx []expr.Expr) expr.Expr
	// SymbolicLocal builds the local-index expressions over symbolic indices.
	SymbolicLocal(idx []expr.Expr) []expr.Expr
	// String renders a short human-readable description.
	String() string
}

func checkRank(what string, idx []int64, want int) {
	if len(idx) != want {
		panic(fmt.Sprintf("dist: %s applied to index of rank %d, want %d", what, len(idx), want))
	}
}

// ceilDiv returns ceil(a/b) for positive a, b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// --- cyclic (wrapped) columns: the paper's running decomposition ---

type cyclicCols struct {
	procs int64
	shape []int64 // rows, cols
}

// NewCyclicCols wraps the columns of a rows×cols matrix around a ring of
// procs processors "like a dealer deals cards": column j lives on processor
// j mod procs (§2.3).
func NewCyclicCols(procs int64, rows, cols int64) Dist {
	mustPositive(procs, rows, cols)
	return cyclicCols{procs: procs, shape: []int64{rows, cols}}
}

func (d cyclicCols) Kind() Kind           { return KindCyclicCols }
func (d cyclicCols) Procs() int64         { return d.procs }
func (d cyclicCols) GlobalShape() []int64 { return []int64{d.shape[0], d.shape[1]} }
func (d cyclicCols) String() string {
	return fmt.Sprintf("cyclic_cols(S=%d, %dx%d)", d.procs, d.shape[0], d.shape[1])
}

func (d cyclicCols) Owner(idx []int64) int64 {
	checkRank("cyclic_cols.Owner", idx, 2)
	return expr.EucMod(idx[1], d.procs)
}

func (d cyclicCols) Local(dst, idx []int64) []int64 {
	checkRank("cyclic_cols.Local", idx, 2)
	return append(dst[:0], idx[0], (idx[1]-1)/d.procs+1)
}

func (d cyclicCols) LocalShape() []int64 {
	return []int64{d.shape[0], ceilDiv(d.shape[1], d.procs)}
}

func (d cyclicCols) SymbolicOwner(idx []expr.Expr) expr.Expr {
	checkRank("cyclic_cols.SymbolicOwner", make([]int64, len(idx)), 2)
	return expr.Mod(idx[1], expr.C(d.procs))
}

func (d cyclicCols) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return []expr.Expr{idx[0], expr.Add(expr.Div(expr.Sub(idx[1], expr.C(1)), expr.C(d.procs)), expr.C(1))}
}

// --- cyclic (wrapped) rows ---

type cyclicRows struct {
	procs int64
	shape []int64
}

// NewCyclicRows wraps the rows of a rows×cols matrix around a ring: row i
// lives on processor i mod procs.
func NewCyclicRows(procs int64, rows, cols int64) Dist {
	mustPositive(procs, rows, cols)
	return cyclicRows{procs: procs, shape: []int64{rows, cols}}
}

func (d cyclicRows) Kind() Kind           { return KindCyclicRows }
func (d cyclicRows) Procs() int64         { return d.procs }
func (d cyclicRows) GlobalShape() []int64 { return []int64{d.shape[0], d.shape[1]} }
func (d cyclicRows) String() string {
	return fmt.Sprintf("cyclic_rows(S=%d, %dx%d)", d.procs, d.shape[0], d.shape[1])
}

func (d cyclicRows) Owner(idx []int64) int64 {
	checkRank("cyclic_rows.Owner", idx, 2)
	return expr.EucMod(idx[0], d.procs)
}

func (d cyclicRows) Local(dst, idx []int64) []int64 {
	checkRank("cyclic_rows.Local", idx, 2)
	return append(dst[:0], (idx[0]-1)/d.procs+1, idx[1])
}

func (d cyclicRows) LocalShape() []int64 {
	return []int64{ceilDiv(d.shape[0], d.procs), d.shape[1]}
}

func (d cyclicRows) SymbolicOwner(idx []expr.Expr) expr.Expr {
	return expr.Mod(idx[0], expr.C(d.procs))
}

func (d cyclicRows) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return []expr.Expr{expr.Add(expr.Div(expr.Sub(idx[0], expr.C(1)), expr.C(d.procs)), expr.C(1)), idx[1]}
}

// --- block columns ---

type blockCols struct {
	procs int64
	shape []int64
	width int64
}

// NewBlockCols assigns contiguous blocks of ceil(cols/procs) columns to each
// processor in order.
func NewBlockCols(procs int64, rows, cols int64) Dist {
	mustPositive(procs, rows, cols)
	return blockCols{procs: procs, shape: []int64{rows, cols}, width: ceilDiv(cols, procs)}
}

func (d blockCols) Kind() Kind           { return KindBlockCols }
func (d blockCols) Procs() int64         { return d.procs }
func (d blockCols) GlobalShape() []int64 { return []int64{d.shape[0], d.shape[1]} }
func (d blockCols) String() string {
	return fmt.Sprintf("block_cols(S=%d, %dx%d)", d.procs, d.shape[0], d.shape[1])
}

func (d blockCols) Owner(idx []int64) int64 {
	checkRank("block_cols.Owner", idx, 2)
	return (idx[1] - 1) / d.width
}

func (d blockCols) Local(dst, idx []int64) []int64 {
	checkRank("block_cols.Local", idx, 2)
	return append(dst[:0], idx[0], expr.EucMod(idx[1]-1, d.width)+1)
}

func (d blockCols) LocalShape() []int64 { return []int64{d.shape[0], d.width} }

func (d blockCols) SymbolicOwner(idx []expr.Expr) expr.Expr {
	return expr.Div(expr.Sub(idx[1], expr.C(1)), expr.C(d.width))
}

func (d blockCols) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return []expr.Expr{idx[0], expr.Add(expr.Mod(expr.Sub(idx[1], expr.C(1)), expr.C(d.width)), expr.C(1))}
}

// --- block rows ---

type blockRows struct {
	procs int64
	shape []int64
	width int64
}

// NewBlockRows assigns contiguous blocks of ceil(rows/procs) rows to each
// processor in order.
func NewBlockRows(procs int64, rows, cols int64) Dist {
	mustPositive(procs, rows, cols)
	return blockRows{procs: procs, shape: []int64{rows, cols}, width: ceilDiv(rows, procs)}
}

func (d blockRows) Kind() Kind           { return KindBlockRows }
func (d blockRows) Procs() int64         { return d.procs }
func (d blockRows) GlobalShape() []int64 { return []int64{d.shape[0], d.shape[1]} }
func (d blockRows) String() string {
	return fmt.Sprintf("block_rows(S=%d, %dx%d)", d.procs, d.shape[0], d.shape[1])
}

func (d blockRows) Owner(idx []int64) int64 {
	checkRank("block_rows.Owner", idx, 2)
	return (idx[0] - 1) / d.width
}

func (d blockRows) Local(dst, idx []int64) []int64 {
	checkRank("block_rows.Local", idx, 2)
	return append(dst[:0], expr.EucMod(idx[0]-1, d.width)+1, idx[1])
}

func (d blockRows) LocalShape() []int64 { return []int64{d.width, d.shape[1]} }

func (d blockRows) SymbolicOwner(idx []expr.Expr) expr.Expr {
	return expr.Div(expr.Sub(idx[0], expr.C(1)), expr.C(d.width))
}

func (d blockRows) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return []expr.Expr{expr.Add(expr.Mod(expr.Sub(idx[0], expr.C(1)), expr.C(d.width)), expr.C(1)), idx[1]}
}

// --- 2-D blocks over a processor grid ---

type block2D struct {
	pr, pc int64 // processor grid dimensions; proc id = r*pc + c
	shape  []int64
	hr, wc int64 // block height, width
}

// NewBlock2D decomposes a rows×cols matrix into 2-D blocks over a pr×pc
// processor grid; element (i,j) lives on processor
// ((i-1) div blockRows)·pc + ((j-1) div blockCols).
func NewBlock2D(pr, pc int64, rows, cols int64) Dist {
	mustPositive(pr, rows, cols)
	mustPositive(pc, rows, cols)
	return block2D{pr: pr, pc: pc, shape: []int64{rows, cols},
		hr: ceilDiv(rows, pr), wc: ceilDiv(cols, pc)}
}

func (d block2D) Kind() Kind           { return KindBlock2D }
func (d block2D) Procs() int64         { return d.pr * d.pc }
func (d block2D) GlobalShape() []int64 { return []int64{d.shape[0], d.shape[1]} }
func (d block2D) String() string {
	return fmt.Sprintf("block2d(%dx%d procs, %dx%d)", d.pr, d.pc, d.shape[0], d.shape[1])
}

func (d block2D) Owner(idx []int64) int64 {
	checkRank("block2d.Owner", idx, 2)
	return ((idx[0]-1)/d.hr)*d.pc + (idx[1]-1)/d.wc
}

func (d block2D) Local(dst, idx []int64) []int64 {
	checkRank("block2d.Local", idx, 2)
	return append(dst[:0], expr.EucMod(idx[0]-1, d.hr)+1, expr.EucMod(idx[1]-1, d.wc)+1)
}

func (d block2D) LocalShape() []int64 { return []int64{d.hr, d.wc} }

func (d block2D) SymbolicOwner(idx []expr.Expr) expr.Expr {
	r := expr.Div(expr.Sub(idx[0], expr.C(1)), expr.C(d.hr))
	c := expr.Div(expr.Sub(idx[1], expr.C(1)), expr.C(d.wc))
	return expr.Add(expr.Mul(r, expr.C(d.pc)), c)
}

func (d block2D) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return []expr.Expr{
		expr.Add(expr.Mod(expr.Sub(idx[0], expr.C(1)), expr.C(d.hr)), expr.C(1)),
		expr.Add(expr.Mod(expr.Sub(idx[1], expr.C(1)), expr.C(d.wc)), expr.C(1)),
	}
}

// --- replicated (ALL) ---

type replicated struct {
	procs int64
	shape []int64
}

// NewReplicated places a full copy of the data on every processor; shape may
// be empty for a scalar (the paper's "a:ALL").
func NewReplicated(procs int64, shape ...int64) Dist {
	mustPositive(procs)
	s := make([]int64, len(shape))
	copy(s, shape)
	return replicated{procs: procs, shape: s}
}

func (d replicated) Kind() Kind           { return KindReplicated }
func (d replicated) Procs() int64         { return d.procs }
func (d replicated) GlobalShape() []int64 { return append([]int64(nil), d.shape...) }
func (d replicated) String() string       { return "all" }

func (d replicated) Owner(idx []int64) int64        { return All }
func (d replicated) Local(dst, idx []int64) []int64 { return append(dst[:0], idx...) }
func (d replicated) LocalShape() []int64            { return append([]int64(nil), d.shape...) }

func (d replicated) SymbolicOwner(idx []expr.Expr) expr.Expr {
	panic("dist: replicated data has no single owner; test Kind() first")
}

func (d replicated) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return append([]expr.Expr(nil), idx...)
}

// --- single processor ---

type single struct {
	procs int64
	p     int64
	shape []int64
}

// NewSingle places the data (a scalar when shape is empty, or a whole array)
// on the given processor: the paper's "a:P1" mapping.
func NewSingle(procs, p int64, shape ...int64) Dist {
	mustPositive(procs)
	if p < 0 || p >= procs {
		panic(fmt.Sprintf("dist: processor %d out of range [0,%d)", p, procs))
	}
	s := make([]int64, len(shape))
	copy(s, shape)
	return single{procs: procs, p: p, shape: s}
}

func (d single) Kind() Kind           { return KindSingle }
func (d single) Procs() int64         { return d.procs }
func (d single) GlobalShape() []int64 { return append([]int64(nil), d.shape...) }
func (d single) String() string       { return fmt.Sprintf("proc(%d)", d.p) }

func (d single) Owner(idx []int64) int64        { return d.p }
func (d single) Local(dst, idx []int64) []int64 { return append(dst[:0], idx...) }
func (d single) LocalShape() []int64            { return append([]int64(nil), d.shape...) }

func (d single) SymbolicOwner(idx []expr.Expr) expr.Expr { return expr.C(d.p) }

func (d single) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return append([]expr.Expr(nil), idx...)
}

// ProcOf exposes the fixed processor of a single-processor decomposition.
func ProcOf(d Dist) (int64, bool) {
	s, ok := d.(single)
	if !ok {
		return 0, false
	}
	return s.p, true
}

func mustPositive(vs ...int64) {
	for _, v := range vs {
		if v <= 0 {
			panic(fmt.Sprintf("dist: parameter must be positive, got %d", v))
		}
	}
}

// --- 1-D distributions for vectors ---

type cyclicVec struct {
	procs int64
	n     int64
}

// NewCyclicVec wraps the elements of a length-n vector around the ring:
// element i lives on processor i mod procs.
func NewCyclicVec(procs, n int64) Dist {
	mustPositive(procs, n)
	return cyclicVec{procs: procs, n: n}
}

func (d cyclicVec) Kind() Kind           { return KindCyclicVec }
func (d cyclicVec) Procs() int64         { return d.procs }
func (d cyclicVec) GlobalShape() []int64 { return []int64{d.n} }
func (d cyclicVec) String() string {
	return fmt.Sprintf("cyclic(S=%d, len %d)", d.procs, d.n)
}

func (d cyclicVec) Owner(idx []int64) int64 {
	checkRank("cyclic.Owner", idx, 1)
	return expr.EucMod(idx[0], d.procs)
}

func (d cyclicVec) Local(dst, idx []int64) []int64 {
	checkRank("cyclic.Local", idx, 1)
	return append(dst[:0], (idx[0]-1)/d.procs+1)
}

func (d cyclicVec) LocalShape() []int64 { return []int64{ceilDiv(d.n, d.procs)} }

func (d cyclicVec) SymbolicOwner(idx []expr.Expr) expr.Expr {
	return expr.Mod(idx[0], expr.C(d.procs))
}

func (d cyclicVec) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return []expr.Expr{expr.Add(expr.Div(expr.Sub(idx[0], expr.C(1)), expr.C(d.procs)), expr.C(1))}
}

type blockVec struct {
	procs int64
	n     int64
	width int64
}

// NewBlockVec assigns contiguous blocks of ceil(n/procs) vector elements to
// each processor in order.
func NewBlockVec(procs, n int64) Dist {
	mustPositive(procs, n)
	return blockVec{procs: procs, n: n, width: ceilDiv(n, procs)}
}

func (d blockVec) Kind() Kind           { return KindBlockVec }
func (d blockVec) Procs() int64         { return d.procs }
func (d blockVec) GlobalShape() []int64 { return []int64{d.n} }
func (d blockVec) String() string {
	return fmt.Sprintf("block(S=%d, len %d)", d.procs, d.n)
}

func (d blockVec) Owner(idx []int64) int64 {
	checkRank("block.Owner", idx, 1)
	return (idx[0] - 1) / d.width
}

func (d blockVec) Local(dst, idx []int64) []int64 {
	checkRank("block.Local", idx, 1)
	return append(dst[:0], expr.EucMod(idx[0]-1, d.width)+1)
}

func (d blockVec) LocalShape() []int64 { return []int64{d.width} }

func (d blockVec) SymbolicOwner(idx []expr.Expr) expr.Expr {
	return expr.Div(expr.Sub(idx[0], expr.C(1)), expr.C(d.width))
}

func (d blockVec) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return []expr.Expr{expr.Add(expr.Mod(expr.Sub(idx[0], expr.C(1)), expr.C(d.width)), expr.C(1))}
}
