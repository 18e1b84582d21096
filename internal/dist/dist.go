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

func checkRank(k Kind, what string, n, want int) {
	if n != want {
		panic(fmt.Sprintf("dist: %v.%s applied to index of rank %d, want %d", k, what, n, want))
	}
}

// ceilDiv returns ceil(a/b) for positive a, b.
func ceilDiv(a, b int64) int64 { return (a + b - 1) / b }

// --- one axis: the cyclic and block families ---

// axisDist is what the cyclic and block families share: the family, the
// dimension of the data it distributes (the table's axis: columns are 1,
// rows and vector elements 0), the processors it spans and the global shape.
// Each processor holds ceil(extent/procs) indices of that dimension and every
// index of the others. The two families are used by pointer: Owner and Local
// run once per element, and a call on a value copies the struct.
type axisDist struct {
	kind  Kind
	dim   int
	procs int64
	shape []int64
}

func newAxis(k Kind, procs int64, shape []int64) axisDist {
	mustPositive(procs)
	mustPositive(shape...)
	return axisDist{kind: k, dim: families[k].axis, procs: procs, shape: append([]int64(nil), shape...)}
}

func (d *axisDist) Kind() Kind           { return d.kind }
func (d *axisDist) Procs() int64         { return d.procs }
func (d *axisDist) GlobalShape() []int64 { return append([]int64(nil), d.shape...) }
func (d *axisDist) String() string {
	if len(d.shape) == 1 {
		return fmt.Sprintf("%v(S=%d, len %d)", d.kind, d.procs, d.shape[0])
	}
	return fmt.Sprintf("%v(S=%d, %dx%d)", d.kind, d.procs, d.shape[0], d.shape[1])
}

func (d *axisDist) LocalShape() []int64 {
	s := append([]int64(nil), d.shape...)
	s[d.dim] = ceilDiv(s[d.dim], d.procs)
	return s
}

// local writes idx into dst[:0] with the distributed dimension replaced by
// its local index l.
func (d *axisDist) local(dst, idx []int64, l int64) []int64 {
	checkRank(d.kind, "Local", len(idx), len(d.shape))
	dst = append(dst[:0], idx...)
	dst[d.dim] = l
	return dst
}

// symLocal is local over symbolic indices.
func (d *axisDist) symLocal(idx []expr.Expr, l expr.Expr) []expr.Expr {
	out := append([]expr.Expr(nil), idx...)
	out[d.dim] = l
	return out
}

// cyclic wraps the distributed dimension around the processors "like a
// dealer deals cards": index i lives on processor i mod procs (§2.3), at
// local index (i-1) div procs + 1.
type cyclic struct{ axisDist }

// NewCyclicCols wraps the columns of a rows×cols matrix around a ring of
// procs processors: column j lives on processor j mod procs (§2.3).
func NewCyclicCols(procs int64, rows, cols int64) Dist {
	return &cyclic{newAxis(KindCyclicCols, procs, []int64{rows, cols})}
}

func (d *cyclic) Owner(idx []int64) int64 {
	checkRank(d.kind, "Owner", len(idx), len(d.shape))
	return expr.EucMod(idx[d.dim], d.procs)
}

func (d *cyclic) Local(dst, idx []int64) []int64 {
	return d.local(dst, idx, (idx[d.dim]-1)/d.procs+1)
}

func (d *cyclic) SymbolicOwner(idx []expr.Expr) expr.Expr {
	checkRank(d.kind, "SymbolicOwner", len(idx), len(d.shape))
	return expr.Mod(idx[d.dim], expr.C(d.procs))
}

func (d *cyclic) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return d.symLocal(idx, expr.Add(expr.Div(expr.Sub(idx[d.dim], expr.C(1)), expr.C(d.procs)), expr.C(1)))
}

// block assigns contiguous blocks of width = ceil(extent/procs) indices of
// the distributed dimension to each processor in order.
type block struct {
	axisDist
	width int64
}

func newBlock(k Kind, procs int64, shape []int64) Dist {
	d := newAxis(k, procs, shape)
	return &block{d, ceilDiv(shape[d.dim], procs)}
}

func (d *block) Owner(idx []int64) int64 {
	checkRank(d.kind, "Owner", len(idx), len(d.shape))
	return blockOf(idx[d.dim], d.width)
}

func (d *block) Local(dst, idx []int64) []int64 {
	return d.local(dst, idx, inBlock(idx[d.dim], d.width))
}

func (d *block) SymbolicOwner(idx []expr.Expr) expr.Expr {
	checkRank(d.kind, "SymbolicOwner", len(idx), len(d.shape))
	return symBlockOf(idx[d.dim], d.width)
}

func (d *block) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return d.symLocal(idx, symInBlock(idx[d.dim], d.width))
}

// The block rule along one dimension, concretely and symbolically: index i
// lies in block (i-1) div w, at position (i-1) mod w + 1.
func blockOf(i, w int64) int64 { return (i - 1) / w }
func inBlock(i, w int64) int64 { return expr.EucMod(i-1, w) + 1 }
func symBlockOf(i expr.Expr, w int64) expr.Expr {
	return expr.Div(expr.Sub(i, expr.C(1)), expr.C(w))
}
func symInBlock(i expr.Expr, w int64) expr.Expr {
	return expr.Add(expr.Mod(expr.Sub(i, expr.C(1)), expr.C(w)), expr.C(1))
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
	mustPositive(pr, pc, rows, cols)
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
	checkRank(KindBlock2D, "Owner", len(idx), 2)
	return blockOf(idx[0], d.hr)*d.pc + blockOf(idx[1], d.wc)
}

func (d block2D) Local(dst, idx []int64) []int64 {
	checkRank(KindBlock2D, "Local", len(idx), 2)
	return append(dst[:0], inBlock(idx[0], d.hr), inBlock(idx[1], d.wc))
}

func (d block2D) LocalShape() []int64 { return []int64{d.hr, d.wc} }

func (d block2D) SymbolicOwner(idx []expr.Expr) expr.Expr {
	return expr.Add(expr.Mul(symBlockOf(idx[0], d.hr), expr.C(d.pc)), symBlockOf(idx[1], d.wc))
}

func (d block2D) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return []expr.Expr{symInBlock(idx[0], d.hr), symInBlock(idx[1], d.wc)}
}

// --- whole data: replicated and single ---

// whole is what the replicated and single-processor families share: the data
// stays whole, so a local index is the global one and the allocation is the
// global shape.
type whole struct {
	procs int64
	shape []int64
}

func newWhole(procs int64, shape []int64) whole {
	mustPositive(procs)
	return whole{procs: procs, shape: append([]int64(nil), shape...)}
}

func (d whole) Procs() int64                   { return d.procs }
func (d whole) GlobalShape() []int64           { return append([]int64(nil), d.shape...) }
func (d whole) Local(dst, idx []int64) []int64 { return append(dst[:0], idx...) }
func (d whole) LocalShape() []int64            { return append([]int64(nil), d.shape...) }

func (d whole) SymbolicLocal(idx []expr.Expr) []expr.Expr {
	return append([]expr.Expr(nil), idx...)
}

type replicated struct{ whole }

// NewReplicated places a full copy of the data on every processor; shape may
// be empty for a scalar (the paper's "a:ALL").
func NewReplicated(procs int64, shape ...int64) Dist {
	return replicated{newWhole(procs, shape)}
}

func (d replicated) Kind() Kind              { return KindReplicated }
func (d replicated) String() string          { return KindReplicated.String() }
func (d replicated) Owner(idx []int64) int64 { return All }

func (d replicated) SymbolicOwner(idx []expr.Expr) expr.Expr {
	panic("dist: replicated data has no single owner; test Kind() first")
}

type single struct {
	whole
	p int64
}

// NewSingle places the data (a scalar when shape is empty, or a whole array)
// on the given processor: the paper's "a:P1" mapping.
func NewSingle(procs, p int64, shape ...int64) Dist {
	w := newWhole(procs, shape)
	if p < 0 || p >= procs {
		panic(fmt.Sprintf("dist: processor %d out of range [0,%d)", p, procs))
	}
	return single{w, p}
}

func (d single) Kind() Kind                              { return KindSingle }
func (d single) String() string                          { return fmt.Sprintf("proc(%d)", d.p) }
func (d single) Owner(idx []int64) int64                 { return d.p }
func (d single) SymbolicOwner(idx []expr.Expr) expr.Expr { return expr.C(d.p) }

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
