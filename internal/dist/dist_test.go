package dist

import (
	"fmt"
	"math/rand"
	"testing"

	"procdecomp/internal/expr"
	"procdecomp/internal/golden"
)

// span binds the family k over a span of s processors to data of the given
// shape, as the declaration `dist D = k(s)` does.
func span(k Kind, s int64, shape ...int64) Dist { return k.Bind([]int64{s}, shape) }

// allDists builds one instance of every non-scalar decomposition family for a
// given machine and matrix size.
func allDists(procs, rows, cols int64) []Dist {
	ds := []Dist{
		NewCyclicCols(procs, rows, cols),
		span(KindCyclicRows, procs, rows, cols),
		span(KindBlockCols, procs, rows, cols),
		span(KindBlockRows, procs, rows, cols),
		NewSingle(procs, procs-1, rows, cols),
	}
	// A near-square processor grid for block2d.
	for pr := procs; pr >= 1; pr-- {
		if procs%pr == 0 {
			ds = append(ds, NewBlock2D(pr, procs/pr, rows, cols))
			break
		}
	}
	return ds
}

// Property: every element has exactly one owner in range, its local index is
// within the local allocation, and (owner, local) is injective.
func TestOwnershipPartition(t *testing.T) {
	configs := []struct{ procs, rows, cols int64 }{
		{1, 5, 5}, {2, 8, 8}, {3, 7, 10}, {4, 16, 16}, {5, 9, 13}, {8, 8, 8},
	}
	for _, cfg := range configs {
		for _, d := range allDists(cfg.procs, cfg.rows, cfg.cols) {
			seen := map[string]bool{}
			ls := d.LocalShape()
			var l []int64
			for i := int64(1); i <= cfg.rows; i++ {
				for j := int64(1); j <= cfg.cols; j++ {
					idx := []int64{i, j}
					p := d.Owner(idx)
					if p < 0 || p >= d.Procs() {
						t.Fatalf("%v: owner(%v) = %d out of range", d, idx, p)
					}
					l = d.Local(l, idx)
					if len(l) != len(ls) {
						t.Fatalf("%v: local rank %d != alloc rank %d", d, len(l), len(ls))
					}
					for k := range l {
						if l[k] < 1 || l[k] > ls[k] {
							t.Fatalf("%v: local(%v) = %v outside alloc %v", d, idx, l, ls)
						}
					}
					key := fmt.Sprintf("%d/%v", p, l)
					if seen[key] {
						t.Fatalf("%v: (owner, local) collision at %v", d, idx)
					}
					seen[key] = true
				}
			}
		}
	}
}

// Property: the symbolic owner/local expressions agree with the concrete
// functions on every element.
func TestSymbolicAgreesWithConcrete(t *testing.T) {
	iv, jv := expr.V("i"), expr.V("j")
	sym := []expr.Expr{iv, jv}
	for _, d := range allDists(4, 11, 13) {
		so := d.SymbolicOwner(sym)
		sl := d.SymbolicLocal(sym)
		for i := int64(1); i <= 11; i++ {
			for j := int64(1); j <= 13; j++ {
				env := expr.Env{"i": i, "j": j}
				if got, want := value(t, so, env), d.Owner([]int64{i, j}); got != want {
					t.Fatalf("%v: symbolic owner(%d,%d) = %d, want %d", d, i, j, got, want)
				}
				loc := d.Local(nil, []int64{i, j})
				for k := range sl {
					if got := value(t, sl[k], env); got != loc[k] {
						t.Fatalf("%v: symbolic local[%d](%d,%d) = %d, want %d", d, k, i, j, got, loc[k])
					}
				}
			}
		}
	}
}

func TestCyclicColsMatchesPaper(t *testing.T) {
	// §2.3: "column j is assigned to processor j mod s".
	d := NewCyclicCols(4, 8, 8)
	for j := int64(1); j <= 8; j++ {
		if got := d.Owner([]int64{3, j}); got != j%4 {
			t.Errorf("owner of column %d = %d, want %d", j, got, j%4)
		}
	}
	// Owner is independent of the row.
	for i := int64(1); i <= 8; i++ {
		if d.Owner([]int64{i, 5}) != 1 {
			t.Errorf("owner of column 5 depends on row %d", i)
		}
	}
	// Col-alloc(N, N) = matrix(N, N/S) for S | N.
	ls := d.LocalShape()
	if ls[0] != 8 || ls[1] != 2 {
		t.Errorf("LocalShape = %v, want [8 2]", ls)
	}
}

func TestCyclicColsSymbolicOwnerShape(t *testing.T) {
	// The mapping of A[i, j+1] must be ((j + 1) mod 4): the expression the
	// paper gives in §3.2 for a matrix mapped by column.
	d := NewCyclicCols(4, 8, 8)
	e := d.SymbolicOwner([]expr.Expr{expr.V("i"), expr.Add(expr.V("j"), expr.C(1))})
	if e.String() != "((j + 1) mod 4)" {
		t.Errorf("symbolic owner = %q, want ((j + 1) mod 4)", e)
	}
	// Processor 1 owns the columns j ≡ 0 (mod 4): every fourth from 4.
	class, ok := expr.Solve(e, 1, "j")
	o := expr.Range(expr.C(1), expr.C(8)).Intersect(class)
	if first, _ := o.First.ConstVal(); !ok || o.Stride != 4 || first != 4 {
		t.Errorf("Solve(%v == 1) = %+v, %v; want every 4th column from 4", e, o, ok)
	}
}

func TestBlockColsContiguity(t *testing.T) {
	d := span(KindBlockCols, 4, 8, 16)
	// Owners must be non-decreasing in j, with equal-width blocks of 4.
	prev := int64(0)
	for j := int64(1); j <= 16; j++ {
		p := d.Owner([]int64{1, j})
		if p < prev {
			t.Fatalf("block owners not monotone at column %d", j)
		}
		if want := (j - 1) / 4; p != want {
			t.Fatalf("owner(col %d) = %d, want %d", j, p, want)
		}
		prev = p
	}
}

func TestBlock2DGrid(t *testing.T) {
	d := NewBlock2D(2, 3, 6, 9) // 2x3 proc grid, 3x3 blocks
	if d.Procs() != 6 {
		t.Fatalf("Procs = %d, want 6", d.Procs())
	}
	if got := d.Owner([]int64{1, 1}); got != 0 {
		t.Errorf("owner(1,1) = %d, want 0", got)
	}
	if got := d.Owner([]int64{4, 1}); got != 3 {
		t.Errorf("owner(4,1) = %d, want 3", got)
	}
	if got := d.Owner([]int64{6, 9}); got != 5 {
		t.Errorf("owner(6,9) = %d, want 5", got)
	}
}

func TestReplicated(t *testing.T) {
	d := NewReplicated(4, 3, 3)
	if d.Owner([]int64{1, 1}) != All {
		t.Error("replicated owner should be All")
	}
	if d.Kind() != KindReplicated {
		t.Error("wrong kind")
	}
	l := d.Local(nil, []int64{2, 3})
	if l[0] != 2 || l[1] != 3 {
		t.Errorf("replicated local should be identity, got %v", l)
	}
	defer func() {
		if recover() == nil {
			t.Error("SymbolicOwner on replicated should panic")
		}
	}()
	d.SymbolicOwner([]expr.Expr{expr.V("i"), expr.V("j")})
}

func TestSingleScalar(t *testing.T) {
	d := NewSingle(4, 2)
	if d.Owner(nil) != 2 {
		t.Errorf("owner = %d, want 2", d.Owner(nil))
	}
	if p, ok := ProcOf(d); !ok || p != 2 {
		t.Errorf("ProcOf = %d,%v", p, ok)
	}
	if e := d.SymbolicOwner(nil); !e.Equal(expr.C(2)) {
		t.Errorf("symbolic owner = %v, want 2", e)
	}
	if _, ok := ProcOf(NewReplicated(4)); ok {
		t.Error("ProcOf on replicated should report false")
	}
}

func TestSingleOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range processor")
		}
	}()
	NewSingle(4, 4)
}

// Property: cyclic columns are balanced — per-processor column counts differ
// by at most one.
func TestCyclicBalance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		procs := int64(rng.Intn(7) + 1)
		cols := int64(rng.Intn(40) + 1)
		d := NewCyclicCols(procs, 4, cols)
		counts := make([]int64, procs)
		for j := int64(1); j <= cols; j++ {
			counts[d.Owner([]int64{1, j})]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Fatalf("procs=%d cols=%d: unbalanced counts %v", procs, cols, counts)
		}
	}
}

// Property: local indices fit exactly — the alloc shape is no larger than
// needed (tight in each dimension for at least one processor).
func TestAllocTight(t *testing.T) {
	for _, d := range allDists(3, 9, 12) {
		if d.Kind() == KindReplicated {
			continue
		}
		ls := d.LocalShape()
		maxSeen := make([]int64, len(ls))
		for i := int64(1); i <= 9; i++ {
			for j := int64(1); j <= 12; j++ {
				l := d.Local(nil, []int64{i, j})
				for k := range l {
					if l[k] > maxSeen[k] {
						maxSeen[k] = l[k]
					}
				}
			}
		}
		for k := range ls {
			if maxSeen[k] != ls[k] {
				t.Errorf("%v: alloc dim %d = %d but max used = %d", d, k, ls[k], maxSeen[k])
			}
		}
	}
}

func TestVectorDistributions(t *testing.T) {
	for _, d := range []Dist{span(KindCyclicVec, 3, 10), span(KindBlockVec, 3, 10)} {
		seen := map[string]bool{}
		ls := d.LocalShape()
		for i := int64(1); i <= 10; i++ {
			p := d.Owner([]int64{i})
			if p < 0 || p >= d.Procs() {
				t.Fatalf("%v: owner(%d) = %d out of range", d, i, p)
			}
			l := d.Local(nil, []int64{i})
			if l[0] < 1 || l[0] > ls[0] {
				t.Fatalf("%v: local(%d) = %v outside alloc %v", d, i, l, ls)
			}
			key := fmt.Sprintf("%d/%d", p, l[0])
			if seen[key] {
				t.Fatalf("%v: collision at %d", d, i)
			}
			seen[key] = true
			// Symbolic agreement.
			env := expr.Env{"i": i}
			if got := value(t, d.SymbolicOwner([]expr.Expr{expr.V("i")}), env); got != p {
				t.Fatalf("%v: symbolic owner(%d) = %d, want %d", d, i, got, p)
			}
			if got := value(t, d.SymbolicLocal([]expr.Expr{expr.V("i")})[0], env); got != l[0] {
				t.Fatalf("%v: symbolic local(%d) = %d, want %d", d, i, got, l[0])
			}
		}
	}
	if span(KindCyclicVec, 3, 10).Kind() != KindCyclicVec || span(KindBlockVec, 3, 10).Kind() != KindBlockVec {
		t.Error("kinds wrong")
	}
}

// Local writes into the caller's buffer: with room for the index it
// allocates nothing and returns that buffer, whatever it held before.
func TestLocalFillsTheCallersBuffer(t *testing.T) {
	ds := append(allDists(4, 9, 12), NewReplicated(4, 9, 12))
	for _, d := range append(ds, span(KindCyclicVec, 3, 10), span(KindBlockVec, 3, 10)) {
		idx := []int64{5, 7}[:len(d.GlobalShape())]
		want := d.Local(nil, idx)
		buf := []int64{-1, -1, -1}
		got := d.Local(buf, idx)
		if &got[0] != &buf[0] || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%v: Local(buf, %v) = %v in a new array, want %v in buf", d, idx, got, want)
		}
		if golden.RaceEnabled {
			continue // the race detector allocates on its own account
		}
		if n := testing.AllocsPerRun(100, func() { buf = d.Local(buf, idx) }); n != 0 {
			t.Errorf("%v: Local into a buffer with room: %.0f allocations, want 0", d, n)
		}
	}
}

// value evaluates e, which the test knows is closed under env.
func value(t *testing.T, e expr.Expr, env expr.Env) int64 {
	t.Helper()
	v, err := e.Eval(env)
	if err != nil {
		t.Fatal(err)
	}
	return v
}
