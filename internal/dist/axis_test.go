package dist

import (
	"fmt"
	"testing"

	"procdecomp/internal/expr"
)

// The row families are the column families transposed, and the vector
// families are the row families' one axis: rows on R×C own and place (i, j)
// exactly as columns on C×R own and place (j, i), and a vector of length n
// owns and places i exactly as rows on n×1 place (i, 1). Both views are
// checked, the concrete one on every element and the symbolic one as
// expressions.
func TestAxisFamiliesAreOneRule(t *testing.T) {
	pairs := []struct{ rows, cols, vec Kind }{
		{KindCyclicRows, KindCyclicCols, KindCyclicVec},
		{KindBlockRows, KindBlockCols, KindBlockVec},
	}
	iv, jv := expr.V("i"), expr.V("j")
	for _, pr := range pairs {
		for _, s := range []int64{1, 2, 3, 4, 8} {
			for _, sh := range [][2]int64{{1, 1}, {5, 9}, {8, 8}, {13, 4}, {16, 33}} {
				r, c := sh[0], sh[1]
				rows, cols := span(pr.rows, s, r, c), span(pr.cols, s, c, r)
				vec, line := span(pr.vec, s, r), span(pr.rows, s, r, 1)
				if got, want := rows.LocalShape(), swap(cols.LocalShape()); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%v: alloc %v, transposed %v alloc %v", rows, got, cols, want)
				}
				if got, want := vec.LocalShape()[0], line.LocalShape()[0]; got != want {
					t.Fatalf("%v: alloc %d, %v alloc %d", vec, got, line, want)
				}
				for i := int64(1); i <= r; i++ {
					for j := int64(1); j <= c; j++ {
						if got, want := rows.Owner([]int64{i, j}), cols.Owner([]int64{j, i}); got != want {
							t.Fatalf("%v: owner(%d,%d) = %d, %v owner(%d,%d) = %d", rows, i, j, got, cols, j, i, want)
						}
						got, want := rows.Local(nil, []int64{i, j}), swap(cols.Local(nil, []int64{j, i}))
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%v: local(%d,%d) = %v, transposed %v gives %v", rows, i, j, got, cols, want)
						}
					}
					if got, want := vec.Owner([]int64{i}), line.Owner([]int64{i, 1}); got != want {
						t.Fatalf("%v: owner(%d) = %d, %v gives %d", vec, i, got, line, want)
					}
					if got, want := vec.Local(nil, []int64{i})[0], line.Local(nil, []int64{i, 1})[0]; got != want {
						t.Fatalf("%v: local(%d) = %d, %v gives %d", vec, i, got, line, want)
					}
				}
				if got, want := rows.SymbolicOwner([]expr.Expr{iv, jv}), cols.SymbolicOwner([]expr.Expr{jv, iv}); !got.Equal(want) {
					t.Fatalf("%v: symbolic owner %v, transposed %v gives %v", rows, got, cols, want)
				}
				sr, sc := rows.SymbolicLocal([]expr.Expr{iv, jv}), cols.SymbolicLocal([]expr.Expr{jv, iv})
				if !sr[0].Equal(sc[1]) || !sr[1].Equal(sc[0]) {
					t.Fatalf("%v: symbolic local %v, transposed %v gives %v", rows, sr, cols, sc)
				}
				if got, want := vec.SymbolicOwner([]expr.Expr{iv}), line.SymbolicOwner([]expr.Expr{iv, jv}); !got.Equal(want) {
					t.Fatalf("%v: symbolic owner %v, %v gives %v", vec, got, line, want)
				}
				if got, want := vec.SymbolicLocal([]expr.Expr{iv})[0], line.SymbolicLocal([]expr.Expr{iv, jv})[0]; !got.Equal(want) {
					t.Fatalf("%v: symbolic local %v, %v gives %v", vec, got, line, want)
				}
			}
		}
	}
}

func swap(v []int64) []int64 { return []int64{v[1], v[0]} }
