package dist

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Parse must be the exact inverse of Kind.String over every family, so
// command-line -dist flags round-trip without a parallel name table drifting.
func TestParseRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for _, k := range kinds() {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no canonical name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Fatalf("kinds %v and %v share the name %q", prev, k, name)
		}
		seen[name] = k
		got, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if got != k {
			t.Errorf("Parse(%q) = %v, want %v", name, got, k)
		}
		// Case and surrounding space are forgiven — flags come from humans.
		if got, err := Parse("  " + strings.ToUpper(name) + " "); err != nil || got != k {
			t.Errorf("Parse(%q uppercased) = %v, %v; want %v", name, got, err, k)
		}
	}
	if len(seen) != len(kinds()) {
		t.Fatalf("kinds() lists %d kinds, %d unique names", len(kinds()), len(seen))
	}
}

func TestParseUnknown(t *testing.T) {
	for _, bad := range []string{"", "diagonal", "cyclic_colz", "Kind(3)"} {
		if k, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %v, want error", bad, k)
		} else if !strings.Contains(err.Error(), "cyclic_cols") {
			t.Errorf("Parse(%q) error %q does not list valid names", bad, err)
		}
	}
}

// Property: every bound decomposition partitions its global index space —
// each element has exactly one owner in [0, P), its local index lies inside
// the local allocation, and no two global indices collide on the same
// (owner, local) slot. Replicated data is the stated exception: every owner
// is All and local is the identity. Exercised across the machine sizes the
// acceptance suite cares about (S ∈ {1,2,4,32}) and shapes that do not
// divide evenly.
func TestPartitionPropertyAcrossSizes(t *testing.T) {
	sizes := []int64{1, 2, 4, 32}
	shapes := [][2]int64{{7, 13}, {33, 9}, {32, 32}, {1, 40}}
	for _, s := range sizes {
		for _, sh := range shapes {
			rows, cols := sh[0], sh[1]
			ds := []Dist{
				NewCyclicCols(s, rows, cols),
				span(KindCyclicRows, s, rows, cols),
				span(KindBlockCols, s, rows, cols),
				span(KindBlockRows, s, rows, cols),
				NewSingle(s, s-1, rows, cols),
				NewReplicated(s, rows, cols),
			}
			for pr := int64(1); pr <= s; pr++ {
				if s%pr == 0 {
					ds = append(ds, NewBlock2D(pr, s/pr, rows, cols))
				}
			}
			for _, d := range ds {
				checkMatrixPartition(t, d, s, rows, cols)
			}
			// Vector families, on a deliberately non-divisible length.
			n := rows*cols - 1
			for _, d := range []Dist{span(KindCyclicVec, s, n), span(KindBlockVec, s, n)} {
				checkVecPartition(t, d, s, n)
			}
		}
	}
}

func checkMatrixPartition(t *testing.T, d Dist, procs, rows, cols int64) {
	t.Helper()
	ls := d.LocalShape()
	slots := map[string]bool{}
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			idx := []int64{i, j}
			p := d.Owner(idx)
			if d.Kind() == KindReplicated {
				if p != All {
					t.Fatalf("%v: replicated owner(%v) = %d, want All", d, idx, p)
				}
				continue
			}
			if p < 0 || p >= procs {
				t.Fatalf("%v: owner(%v) = %d outside [0,%d)", d, idx, p, procs)
			}
			l := d.Local(nil, idx)
			if len(l) != len(ls) {
				t.Fatalf("%v: local rank %d != alloc rank %d", d, len(l), len(ls))
			}
			for k := range l {
				if l[k] < 1 || l[k] > ls[k] {
					t.Fatalf("%v: local(%v) = %v outside alloc %v", d, idx, l, ls)
				}
			}
			key := fmt.Sprintf("%d/%v", p, l)
			if slots[key] {
				t.Fatalf("%v: two global indices own slot %s", d, key)
			}
			slots[key] = true
		}
	}
	if d.Kind() != KindReplicated && int64(len(slots)) != rows*cols {
		t.Fatalf("%v: %d slots for %d elements", d, len(slots), rows*cols)
	}
}

func checkVecPartition(t *testing.T, d Dist, procs, n int64) {
	t.Helper()
	ls := d.LocalShape()
	slots := map[string]bool{}
	for i := int64(1); i <= n; i++ {
		p := d.Owner([]int64{i})
		if p < 0 || p >= procs {
			t.Fatalf("%v: owner(%d) = %d outside [0,%d)", d, i, p, procs)
		}
		l := d.Local(nil, []int64{i})
		if l[0] < 1 || l[0] > ls[0] {
			t.Fatalf("%v: local(%d) = %v outside alloc %v", d, i, l, ls)
		}
		key := fmt.Sprintf("%d/%d", p, l[0])
		if slots[key] {
			t.Fatalf("%v: two elements own slot %s", d, key)
		}
		slots[key] = true
	}
	if int64(len(slots)) != n {
		t.Fatalf("%v: %d slots for %d elements", d, len(slots), n)
	}
}

// A dist declaration names exactly a family that takes parameters, spelled
// as the table spells it; all and single are annotations.
func TestDeclared(t *testing.T) {
	for _, k := range kinds() {
		got, ok := Declared(k.String())
		if want := k.Arity() > 0; ok != want || (ok && got != k) {
			t.Errorf("Declared(%q) = %v, %v; want %v, %v", k, got, ok, k, want)
		}
		if _, ok := Declared(strings.ToUpper(k.String())); ok {
			t.Errorf("Declared(%q) accepted a name in the wrong case", strings.ToUpper(k.String()))
		}
	}
}

// The parameter rule every family shares, one row per way to break it.
func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		k     Kind
		args  []int64
		procs int64
		want  string // "" for no error
	}{
		{KindCyclicCols, []int64{4}, 4, ""},
		{KindBlockVec, []int64{1}, 4, ""},
		{KindBlock2D, []int64{2, 2}, 4, ""},
		{KindReplicated, nil, 4, ""},
		{KindCyclicCols, []int64{5}, 4, "decomposition cyclic_cols(5) exceeds machine size 4"},
		{KindBlock2D, []int64{3, 2}, 4, "decomposition block2d(3, 2) exceeds machine size 4"},
		{KindBlock2D, []int64{1 << 40, 1 << 40}, 1<<63 - 1, "exceeds machine size"},
		{KindSingle, nil, 0, "decomposition single exceeds machine size 0"},
		{KindCyclicRows, []int64{0}, 4, "decomposition cyclic_rows: arguments must be positive"},
		{KindBlock2D, []int64{2, -1}, 4, "arguments must be positive"},
		{KindCyclicCols, []int64{2, 3}, 4, "decomposition cyclic_cols expects 1 argument(s), got 2"},
		{KindReplicated, []int64{2}, 4, "decomposition all expects 0 argument(s), got 1"},
		{Kind(99), nil, 4, "unknown decomposition Kind(99)"},
	} {
		err := tc.k.Check(tc.args, tc.procs)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%v.Check(%v, %d) = %v, want %q", tc.k, tc.args, tc.procs, err, tc.want)
		}
	}
}

// Bind builds what the family's constructor builds where one is exported,
// and otherwise a decomposition of the family over the requested span and
// shape; CheckRank admits the data the family distributes.
func TestBindMatchesConstructors(t *testing.T) {
	for _, tc := range []struct {
		k     Kind
		args  []int64
		shape []int64
		want  Dist // nil: no constructor besides Bind
	}{
		{KindCyclicCols, []int64{3}, []int64{5, 7}, NewCyclicCols(3, 5, 7)},
		{KindCyclicRows, []int64{3}, []int64{5, 7}, nil},
		{KindBlockCols, []int64{3}, []int64{5, 7}, nil},
		{KindBlockRows, []int64{3}, []int64{5, 7}, nil},
		{KindBlock2D, []int64{2, 3}, []int64{5, 7}, NewBlock2D(2, 3, 5, 7)},
		{KindCyclicVec, []int64{3}, []int64{11}, nil},
		{KindBlockVec, []int64{3}, []int64{11}, nil},
	} {
		if err := tc.k.CheckRank(len(tc.shape)); err != nil {
			t.Errorf("%v.CheckRank(%d) = %v", tc.k, len(tc.shape), err)
		}
		if err := tc.k.CheckRank(3 - len(tc.shape)); err == nil {
			t.Errorf("%v.CheckRank(%d) admitted the other rank", tc.k, 3-len(tc.shape))
		}
		got := tc.k.Bind(tc.args, tc.shape)
		if tc.want != nil && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v.Bind(%v, %v) = %#v, want %#v", tc.k, tc.args, tc.shape, got, tc.want)
		}
		procs := int64(1)
		for _, a := range tc.args {
			procs *= a
		}
		if got.Kind() != tc.k || got.Procs() != procs || !reflect.DeepEqual(got.GlobalShape(), tc.shape) {
			t.Errorf("%v.Bind(%v, %v) = %v over %d processors, shape %v", tc.k, tc.args, tc.shape, got, got.Procs(), got.GlobalShape())
		}
	}
}
