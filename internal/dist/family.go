package dist

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

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

// families is the one table of decomposition families: every name, rank and
// parameter count the source language, the command lines and the search
// know comes from here.
var families = [...]struct {
	name  string
	rank  int // rank of the data the family distributes; 0: any
	arity int // parameters a dist declaration gives; 0: no declaration names it
	axis  int // the dimension a cyclic or block family distributes
}{
	KindCyclicCols: {"cyclic_cols", 2, 1, 1},
	KindCyclicRows: {"cyclic_rows", 2, 1, 0},
	KindBlockCols:  {"block_cols", 2, 1, 1},
	KindBlockRows:  {"block_rows", 2, 1, 0},
	KindBlock2D:    {"block2d", 2, 2, 0},
	KindReplicated: {"all", 0, 0, 0},
	KindSingle:     {"single", 0, 0, 0},
	KindCyclicVec:  {"cyclic", 1, 1, 0},
	KindBlockVec:   {"block", 1, 1, 0},
}

func (k Kind) known() bool { return k >= 0 && int(k) < len(families) }

func (k Kind) String() string {
	if !k.known() {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return families[k].name
}

// Arity reports how many parameters the family takes: 1 for the span of a
// cyclic or block family, 2 for a block2d grid, 0 for all and single (and
// for a Kind outside the table).
func (k Kind) Arity() int {
	if !k.known() {
		return 0
	}
	return families[k].arity
}

// kinds lists every decomposition family in declaration order: the
// enumeration the round-trip tests walk to keep Parse and Kind.String
// inverses of each other.
func kinds() []Kind {
	ks := make([]Kind, len(families))
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Parse is the inverse of Kind.String: it resolves a decomposition family by
// its canonical name ("cyclic_cols", "block2d", "all", ...), so command-line
// tools can take -dist flags by name. The match is case-insensitive; an
// unknown name lists the valid ones in the error.
func Parse(s string) (Kind, error) {
	want := strings.ToLower(strings.TrimSpace(s))
	names := make([]string, len(families))
	for k, f := range families {
		if f.name == want {
			return Kind(k), nil
		}
		names[k] = f.name
	}
	sort.Strings(names)
	return 0, fmt.Errorf("dist: unknown decomposition %q (want one of %s)", s, strings.Join(names, ", "))
}

// Declared resolves the builtin a dist declaration names: exactly the name of
// a family that takes parameters. all and single are annotations (`on all`,
// `on proc(p)`), not declarations.
func Declared(builtin string) (Kind, bool) {
	for k, f := range families {
		if f.name == builtin && f.arity > 0 {
			return Kind(k), true
		}
	}
	return 0, false
}

// CheckRank reports why the family cannot distribute data of the given rank,
// or nil if it can.
func (k Kind) CheckRank(rank int) error {
	if families[k].rank == 0 || families[k].rank == rank {
		return nil
	}
	data := "matrices"
	if families[k].rank == 1 {
		data = "vectors"
	}
	return fmt.Errorf("applies to %s, not %d-dimensional data", data, rank)
}

// Check applies the parameter rule every family shares: k takes Arity
// arguments, each positive, and together they span no more than the procs
// processors of the machine (a span S covers S of them, a PR×PC grid PR·PC).
func (k Kind) Check(args []int64, procs int64) error {
	if !k.known() {
		return fmt.Errorf("unknown decomposition %v", k)
	}
	if n := families[k].arity; len(args) != n {
		return fmt.Errorf("decomposition %s expects %d argument(s), got %d", k, n, len(args))
	}
	for _, a := range args {
		if a <= 0 {
			return fmt.Errorf("decomposition %s: arguments must be positive", k)
		}
	}
	fits, span := procs >= 1, int64(1)
	for _, a := range args {
		fits = fits && a <= procs/span // a·span ≤ procs, without overflowing
		span *= a
	}
	if fits {
		return nil
	}
	spelled, strs := k.String(), make([]string, len(args))
	for i, a := range args {
		strs[i] = strconv.FormatInt(a, 10)
	}
	if len(args) > 0 {
		spelled += "(" + strings.Join(strs, ", ") + ")"
	}
	return fmt.Errorf("decomposition %s exceeds machine size %d", spelled, procs)
}

// Bind builds the decomposition `dist D = k(args...)` gives data of the given
// shape. k must take parameters, args must pass k.Check, and the shape must
// pass k.CheckRank.
func (k Kind) Bind(args, shape []int64) Dist {
	switch k {
	case KindCyclicCols, KindCyclicRows, KindCyclicVec:
		return &cyclic{newAxis(k, args[0], shape)}
	case KindBlockCols, KindBlockRows, KindBlockVec:
		return newBlock(k, args[0], shape)
	case KindBlock2D:
		return NewBlock2D(args[0], args[1], shape[0], shape[1])
	}
	panic(fmt.Sprintf("dist: no declaration binds %v", k))
}
