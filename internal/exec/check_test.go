package exec

import (
	"strings"
	"testing"

	"procdecomp/internal/istruct"
	"procdecomp/internal/spmd"
)

// checkMatrix builds a rows×cols matrix named name whose element (i,j) is
// 10i+j wherever def(i,j) holds.
func checkMatrix(t *testing.T, name string, rows, cols int64, def func(i, j int64) bool) *istruct.Matrix {
	t.Helper()
	m, err := istruct.NewMatrix(name, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			if def(i, j) {
				if err := m.Write(i, j, float64(10*i+j)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m
}

// The one comparison, one row per way a distributed result can be wrong. Each
// failure must say which output or element it is about.
func TestCheckFailureClasses(t *testing.T) {
	interior := func(i, j int64) bool { return i != 2 || j != 3 } // (2,3) stays undefined
	ref := &Outcome{HasRet: true, Ret: ArgVal{Matrix: checkMatrix(t, "New", 3, 4, interior)}}
	outputs := []spmd.OutVar{{Name: "Old", IsArray: true}, {Name: "New", IsArray: true}}

	// perturbed is the right answer with element (3,2) moved by delta.
	perturbed := func(delta float64) *istruct.Matrix {
		m, err := istruct.NewMatrix("New", 3, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 3; i++ {
			for j := int64(1); j <= 4; j++ {
				if !interior(i, j) {
					continue
				}
				v := float64(10*i + j)
				if i == 3 && j == 2 {
					v += delta
				}
				if err := m.Write(i, j, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m
	}
	old := checkMatrix(t, "Old", 3, 4, func(i, j int64) bool { return true })

	for _, tc := range []struct {
		name    string
		outputs []spmd.OutVar
		arrays  map[string]*istruct.Matrix
		want    string // substring of the error; "" = must pass
	}{
		{"right answer", outputs, map[string]*istruct.Matrix{"Old": old, "New": perturbed(0)}, ""},
		{"output missing", outputs, map[string]*istruct.Matrix{"Old": old}, "output array New: missing"},
		{"shape differs", outputs, map[string]*istruct.Matrix{"Old": old, "New": checkMatrix(t, "New", 4, 3, interior)},
			"output array New: distributed result is 4x3, sequential result is 3x4"},
		{"defined only in the reference", outputs,
			map[string]*istruct.Matrix{"Old": old, "New": checkMatrix(t, "New", 3, 4, func(i, j int64) bool { return interior(i, j) && (i != 1 || j != 4) })},
			"element (1,4) is defined only in the sequential result"},
		{"defined only in the result", outputs,
			map[string]*istruct.Matrix{"Old": old, "New": checkMatrix(t, "New", 3, 4, func(i, j int64) bool { return true })},
			"element (2,3) is defined only in the distributed result"},
		{"value off by 2e-9", outputs, map[string]*istruct.Matrix{"Old": old, "New": perturbed(2e-9)}, "element (3,2) is"},
		{"value off by 5e-10", outputs, map[string]*istruct.Matrix{"Old": old, "New": perturbed(5e-10)}, ""},
		// The negative control LoadBalanceTable's definedness-only check
		// lacked: every element defined where it should be, one value wrong.
		{"one perturbed value", outputs, map[string]*istruct.Matrix{"Old": old, "New": perturbed(1)}, "element (3,2) is 33, sequential result is 32"},
		// The returned array is found by name even when another array output
		// follows it; were the last array taken, Old would be compared and fail.
		{"return array is not the last output", []spmd.OutVar{{Name: "New", IsArray: true}, {Name: "s"}, {Name: "Old", IsArray: true}},
			map[string]*istruct.Matrix{"Old": old, "New": perturbed(0)}, ""},
		// No output carries the returned matrix's name: the last array output is it.
		{"falls back to the last array", []spmd.OutVar{{Name: "Old", IsArray: true}, {Name: "Res", IsArray: true}, {Name: "s"}},
			map[string]*istruct.Matrix{"Old": old, "Res": perturbed(1)}, "output array Res: element (3,2)"},
		{"no array output at all", []spmd.OutVar{{Name: "s"}}, nil, "no array output"},
	} {
		err := ref.Check(tc.outputs, &SPMDOutcome{Arrays: tc.arrays})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}

	// An entry that returns a scalar, or nothing, has nothing to compare.
	for _, none := range []*Outcome{{}, {HasRet: true, Ret: ArgVal{IsScal: true, Scalar: 3}}} {
		if err := none.Check(outputs, &SPMDOutcome{}); err != nil {
			t.Errorf("nothing to compare, yet: %v", err)
		}
	}
}

// A returned vector is compared as the N×1 column a run gathers it to, found
// by its name, under the same rules: a perturbed element fails.
func TestCheckVectorReturn(t *testing.T) {
	v, _ := istruct.NewVector("v", 4)
	for i := int64(1); i <= 4; i++ {
		v.Write(i, float64(10*i+1))
	}
	ref := &Outcome{HasRet: true, Ret: ArgVal{Vector: v}}
	outputs := []spmd.OutVar{{Name: "v", IsArray: true}, {Name: "B", IsArray: true}}
	right := checkMatrix(t, "v", 4, 1, func(i, j int64) bool { return true })
	if err := ref.Check(outputs, &SPMDOutcome{Arrays: map[string]*istruct.Matrix{"v": right}}); err != nil {
		t.Errorf("right answer: %v", err)
	}
	wrong := checkMatrix(t, "v", 4, 1, func(i, j int64) bool { return i != 3 })
	wrong.Write(3, 1, 32)
	err := ref.Check(outputs, &SPMDOutcome{Arrays: map[string]*istruct.Matrix{"v": wrong}})
	if want := "output array v: element (3,1) is 32, sequential result is 31"; err == nil || err.Error() != want {
		t.Errorf("one perturbed element: %v, want %q", err, want)
	}
}

// Reference and PatternInputs agree on what an entry is fed, reject what they
// cannot feed in one wording, and the reference of Gauss-Seidel checks a real
// distributed run's gathered result.
func TestReferenceAndPatternInputs(t *testing.T) {
	info := checked(t, gsSeqSource, 2, nil)
	ins, err := PatternInputs(info, "gs_iteration")
	if err != nil {
		t.Fatal(err)
	}
	if m := ins["Old"]; len(ins) != 1 || m == nil || m.Rows() != 16 || m.Cols() != 16 {
		t.Fatalf("inputs = %v", ins)
	}
	ref, err := Reference(info, "gs_iteration")
	if err != nil {
		t.Fatal(err)
	}
	if !ref.HasRet || ref.Ret.Matrix == nil || ref.Ret.Matrix.Name() != "New" {
		t.Fatalf("reference = %+v", ref)
	}
	if err := ref.CheckMatrix(ins["Old"]); err == nil {
		t.Error("the input passed for the Gauss-Seidel result")
	}

	if _, err := PatternInputs(info, "nosuch"); err == nil || !strings.Contains(err.Error(), "no procedure nosuch") {
		t.Errorf("missing entry: %v", err)
	}
	scalar := checked(t, `proc f(x: int): int { return x; }`, 2, nil)
	for _, err := range []error{
		func() error { _, err := PatternInputs(scalar, "f"); return err }(),
		func() error { _, err := Reference(scalar, "f"); return err }(),
	} {
		if err == nil || !strings.Contains(err.Error(), "entry parameter x is not a matrix") {
			t.Errorf("scalar parameter: %v", err)
		}
	}
}

// Output listing is sorted by name — map iteration order must never leak into
// what pdrun prints or /run returns.
func TestSummarySorted(t *testing.T) {
	one := func(i, j int64) bool { return i == 1 && j == 1 }
	out := &SPMDOutcome{
		Arrays: map[string]*istruct.Matrix{
			"Zeta": checkMatrix(t, "Zeta", 2, 2, one), "Alpha": checkMatrix(t, "Alpha", 2, 3, one), "Mid": checkMatrix(t, "Mid", 2, 2, one)},
		Scalars: map[string]Value{"z": 1, "a": 2.5, "m": -3},
	}
	for i := 0; i < 20; i++ {
		arrays, scalars := out.Summary()
		if len(arrays) != 3 || arrays[0] != (ArraySummary{"Alpha", 2, 3, 1}) || arrays[1].Name != "Mid" || arrays[2].Name != "Zeta" {
			t.Fatalf("arrays = %+v", arrays)
		}
		if len(scalars) != 3 || scalars[0] != (ScalarSummary{"a", 2.5}) || scalars[1].Name != "m" || scalars[2].Name != "z" {
			t.Fatalf("scalars = %+v", scalars)
		}
	}
	if arrays, scalars := (&SPMDOutcome{}).Summary(); arrays != nil || scalars != nil {
		t.Errorf("empty outcome summarized as %v, %v", arrays, scalars)
	}
}
