package exec

import (
	"fmt"
	"sort"

	"procdecomp/internal/istruct"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
	"procdecomp/internal/spmd"
)

// This file states once what it means for a distributed run to be right: the
// inputs every driver feeds an entry, the sequential outcome on those inputs,
// and the comparison of a gathered result with it. pdrun -check, pdserve,
// pdmap's search and the benchmarks all call it, so "validated" means the
// same thing wherever it is printed. The reference is a plain value with no
// cache behind it: a caller that checks many runs of one program holds it.

// tolerance bounds |distributed - sequential| on every defined element.
const tolerance = 1e-9

// PatternInputs builds the istruct.Pattern matrix of each parameter of entry,
// by name. A distributed run only reads them (RunSPMD scatters copies to the
// owners), so one set serves any number of runs.
func PatternInputs(info *sem.Info, entry string) (map[string]*istruct.Matrix, error) {
	p, ok := info.Procs[entry]
	if !ok {
		return nil, fmt.Errorf("exec: no procedure %s", entry)
	}
	ins := make(map[string]*istruct.Matrix, len(p.Params))
	for _, prm := range p.Params {
		if prm.Type.Base != lang.TMatrix {
			return nil, fmt.Errorf("exec: entry parameter %s is not a matrix; use consts for scalars", prm.Name)
		}
		m, err := istruct.Pattern(prm.Name, prm.Type.Dims[0], prm.Type.Dims[1])
		if err != nil {
			return nil, err
		}
		ins[prm.Name] = m
	}
	return ins, nil
}

// Reference runs the sequential interpreter on entry's pattern inputs — a
// set of its own, since an entry may write its parameters — and returns the
// outcome every distributed run of the program must reproduce.
func Reference(info *sem.Info, entry string) (*Outcome, error) {
	ins, err := PatternInputs(info, entry)
	if err != nil {
		return nil, err
	}
	params := info.Procs[entry].Params
	args := make([]ArgVal, len(params))
	for i, prm := range params {
		args[i] = ArgVal{Matrix: ins[prm.Name]}
	}
	ref, err := RunSequential(info, entry, args)
	if err != nil {
		return nil, fmt.Errorf("sequential reference failed: %w", err)
	}
	return ref, nil
}

// Check compares a distributed run with the reference outcome. The returned
// array is identified among the program's outputs by the name of the array
// the sequential interpreter returned, falling back to the last array output
// (the return value is emitted last): matching by shape alone could silently
// compare against a different, same-shaped output. An entry that returns no
// array has nothing to compare.
func (ref *Outcome) Check(outputs []spmd.OutVar, out *SPMDOutcome) error {
	want := ref.Returned()
	if want == nil {
		return nil
	}
	name := ""
	for _, o := range outputs {
		if !o.IsArray {
			continue
		}
		name = o.Name
		if o.Name == want.Name() {
			break
		}
	}
	if name == "" {
		return fmt.Errorf("the entry returns an array but the compiled program has no array output")
	}
	if err := ref.CheckMatrix(out.Arrays[name]); err != nil {
		return fmt.Errorf("output array %s: %w", name, err)
	}
	return nil
}

// CheckMatrix compares one gathered matrix with the array the reference
// returned: same shape, the same elements defined, and every defined value
// within tolerance. It is Check for a result that does not come with a
// program's output list (the hand-written wavefront).
func (ref *Outcome) CheckMatrix(got *istruct.Matrix) error {
	want := ref.Returned()
	if want == nil {
		return nil
	}
	if got == nil {
		return fmt.Errorf("missing from the distributed result")
	}
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("distributed result is %dx%d, sequential result is %dx%d",
			got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i := int64(1); i <= want.Rows(); i++ {
		for j := int64(1); j <= want.Cols(); j++ {
			dw, dg := want.Defined(i, j), got.Defined(i, j)
			switch {
			case dw && !dg:
				return fmt.Errorf("element (%d,%d) is defined only in the sequential result", i, j)
			case dg && !dw:
				return fmt.Errorf("element (%d,%d) is defined only in the distributed result", i, j)
			case !dw:
				continue
			}
			vw, _ := want.Read(i, j) // both defined: Read cannot fail
			vg, _ := got.Read(i, j)
			if d := vw - vg; d > tolerance || d < -tolerance {
				return fmt.Errorf("element (%d,%d) is %g, sequential result is %g", i, j, vg, vw)
			}
		}
	}
	return nil
}

// Returned is the array the reference returned as a distributed run gathers
// it (a vector is an N×1 matrix), or nil: what Check compares.
func (ref *Outcome) Returned() *istruct.Matrix {
	v := ref.Ret.Vector
	if !ref.HasRet || v == nil {
		return ref.Ret.Matrix
	}
	// A vector's length is positive and each cell is written once, so
	// neither call below can fail.
	m, _ := istruct.NewMatrix(v.Name(), v.Len(), 1)
	for i := int64(1); i <= v.Len(); i++ {
		if x, err := v.Read(i); err == nil {
			_ = m.Write(i, 1, x)
		}
	}
	return m
}

// ArraySummary describes one output array of a run; ScalarSummary one scalar.
type ArraySummary struct {
	Name       string
	Rows, Cols int64
	Defined    int64
}

type ScalarSummary struct {
	Name  string
	Value Value
}

// Summary lists the run's output arrays and scalars in sorted name order, so
// identical runs report identically (map iteration order is random).
func (o *SPMDOutcome) Summary() ([]ArraySummary, []ScalarSummary) {
	var arrays []ArraySummary
	for _, name := range sortedKeys(o.Arrays) {
		m := o.Arrays[name]
		var defined int64
		for i := int64(1); i <= m.Rows(); i++ {
			for j := int64(1); j <= m.Cols(); j++ {
				if m.Defined(i, j) {
					defined++
				}
			}
		}
		arrays = append(arrays, ArraySummary{Name: name, Rows: m.Rows(), Cols: m.Cols(), Defined: defined})
	}
	var scalars []ScalarSummary
	for _, name := range sortedKeys(o.Scalars) {
		scalars = append(scalars, ScalarSummary{Name: name, Value: o.Scalars[name]})
	}
	return arrays, scalars
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
