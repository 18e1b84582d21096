// Package istruct implements I-structures: the write-once arrays of Id
// Nouveau (paper §2.1), borrowed from logic programming languages. An
// I-structure separates storage allocation from element definition — like an
// imperative array — but an element cannot be redefined once written, and
// reading an undefined element is a run-time error.
//
// The package provides write-once scalars (IVar), vectors, and matrices with
// 1-based indexing to match the paper's programs.
package istruct

import "fmt"

// Value is the element type held by I-structures.
type Value = float64

// state of one element.
type state byte

const (
	empty state = iota
	full
)

// Error is an I-structure run-time error: a read of an undefined element or
// a second write to a defined one.
type Error struct {
	Op    string // "read" or "write"
	Name  string
	Index []int64
}

func (e *Error) Error() string {
	if len(e.Index) == 0 {
		return fmt.Sprintf("istruct: %s of %s: %s", e.Op, e.Name, e.describe())
	}
	return fmt.Sprintf("istruct: %s of %s%v: %s", e.Op, e.Name, e.Index, e.describe())
}

func (e *Error) describe() string {
	if e.Op == "read" {
		return "element is undefined"
	}
	return "element already written"
}

// IVar is a write-once scalar.
type IVar struct {
	name string
	v    Value
	st   state
}

// NewIVar allocates an empty write-once scalar; name is used in errors.
func NewIVar(name string) *IVar { return &IVar{name: name} }

// Write defines the scalar's value; a second write is an error.
func (x *IVar) Write(v Value) error {
	if x.st == full {
		return &Error{Op: "write", Name: x.name}
	}
	x.v, x.st = v, full
	return nil
}

// Read returns the value; reading before the write is an error.
func (x *IVar) Read() (Value, error) {
	if x.st != full {
		return 0, &Error{Op: "read", Name: x.name}
	}
	return x.v, nil
}

// Defined reports whether the scalar has been written.
func (x *IVar) Defined() bool { return x.st == full }

// Matrix is a write-once two-dimensional array with 1-based indices, created
// by the paper's matrix(e1,e2) primitive.
type Matrix struct {
	name       string
	rows, cols int64
	vals       []Value
	sts        []state
}

// NewMatrix allocates an empty rows×cols I-structure matrix.
func NewMatrix(name string, rows, cols int64) (*Matrix, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("istruct: matrix(%d, %d): dimensions must be positive", rows, cols)
	}
	return &Matrix{
		name: name, rows: rows, cols: cols,
		vals: make([]Value, rows*cols),
		sts:  make([]state, rows*cols),
	}, nil
}

// Pattern builds the fully defined rows×cols matrix every driver (pdrun,
// pdserve, pdmap's search, the benchmarks) feeds a program as input: element
// (i,j) is ((31i + 17j) mod 29) + 0.5. One definition, so a result any of
// them reports is reproducible by hand with any other.
func Pattern(name string, rows, cols int64) (*Matrix, error) {
	m, err := NewMatrix(name, rows, cols)
	if err != nil {
		return nil, err
	}
	for i := int64(1); i <= rows; i++ {
		for j := int64(1); j <= cols; j++ {
			off := (i-1)*cols + (j - 1)
			m.vals[off], m.sts[off] = Value((i*31+j*17)%29)+0.5, full
		}
	}
	return m, nil
}

// Rows returns the row count.
func (m *Matrix) Rows() int64 { return m.rows }

// Cols returns the column count.
func (m *Matrix) Cols() int64 { return m.cols }

// Name returns the matrix's name as used in error messages.
func (m *Matrix) Name() string { return m.name }

func (m *Matrix) offset(i, j int64) (int64, error) {
	if i < 1 || i > m.rows || j < 1 || j > m.cols {
		return 0, fmt.Errorf("istruct: %s[%d,%d]: index out of bounds (%dx%d)", m.name, i, j, m.rows, m.cols)
	}
	return (i-1)*m.cols + (j - 1), nil
}

// Write stores v into element (i,j): the paper's A[i1,i2] = e. Writing a
// defined element is a run-time error.
func (m *Matrix) Write(i, j int64, v Value) error {
	off, err := m.offset(i, j)
	if err != nil {
		return err
	}
	if m.sts[off] == full {
		return &Error{Op: "write", Name: m.name, Index: []int64{i, j}}
	}
	m.vals[off], m.sts[off] = v, full
	return nil
}

// Read returns element (i,j): the paper's A[i1,i2]. Reading an undefined
// element is a run-time error.
func (m *Matrix) Read(i, j int64) (Value, error) {
	off, err := m.offset(i, j)
	if err != nil {
		return 0, err
	}
	if m.sts[off] != full {
		return 0, &Error{Op: "read", Name: m.name, Index: []int64{i, j}}
	}
	return m.vals[off], nil
}

// Defined reports whether element (i,j) has been written; out-of-bounds
// indices report false.
func (m *Matrix) Defined(i, j int64) bool {
	off, err := m.offset(i, j)
	return err == nil && m.sts[off] == full
}

// Snapshot copies the defined elements into a dense [][]Value with ok flags;
// useful for comparing sequential and distributed executions.
func (m *Matrix) Snapshot() ([][]Value, [][]bool) {
	vals := make([][]Value, m.rows)
	oks := make([][]bool, m.rows)
	for i := int64(0); i < m.rows; i++ {
		vals[i] = make([]Value, m.cols)
		oks[i] = make([]bool, m.cols)
		for j := int64(0); j < m.cols; j++ {
			off := i*m.cols + j
			vals[i][j] = m.vals[off]
			oks[i][j] = m.sts[off] == full
		}
	}
	return vals, oks
}

// Vector is a write-once one-dimensional array with 1-based indexing.
type Vector struct {
	name string
	n    int64
	vals []Value
	sts  []state
}

// NewVector allocates an empty length-n I-structure vector.
func NewVector(name string, n int64) (*Vector, error) {
	if n <= 0 {
		return nil, fmt.Errorf("istruct: vector(%d): length must be positive", n)
	}
	return &Vector{name: name, n: n, vals: make([]Value, n), sts: make([]state, n)}, nil
}

// Len returns the vector length.
func (v *Vector) Len() int64 { return v.n }

// Name returns the vector's name as used in error messages.
func (v *Vector) Name() string { return v.name }

// Write stores x into element i.
func (v *Vector) Write(i int64, x Value) error {
	if i < 1 || i > v.n {
		return fmt.Errorf("istruct: %s[%d]: index out of bounds (len %d)", v.name, i, v.n)
	}
	if v.sts[i-1] == full {
		return &Error{Op: "write", Name: v.name, Index: []int64{i}}
	}
	v.vals[i-1], v.sts[i-1] = x, full
	return nil
}

// Read returns element i.
func (v *Vector) Read(i int64) (Value, error) {
	if i < 1 || i > v.n {
		return 0, fmt.Errorf("istruct: %s[%d]: index out of bounds (len %d)", v.name, i, v.n)
	}
	if v.sts[i-1] != full {
		return 0, &Error{Op: "read", Name: v.name, Index: []int64{i}}
	}
	return v.vals[i-1], nil
}

// Defined reports whether element i has been written.
func (v *Vector) Defined(i int64) bool {
	return i >= 1 && i <= v.n && v.sts[i-1] == full
}
