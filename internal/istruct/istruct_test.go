package istruct

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestIVar(t *testing.T) {
	x := NewIVar("a")
	if x.Defined() {
		t.Error("fresh IVar should be undefined")
	}
	if _, err := x.Read(); err == nil {
		t.Error("read before write should fail")
	}
	if err := x.Write(5); err != nil {
		t.Fatal(err)
	}
	v, err := x.Read()
	if err != nil || v != 5 {
		t.Fatalf("read = %v, %v", v, err)
	}
	if err := x.Write(6); err == nil {
		t.Error("second write should fail")
	}
	var ie *Error
	if err := x.Write(6); !errors.As(err, &ie) || ie.Op != "write" {
		t.Errorf("error type: %v", err)
	}
}

func TestMatrixWriteOnce(t *testing.T) {
	m, err := NewMatrix("New", 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.Rows() != 3 || m.Cols() != 4 || m.Name() != "New" {
		t.Error("dimension accessors wrong")
	}
	if err := m.Write(2, 3, 7); err != nil {
		t.Fatal(err)
	}
	v, err := m.Read(2, 3)
	if err != nil || v != 7 {
		t.Fatalf("read = %v, %v", v, err)
	}
	// "If A[i1,i2] has already been written into, a run-time error occurs."
	if err := m.Write(2, 3, 8); err == nil {
		t.Error("redefinition should fail")
	}
	// "If A[i1,i2] is undefined, a run-time error occurs."
	if _, err := m.Read(1, 1); err == nil {
		t.Error("read of undefined element should fail")
	}
	if !m.Defined(2, 3) || m.Defined(1, 1) || m.Defined(9, 9) {
		t.Error("Defined misreports")
	}
}

func TestMatrixBounds(t *testing.T) {
	m, _ := NewMatrix("A", 2, 2)
	for _, idx := range [][2]int64{{0, 1}, {1, 0}, {3, 1}, {1, 3}, {-1, -1}} {
		if err := m.Write(idx[0], idx[1], 1); err == nil {
			t.Errorf("write%v should be out of bounds", idx)
		}
		if _, err := m.Read(idx[0], idx[1]); err == nil {
			t.Errorf("read%v should be out of bounds", idx)
		}
	}
}

func TestMatrixBadDims(t *testing.T) {
	if _, err := NewMatrix("A", 0, 3); err == nil {
		t.Error("zero rows should fail")
	}
	if _, err := NewMatrix("A", 3, -1); err == nil {
		t.Error("negative cols should fail")
	}
}

func TestErrorMessages(t *testing.T) {
	m, _ := NewMatrix("New", 2, 2)
	_, err := m.Read(1, 2)
	if !strings.Contains(err.Error(), "New[1 2]") || !strings.Contains(err.Error(), "undefined") {
		t.Errorf("unhelpful error: %v", err)
	}
	m.Write(1, 2, 0)
	err = m.Write(1, 2, 0)
	if !strings.Contains(err.Error(), "already written") {
		t.Errorf("unhelpful error: %v", err)
	}
	x := NewIVar("a")
	if _, err := x.Read(); !strings.Contains(err.Error(), "a") {
		t.Errorf("scalar error should name the variable: %v", err)
	}
}

func TestVector(t *testing.T) {
	v, err := NewVector("t", 5)
	if err != nil {
		t.Fatal(err)
	}
	if v.Len() != 5 {
		t.Error("length wrong")
	}
	if err := v.Write(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := v.Write(5, 50); err != nil {
		t.Fatal(err)
	}
	if x, err := v.Read(5); err != nil || x != 50 {
		t.Fatalf("read = %v, %v", x, err)
	}
	if err := v.Write(1, 11); err == nil {
		t.Error("redefinition should fail")
	}
	if _, err := v.Read(2); err == nil {
		t.Error("read undefined should fail")
	}
	if err := v.Write(6, 0); err == nil {
		t.Error("out of bounds write should fail")
	}
	if _, err := v.Read(0); err == nil {
		t.Error("out of bounds read should fail")
	}
	if !v.Defined(1) || v.Defined(2) || v.Defined(99) {
		t.Error("Defined misreports")
	}
	if _, err := NewVector("t", 0); err == nil {
		t.Error("zero-length vector should fail")
	}
}

func TestSnapshot(t *testing.T) {
	m, _ := NewMatrix("A", 2, 3)
	m.Write(1, 1, 1.5)
	m.Write(2, 3, 2.5)
	vals, oks := m.Snapshot()
	if !oks[0][0] || vals[0][0] != 1.5 {
		t.Error("snapshot (1,1) wrong")
	}
	if !oks[1][2] || vals[1][2] != 2.5 {
		t.Error("snapshot (2,3) wrong")
	}
	if oks[0][1] || oks[1][0] {
		t.Error("snapshot claims undefined elements are defined")
	}
}

// Property: a read returns exactly the value of the unique successful write.
func TestReadReturnsWrittenValue(t *testing.T) {
	f := func(writes []struct {
		I, J uint8
		V    float64
	}) bool {
		m, _ := NewMatrix("A", 16, 16)
		first := map[[2]int64]float64{}
		for _, w := range writes {
			i, j := int64(w.I%16)+1, int64(w.J%16)+1
			err := m.Write(i, j, w.V)
			if _, dup := first[[2]int64{i, j}]; dup {
				if err == nil {
					return false // duplicate write must fail
				}
			} else {
				if err != nil {
					return false // first write must succeed
				}
				first[[2]int64{i, j}] = w.V
			}
		}
		for k, v := range first {
			got, err := m.Read(k[0], k[1])
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Pattern is the input every driver shares: fully defined, write-once like
// any other matrix, and equal to the documented formula.
func TestPattern(t *testing.T) {
	m, err := Pattern("Old", 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 3; i++ {
		for j := int64(1); j <= 5; j++ {
			want := float64((i*31+j*17)%29) + 0.5
			if got, err := m.Read(i, j); err != nil || got != want {
				t.Errorf("Pattern[%d,%d] = %v, %v; want %v", i, j, got, err, want)
			}
		}
	}
	if err := m.Write(2, 2, 1); err == nil {
		t.Error("a Pattern element accepted a second write")
	}
	if _, err := Pattern("Old", 0, 5); err == nil {
		t.Error("Pattern accepted a zero dimension")
	}
}
