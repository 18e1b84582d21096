package cli

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// errReader yields some bytes and then fails with a non-EOF error, like a
// pipe whose writer died.
type errReader struct {
	data string
	err  error
	done bool
}

func (r *errReader) Read(p []byte) (int, error) {
	if r.done {
		return 0, r.err
	}
	r.done = true
	return copy(p, r.data), nil
}

func TestReadAllReturnsReadError(t *testing.T) {
	broken := errors.New("pipe burst")
	_, err := ReadSource("", &errReader{data: "proc f", err: broken})
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want wrapped %v (a non-EOF stdin failure must not be swallowed)", err, broken)
	}
}

func TestReadAllHappyPath(t *testing.T) {
	// Longer than one Read call's worth for a small reader.
	src := strings.Repeat("const N = 8;\n", 100)
	got, err := ReadSource("", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got != src {
		t.Fatalf("got %d bytes, want %d", len(got), len(src))
	}
}

func TestReadAllKeepsBytesBeforeEOF(t *testing.T) {
	got, err := ReadSource("", io.LimitReader(strings.NewReader("abc"), 2))
	if err != nil {
		t.Fatal(err)
	}
	if got != "ab" {
		t.Fatalf("got %q, want %q", got, "ab")
	}
}

// A named file wins over stdin, and a missing one is an error.
func TestReadSourceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.idn")
	if err := os.WriteFile(path, []byte("const N = 4;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSource(path, strings.NewReader("ignored"))
	if err != nil || got != "const N = 4;\n" {
		t.Fatalf("ReadSource(file) = %q, %v", got, err)
	}
	if _, err := ReadSource(path+".missing", nil); err == nil {
		t.Fatal("missing file accepted")
	}
}
