package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recorder is a T that keeps what Hold reports.
type recorder []string

func (r *recorder) Helper() {}

func (r *recorder) Errorf(format string, args ...any) { *r = append(*r, fmt.Sprintf(format, args...)) }

// hold runs Hold on got against a golden named name holding want (none if
// want is nil), with os.TempDir() a directory of the test's own, and returns
// what it reported and the observed file's bytes (nil if none was written).
func hold(t *testing.T, name string, want []byte, got string) ([]string, []byte) {
	t.Setenv("TMPDIR", t.TempDir())
	path := filepath.Join(t.TempDir(), name)
	if want != nil {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var r recorder
	Hold(&r, path, []byte(got), "Only a change that means to copies it over.")
	ext := filepath.Ext(name)
	observed, _ := os.ReadFile(filepath.Join(os.TempDir(), strings.TrimSuffix(name, ext)+".observed"+ext))
	return r, observed
}

// The mismatch path: the observed file holds what was seen, and a record that
// differs, one the golden lacks and one only the golden has are each named.
func TestHoldNamesDifferingMissingAndLeftOverRecords(t *testing.T) {
	want := "[\n" + `{"name":"a","len":1},` + "\n" + `{"name":"b","len":2},` + "\n" + `{"name":"c","len":3}` + "\n]\n"
	got := `[{"name": "a", "len": 1}, {"name": "b", "len": 5}, {"name": "d", "len": 4}]`
	errs, observed := hold(t, "w.json", []byte(want), got)
	if string(observed) != got {
		t.Errorf("observed file holds %q, want %q", observed, got)
	}
	all := strings.Join(errs, "\n")
	for _, s := range []string{
		"w.observed.json — diff the two. Only a change that means to copies it over.",
		"first differing record: b\n  observed {\"len\":5,\"name\":\"b\"}\n  golden   {\"len\":2,\"name\":\"b\"}",
		"d: no record in the golden",
		"the golden records c, which was not observed",
	} {
		if !strings.Contains(all, s) {
			t.Errorf("report lacks %q:\n%s", s, all)
		}
	}
	if len(errs) != 4 {
		t.Errorf("reported %d errors, want 4:\n%s", len(errs), all)
	}
}

// Identical bytes pass and write nothing; bytes that are not records, and a
// golden that cannot be read, fail with the observed file written.
func TestHoldOtherOutcomes(t *testing.T) {
	for _, tc := range []struct {
		want       []byte
		got, fails string // fails: a substring of the one report; "" = must pass
	}{
		{[]byte("same\n"), "same\n", ""},
		{[]byte("one\n"), "two\n", "departs from"},
		{nil, "two\n", "cannot be read"},
	} {
		errs, observed := hold(t, "cli.stdout", tc.want, tc.got)
		if tc.fails == "" && (errs != nil || observed != nil) ||
			tc.fails != "" && (len(errs) != 1 || !strings.Contains(errs[0], tc.fails) || string(observed) != tc.got) {
			t.Errorf("%q held to %q: reported %q, wrote %q", tc.got, tc.want, errs, observed)
		}
	}
}
