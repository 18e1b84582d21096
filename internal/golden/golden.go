// Package golden holds a test's output to a file recorded earlier: the one
// way the repository's witness and golden tests compare, keep what they saw,
// and say where it departs. It also says whether the race detector
// instruments the build (RaceEnabled), the one flag a test reads to shrink or
// skip a bound the detector's slowdown breaks. It uses the standard library
// only, so any test package can import it, internal ones included. Import it
// from _test.go files only.
package golden

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
)

// T is the part of testing.TB that Hold reports through.
type T interface {
	Helper()
	Errorf(format string, args ...any)
}

// Hold holds got to the golden file at path byte for byte. If they differ, or
// the golden cannot be read, it writes got to the observed file — the
// golden's base name with ".observed" before its extension, in os.TempDir()
// — and fails t naming both files, followed by why: what may change the
// golden. When the golden and got are both JSON arrays of records with a
// "name", it also reports by name the first record that differs, each record
// the golden lacks and each it holds that got does not. There is no update
// flag: copying the observed file over the golden is the deliberate act.
func Hold(t T, path string, got []byte, why string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err == nil && bytes.Equal(got, want) {
		return
	}
	if err != nil {
		why = "The golden cannot be read: " + err.Error() + ". " + why
	}
	base := filepath.Base(path)
	ext := filepath.Ext(base)
	observed := filepath.Join(os.TempDir(), strings.TrimSuffix(base, ext)+".observed"+ext)
	if werr := os.WriteFile(observed, got, 0o644); werr != nil {
		observed += " (not written: " + werr.Error() + ")"
	}
	t.Errorf("what was observed departs from %s; it is in %s — diff the two. %s", path, observed, why)
	wantRecs, wantNames := records(want)
	gotRecs, gotNames := records(got)
	if wantRecs == nil || gotRecs == nil {
		return
	}
	differs := false
	for _, name := range gotNames {
		switch w, ok := wantRecs[name]; {
		case !ok:
			t.Errorf("%s: no record in the golden", name)
		case !differs && w != gotRecs[name]:
			differs = true
			t.Errorf("first differing record: %s\n  observed %s\n  golden   %s", name, gotRecs[name], w)
		}
	}
	for _, name := range wantNames {
		if _, ok := gotRecs[name]; !ok {
			t.Errorf("the golden records %s, which was not observed", name)
		}
	}
}

// records decodes b as a JSON array of objects and returns each in canonical
// form (keys sorted) by its "name", and the names in order; nil if b is
// anything else.
func records(b []byte) (map[string]string, []string) {
	var objs []map[string]any
	if json.Unmarshal(b, &objs) != nil {
		return nil, nil
	}
	recs := make(map[string]string, len(objs))
	names := make([]string, len(objs))
	for i, o := range objs {
		names[i], _ = o["name"].(string)
		c, _ := json.Marshal(o) // decoded JSON marshals
		recs[names[i]] = string(c)
	}
	return recs, names
}
