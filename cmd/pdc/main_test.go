package main

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"procdecomp/internal/bench"
	"procdecomp/internal/cli"
	"procdecomp/internal/golden"
	"procdecomp/internal/lang"
	"procdecomp/internal/sem"
)

func TestDefineFlag(t *testing.T) {
	var d cli.Defines
	if err := d.Set("N=64"); err != nil {
		t.Fatal(err)
	}
	if err := d.Set("S=4"); err != nil {
		t.Fatal(err)
	}
	if d["N"] != 64 || d["S"] != 4 {
		t.Errorf("vals = %v", d)
	}
	if err := d.Set("noequals"); err == nil {
		t.Error("missing '=' should fail")
	}
	if err := d.Set("N=abc"); err == nil {
		t.Error("non-integer value should fail")
	}
	if d.String() == "" {
		t.Error("String should describe the flags")
	}
}

func TestPickEntry(t *testing.T) {
	src := `
proc helper(x: int): int { return x; }
proc top() { let y = helper(3); }
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: 2})
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if got, err := pickEntry(info, ""); err != nil || got != "top" {
		t.Errorf("pickEntry = %q, %v, want top (the uncalled procedure)", got, err)
	}
	if got, err := pickEntry(info, "helper"); err != nil || got != "helper" {
		t.Errorf("explicit entry not honoured: %q, %v", got, err)
	}

	// Two procedures nothing calls and no main: the choice is the user's, and
	// the error names the candidates in sorted order (it used to be whichever
	// one map iteration reached first).
	info = check(t, `
proc beta() { }
proc alpha() { }
proc helper(x: int): int { return x; }
proc gamma() { let y = helper(3); }
`)
	for i := 0; i < 20; i++ {
		got, err := pickEntry(info, "")
		if err == nil {
			t.Fatalf("ambiguous entry resolved to %q", got)
		}
		if !strings.Contains(err.Error(), "alpha, beta, gamma") || !strings.Contains(err.Error(), "-entry") {
			t.Fatalf("err = %v, want the sorted candidates and a pointer to -entry", err)
		}
	}
	if got, err := pickEntry(info, "beta"); err != nil || got != "beta" {
		t.Errorf("explicit entry not honoured when ambiguous: %q, %v", got, err)
	}

	// A helper called only from a loop bound or an if condition is still
	// called: the entry is the procedure that calls it.
	for _, src := range []string{`
proc helper(x: int): int { return x; }
proc top() { for i = 1 to helper(3) { } }
`, `
proc helper(x: int): int { return x; }
proc top() { if helper(3) > 2 { } }
`} {
		if got, err := pickEntry(check(t, src), ""); err != nil || got != "top" {
			t.Errorf("pickEntry = %q, %v, want top for%s", got, err, src)
		}
	}

	info = check(t, `proc only() { }`)
	if got, err := pickEntry(info, ""); err != nil || got != "only" {
		t.Errorf("pickEntry = %q, %v, want the sole procedure", got, err)
	}
}

func check(t *testing.T, src string) *sem.Info {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: 2})
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	return info
}

func TestPickEntryPrefersMain(t *testing.T) {
	src := `
proc main() { }
proc other() { }
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	info, errs := sem.Check(prog, sem.Config{Procs: 2})
	if len(errs) > 0 {
		t.Fatal(errs)
	}
	if got, err := pickEntry(info, ""); err != nil || got != "main" {
		t.Errorf("pickEntry = %q, %v, want main", got, err)
	}
}

// failingReader fails with a non-EOF error after some bytes, like a pipe
// whose writer died.
type failingReader struct {
	data string
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.data == "" {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// pdc used to break out of its stdin loop on any error and compile whatever
// had arrived; a failed read is now the error the user sees.
func TestRunReturnsStdinReadError(t *testing.T) {
	broken := errors.New("pipe burst")
	var stdout, stderr bytes.Buffer
	err := run([]string{"-entry", "f"}, &failingReader{data: "proc f() { }", err: broken}, &stdout, &stderr)
	if !errors.Is(err, broken) {
		t.Fatalf("err = %v, want wrapped %v", err, broken)
	}
	if stdout.Len() != 0 {
		t.Errorf("a truncated source was compiled: %q", stdout.String())
	}
}

// pdc's stdout and exit status are pinned: testdata/golden/cli was recorded
// from the binaries of the commit before run was split from main, and every
// listed invocation must still print the same bytes.
func TestMatchesCLIGoldens(t *testing.T) {
	const dir = "../../testdata/golden/cli/"
	cases, err := os.ReadFile(dir + "cases.txt")
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, line := range strings.Split(strings.TrimSpace(string(cases)), "\n") {
		f := strings.Fields(line) // name status command args...
		if f[2] != "pdc" {
			continue
		}
		ran++
		name, wantOK, args := f[0], f[1] == "0", append([]string{"-entry", "gs_iteration", "-D", "N=16", "-procs", "4"}, f[3:]...)
		var stdout, stderr bytes.Buffer
		err := run(args, strings.NewReader(bench.GSSource), &stdout, &stderr)
		if (err == nil) != wantOK {
			t.Errorf("%s: run returned %v (stderr %q), recorded exit status %s", name, err, stderr.String(), f[1])
		}
		golden.Hold(t, dir+name+".stdout", stdout.Bytes(), "It is what pdc "+strings.Join(args, " ")+" printed.")
	}
	if ran == 0 {
		t.Fatal("cases.txt lists no pdc invocation")
	}
}
