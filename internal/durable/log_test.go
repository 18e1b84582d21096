package durable_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"procdecomp/internal/durable"
	"procdecomp/internal/durable/durabletest"
)

const toyName = "toy.log"

// maxFold is a toy folder: records are "key seq", the state is the highest
// seq per key in first-seen order, and the image is one record per key — so
// a key written twice folds, the way a job's running marker or a scenario's
// older decision does.
type maxFold struct {
	order []string
	max   map[string]int
}

func newMaxFold() *maxFold { return &maxFold{max: map[string]int{}} }

func (f *maxFold) Accept(rec []byte) bool {
	key, num, ok := strings.Cut(string(rec), " ")
	seq, err := strconv.Atoi(num)
	if !ok || key == "" || err != nil {
		return false
	}
	if old, seen := f.max[key]; !seen {
		f.order = append(f.order, key)
	} else {
		seq = max(seq, old)
	}
	f.max[key] = seq
	return true
}

func (f *maxFold) Image() ([]byte, error) {
	var buf bytes.Buffer
	for _, key := range f.order {
		fmt.Fprintf(&buf, "%s %d\n", key, f.max[key])
	}
	return buf.Bytes(), nil
}

// record is append i of a sequential workload: three keys in rotation, so
// every key is rewritten and every threshold fold has something to drop.
func record(i int) []byte { return fmt.Appendf(nil, "k%d %d", i%3, i) }

// foldOf is the state a log holding seed plus appends 1..n must recover to.
func foldOf(seed string, n int) map[string]int {
	f := newMaxFold()
	for _, line := range strings.Split(strings.TrimSuffix(seed, "\n"), "\n") {
		if line != "" {
			f.Accept([]byte(line))
		}
	}
	for i := 1; i <= n; i++ {
		f.Accept(record(i))
	}
	return f.max
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	return raw
}

func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// More appenders in flight than the channel holds, with a fold after every
// batch: the writer must keep draining whatever Append holds while it
// enqueues. The watchdog turns a hang into a failure that says where it hung.
func TestAppendAndCompactionDoNotDeadlock(t *testing.T) {
	dir := t.TempDir()
	l, _, err := durable.Open(durable.OS{}, dir, toyName, durable.Options{CompactEvery: 1}, newMaxFold)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("seed 0")); err != nil {
		t.Fatal(err)
	}
	const writers, each = 1500, 20
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				if err := l.Append(fmt.Appendf(nil, "w%d %d", w, i)); err != nil {
					t.Errorf("writer %d append %d: %v", w, i, err)
					return
				}
				completed.Add(1)
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		l.Close()
		close(finished)
	}()
	tick := time.NewTicker(5 * time.Second)
	defer tick.Stop()
	for last := int64(-1); ; {
		select {
		case <-finished:
			_, f, err := reopen(t, dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < writers; w++ {
				if got := f.max[fmt.Sprintf("w%d", w)]; got != each {
					t.Fatalf("writer %d recovered at %d, want %d", w, got, each)
				}
			}
			return
		case <-tick.C:
			now := completed.Load()
			if now == last {
				t.Fatalf("no append completed for 5 s: stuck at %d/%d", now, writers*each)
			}
			last = now
		}
	}
}

// reopen sweeps and opens dir's toy log on the real file system, closes it
// again, and returns the bytes it left plus the recovered folder.
func reopen(t *testing.T, dir string, onCompact func(string)) ([]byte, *maxFold, error) {
	t.Helper()
	durable.SweepTemps(durable.OS{}, dir)
	l, f, err := durable.Open(durable.OS{}, dir, toyName, durable.Options{OnCompact: onCompact}, newMaxFold)
	if err != nil {
		return nil, nil, err
	}
	l.Close()
	return readFile(t, filepath.Join(dir, toyName)), f, nil
}

// A write that lands short on a disk that then recovers must stop the log:
// were the next batch appended behind the partial line, it would be fsynced,
// acknowledged, and then quarantined with the torn tail at the next open.
// Faulting every write of the workload in turn also covers a fold's temp-file
// write, whose failure must fail no append at all.
func TestLogFailStopsAfterShortWrite(t *testing.T) {
	const appends = 12
	workload := func(fs durable.FS, dir string) (acked, fails int) {
		l, _, err := durable.Open(fs, dir, toyName,
			durable.Options{CompactEvery: 4, OnFail: func(error) { fails++ }}, newMaxFold)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		for i := 1; i <= appends; i++ {
			err := l.Append(record(i))
			switch {
			case err == nil && acked == i-1:
				acked = i
			case err == nil:
				t.Errorf("append %d acknowledged after append %d failed", i, acked+1)
			case !errors.Is(err, durabletest.ErrDown):
				t.Errorf("append %d: error %v does not name the cause", i, err)
			}
		}
		return acked, fails
	}
	clean := durabletest.New(0, durabletest.Refuse)
	if acked, fails := workload(clean, t.TempDir()); acked != appends || fails != 0 {
		t.Fatalf("un-faulted run acknowledged %d/%d with %d failures", acked, appends, fails)
	}
	stopped := 0
	for k, kind := range clean.Kinds() {
		if kind != "write" {
			continue
		}
		dir := t.TempDir()
		acked, fails := workload(durabletest.New(k+1, durabletest.HalfOnce), dir)
		if want := map[bool]int{true: 0, false: 1}[acked == appends]; fails != want {
			t.Errorf("write %d: OnFail ran %d times with %d/%d acknowledged, want %d", k+1, fails, acked, appends, want)
		}
		if acked < appends {
			stopped++
		}
		_, f, err := reopen(t, dir, nil)
		if err != nil {
			t.Fatalf("write %d: reopen: %v", k+1, err)
		}
		if want := foldOf("", acked); !reflect.DeepEqual(f.max, want) {
			t.Errorf("write %d: recovered %v, want exactly the %d acknowledged appends %v", k+1, f.max, acked, want)
		}
	}
	if stopped != appends {
		t.Errorf("%d faulted writes stopped the log, want one per append (%d)", stopped, appends)
	}
}

// The crash-point sweep: a log opened over a foldable prefix and a torn tail,
// then appended to across two threshold folds, is killed at every mutating
// operation in every way a kill can cut it. Whatever the cut, reopening must
// recover every acknowledged append (and at most the one in flight), leave at
// most one quarantined tail and no temp file, and a second reopen must change
// nothing.
func TestLogCrashPointSweep(t *testing.T) {
	const (
		seed    = "k0 -2\nk0 -1\nk1 -1\n"
		torn    = "k2 -"
		appends = 10
	)
	workload := func(fs durable.FS) (dir string, acked int) {
		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, toyName), []byte(seed+torn), 0o644); err != nil {
			t.Fatal(err)
		}
		durable.SweepTemps(fs, dir)
		l, _, err := durable.Open(fs, dir, toyName, durable.Options{CompactEvery: 4}, newMaxFold)
		if err != nil {
			return dir, 0 // killed during open
		}
		defer l.Crash()
		for i := 1; i <= appends; i++ {
			if l.Append(record(i)) != nil {
				break
			}
			acked = i
		}
		return dir, acked
	}
	clean := durabletest.New(0, durabletest.Refuse)
	if _, acked := workload(clean); acked != appends {
		t.Fatalf("un-faulted run acknowledged %d/%d", acked, appends)
	}
	kinds := clean.Kinds()
	if n := strings.Count(strings.Join(kinds, " "), "rename"); n != 4 {
		t.Fatalf("un-faulted run renamed %d times, want 4 (tail, open fold, two threshold folds): %v", n, kinds)
	}
	points := 0
	for k, kind := range kinds {
		for _, mode := range durabletest.Modes {
			if mode == durabletest.Half && kind != "write" {
				continue
			}
			points++
			at := fmt.Sprintf("%s %s at op %d", mode, kind, k+1)
			dir, acked := workload(durabletest.New(k+1, mode))

			compactions := 0
			first, f, err := reopen(t, dir, func(string) { compactions++ })
			if err != nil {
				t.Fatalf("%s: reopen: %v", at, err)
			}
			if !reflect.DeepEqual(f.max, foldOf(seed, acked)) && !reflect.DeepEqual(f.max, foldOf(seed, acked+1)) {
				t.Errorf("%s: recovered %v after %d acknowledged appends, want %v (or one more)",
					at, f.max, acked, foldOf(seed, acked))
			}
			for _, name := range names(t, dir) {
				if strings.HasSuffix(name, ".tmp") {
					t.Errorf("%s: temp file %s survived open", at, name)
				}
			}
			quarantined := names(t, filepath.Join(dir, durable.QuarantineDir))
			if len(quarantined) > 1 || (len(quarantined) == 1 && quarantined[0] != toyName+".torn") {
				t.Errorf("%s: quarantine holds %v, want at most the one tail", at, quarantined)
			}
			compactions = 0
			second, _, err := reopen(t, dir, func(string) { compactions++ })
			if err != nil {
				t.Fatalf("%s: second reopen: %v", at, err)
			}
			if compactions != 0 || !bytes.Equal(first, second) ||
				!reflect.DeepEqual(quarantined, names(t, filepath.Join(dir, durable.QuarantineDir))) {
				t.Errorf("%s: second reopen was not a no-op (%d compactions, bytes equal: %v)",
					at, compactions, bytes.Equal(first, second))
			}
		}
	}
	t.Logf("%d crash points enumerated over %d operations", points, len(kinds))
}

// Install under the same sweep: whatever the cut, the path holds the old
// bytes or the new ones.
func TestInstallIsAtomicAtEveryCrashPoint(t *testing.T) {
	install := func(fs durable.FS) (path string, err error) {
		dir := t.TempDir()
		path = filepath.Join(dir, "blob")
		if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path, durable.Install(fs, dir, path, []byte("new bytes"))
	}
	clean := durabletest.New(0, durabletest.Refuse)
	if _, err := install(clean); err != nil {
		t.Fatal(err)
	}
	for k, kind := range clean.Kinds() {
		for _, mode := range durabletest.Modes {
			path, err := install(durabletest.New(k+1, mode))
			got := string(readFile(t, path))
			if got != "old" && got != "new bytes" {
				t.Errorf("%s %s at op %d: path holds %q", mode, kind, k+1, got)
			}
			if err == nil && got != "new bytes" {
				t.Errorf("%s %s at op %d: Install reported success over %q", mode, kind, k+1, got)
			}
		}
	}
}

// sweptFS is the real file system with a second process's boot sweep landing
// at the worst instant: after Install has written and fsynced its temp file,
// before the rename that would publish it.
type sweptFS struct {
	durable.OS
	dir string
}

func (s sweptFS) Rename(oldpath, newpath string) error {
	durable.SweepTemps(durable.OS{}, s.dir)
	return s.OS.Rename(oldpath, newpath)
}

// A sweep that steals an in-flight temp file costs that Install — a reported
// error — and nothing else: the path keeps its old bytes, no temp file is
// left behind, and the next Install goes through.
func TestInstallReportsTempStolenBySweep(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := durable.Install(sweptFS{dir: dir}, dir, path, []byte("new bytes")); err == nil {
		t.Error("Install reported success although its temp file was swept before the rename")
	}
	if got := string(readFile(t, path)); got != "old" {
		t.Errorf("path holds %q after a stolen install, want the old bytes", got)
	}
	if got := names(t, dir); len(got) != 1 {
		t.Errorf("directory holds %v after a stolen install, want only the blob", got)
	}
	if err := durable.Install(durable.OS{}, dir, path, []byte("new bytes")); err != nil {
		t.Fatalf("Install after the sweep: %v", err)
	}
	if got := string(readFile(t, path)); got != "new bytes" {
		t.Errorf("path holds %q after the retried install", got)
	}
}
