// Package durabletest is test support for code built on internal/durable: a
// file system that fails, or stops for good, at a chosen operation. Import it
// from _test.go files only.
package durabletest

import (
	"errors"
	"sync"

	"procdecomp/internal/durable"
)

// Mode is what happens to the faulted operation.
type Mode int

const (
	// Refuse: the operation does not happen; the process is dead from here.
	Refuse Mode = iota
	// Apply: the operation happens in full; the process is dead after it.
	Apply
	// Half: a write lands only the first half of its bytes and the process
	// is dead after it. On any other operation, Half is Refuse.
	Half
	// HalfOnce: a write lands only the first half of its bytes and reports
	// the error, but the file system keeps working — a disk that was full
	// for a moment, not a kill.
	HalfOnce
)

// Modes are the three ways a kill can cut an operation.
var Modes = []Mode{Refuse, Apply, Half}

func (m Mode) String() string { return [...]string{"refuse", "apply", "half", "half-once"}[m] }

// ErrDown is what every operation returns once the simulated process is dead,
// and what a faulted operation returns.
var ErrDown = errors.New("durabletest: injected fault")

// FailFS is a durable.FS over the real file system that counts mutating
// operations — create, open-for-append, write, fsync, rename, remove — and
// faults the at-th one (1-based; 0 never faults).
//
// A dead FailFS refuses everything, which is the crash model durable states:
// a kill at any instant, every byte written before it survives, nothing
// after it happens. What a real kill also does — stop the goroutines — the
// test supplies by abandoning the store (Log.Crash, Server.crash) afterwards.
// Power-loss reordering of unsynced writes is not modeled.
type FailFS struct {
	at   int
	mode Mode

	mu    sync.Mutex
	kinds []string // the operations seen, in order
	dead  bool
}

// New returns a FailFS that faults operation at in the given mode.
func New(at int, mode Mode) *FailFS { return &FailFS{at: at, mode: mode} }

// Kinds lists the mutating operations seen so far, in order: "create",
// "open", "write", "sync", "rename" or "remove". An un-faulted run's Kinds is
// the set of crash points to enumerate.
func (f *FailFS) Kinds() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.kinds...)
}

// step counts one operation and decides its fate: whether it happens (at
// all, or for a write in half) and what it reports.
func (f *FailFS) step(kind string) (apply, half bool, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead {
		return false, false, ErrDown
	}
	f.kinds = append(f.kinds, kind)
	if len(f.kinds) != f.at {
		return true, false, nil
	}
	f.dead = f.mode != HalfOnce
	switch {
	case kind == "write" && (f.mode == Half || f.mode == HalfOnce):
		return true, true, ErrDown
	case f.mode == Apply, f.mode == HalfOnce: // HalfOnce off a write: nothing to cut short
		return true, false, nil
	}
	return false, false, ErrDown
}

func (f *FailFS) CreateTemp(dir, pattern string) (durable.File, error) {
	if apply, _, err := f.step("create"); !apply {
		return nil, err
	}
	return f.wrap(durable.OS{}.CreateTemp(dir, pattern))
}

func (f *FailFS) OpenAppend(path string) (durable.File, error) {
	if apply, _, err := f.step("open"); !apply {
		return nil, err
	}
	return f.wrap(durable.OS{}.OpenAppend(path))
}

// wrap puts a real file's writes and fsyncs under this FailFS's counter.
func (f *FailFS) wrap(file durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, fs: f}, nil
}

func (f *FailFS) Rename(oldpath, newpath string) error {
	if apply, _, err := f.step("rename"); !apply {
		return err
	}
	return durable.OS{}.Rename(oldpath, newpath)
}

func (f *FailFS) Remove(path string) error {
	if apply, _, err := f.step("remove"); !apply {
		return err
	}
	return durable.OS{}.Remove(path)
}

// failFile routes a file's writes and fsyncs through its FailFS's counter.
// Close is not a mutation and always reaches the real file.
type failFile struct {
	durable.File
	fs *FailFS
}

func (f *failFile) Write(p []byte) (int, error) {
	apply, half, err := f.fs.step("write")
	if !apply {
		return 0, err
	}
	if half {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, err
	}
	return f.File.Write(p)
}

func (f *failFile) Sync() error {
	if apply, _, err := f.fs.step("sync"); !apply {
		return err
	}
	return f.File.Sync()
}
