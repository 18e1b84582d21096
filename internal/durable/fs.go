// Package durable is the one crash-safe storage mechanism under pdserve: an
// atomic whole-file Install and an append-only record Log, both over a small
// file-system seam.
//
// The crash model is a process kill at any instant: every byte a completed
// write call handed to the kernel survives, a write in flight may land as any
// prefix, and nothing after the kill happens. Power loss — where the kernel
// may reorder or drop writes that were never fsynced, and a rename is durable
// only after its directory is fsynced — is out of scope; the fsyncs here
// order a file's bytes before the rename that publishes them and before the
// acknowledgement that promises them, nothing more.
package durable

import (
	"os"
	"path/filepath"
	"strings"
)

const (
	// QuarantineDir is the subdirectory of a store's directory that receives
	// bytes recovery refuses to trust: a log's torn tail lands there as
	// <log name>.torn.
	QuarantineDir = "quarantined"
	// tmpSuffix ends the name of every temp file Install creates. A kill
	// between create and rename strands one; SweepTemps removes them.
	tmpSuffix = ".tmp"
)

// FS is every mutating file-system call the package makes, bar the idempotent
// MkdirAll of the quarantine directory. It exists so tests can substitute a
// file system that fails or stops at a chosen operation; production code uses
// OS. Reads go to the os package directly.
type FS interface {
	// CreateTemp is os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens path for appending, creating it if needed.
	OpenAppend(path string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
}

// File is the part of *os.File the package writes through.
type File interface {
	Name() string
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// OS is the production FS: the os package, unadorned.
type OS struct{}

func (OS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (OS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OS) Remove(path string) error { return os.Remove(path) }

// Install replaces path with data so that a kill at any instant leaves the
// old bytes or the new bytes, never a mix: the data goes to a temp file in
// dir (which must be on path's file system), is fsynced, and only then
// renamed over path. A failure leaves path untouched.
func Install(fs FS, dir, path string, data []byte) error {
	f, err := install(fs, dir, path, data)
	if err != nil {
		return err
	}
	return f.Close()
}

// install is Install returning the still-open file: after the rename its
// descriptor addresses path, positioned at the end of data — what a log's
// fold appends through next.
func install(fs FS, dir, path string, data []byte) (File, error) {
	tmp, err := fs.CreateTemp(dir, filepath.Base(path)+".*"+tmpSuffix)
	if err != nil {
		return nil, err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = fs.Rename(tmp.Name(), path)
	}
	if err != nil {
		tmp.Close()
		fs.Remove(tmp.Name())
		return nil, err
	}
	return tmp, nil
}

// SweepTemps removes the temp files a kill mid-Install stranded directly
// under dir. Call it once, before anything in dir is opened: a running log's
// fold owns a temp file of the same shape. A file that cannot be removed is
// left for the next sweep — it is never read.
func SweepTemps(fs FS, dir string) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return // no directory yet: nothing stranded
	}
	for _, e := range names {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
