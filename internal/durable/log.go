package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// A Log is an append-only file of newline-terminated records. What the
// records mean is the caller's business, supplied as a Folder; how they reach
// disk and come back after a kill is decided here, once:
//
//   - Append returns nil only after the record's batch has been written and
//     fsynced. One writer goroutine owns the file: it drains every pending
//     record, writes them in one call, fsyncs once, then acknowledges the
//     whole batch (group commit).
//   - The log is fail-stop. After any write or fsync error the file may end
//     in a partial record, and a record appended behind it would be fused
//     into the torn tail and lost at the next open although acknowledged; so
//     the failed batch and every later Append get the error and nothing more
//     is written.
//   - Open trusts the longest prefix of whole records the Folder accepts. The
//     rest — the partial line a kill mid-append leaves, or anything after a
//     rejected record — is moved verbatim to QuarantineDir and never parsed
//     again.
//   - Compaction, at open and after every Options.CompactEvery appends,
//     replaces the file with the Folder's image of it through install. The
//     image is always folded from the bytes in the file, never from state
//     kept beside it: the fold runs on the writer between batches, so the
//     file holds exactly the acknowledged records — no record in flight, and
//     none whose caller has yet to see its acknowledgement, can be dropped. A
//     fold that fails leaves the log as it was and fails no append.
type Log struct {
	fs    FS
	dir   string
	path  string
	opt   Options
	fresh func() Folder

	// mu orders Append's enqueue against Close and Crash closing the channel.
	// The writer goroutine never takes it, so an Append blocked on a full
	// channel while holding it is always released by the writer draining.
	mu      sync.Mutex
	closed  bool
	writes  chan pending
	crashed atomic.Bool
	done    chan struct{} // closed when the writer has exited
}

// A Folder gives a log's records their meaning. A fresh one is made for every
// scan of the file.
type Folder interface {
	// Accept folds one record (without its newline) into the folder and
	// reports whether it was a valid record. The first rejected record and
	// everything after it are the torn tail.
	Accept(record []byte) bool
	// Image renders the compacted log: the shortest record sequence that
	// folds to the same state. Folding an image must reproduce it.
	Image() ([]byte, error)
}

// Options are a log's compaction threshold and observers. The observers run
// on the opening goroutine (OnCompact "open") or the writer goroutine.
type Options struct {
	// CompactEvery folds the log in place after that many appends since the
	// last fold; 0 folds only at open.
	CompactEvery int
	// OnCompact observes each compaction that replaced the file; cause is
	// "open" or "threshold".
	OnCompact func(cause string)
	// OnFsync observes each group commit's fsync latency.
	OnFsync func(time.Duration)
	// OnFail observes, once, the write or fsync error that stopped the log.
	OnFail func(error)
}

// errClosed is what Append returns after Close or Crash.
var errClosed = errors.New("durable: log closed")

type pending struct {
	line []byte
	done chan error
}

// maxBatch bounds one group commit, so a steady stream of appenders cannot
// postpone the first one's acknowledgement indefinitely.
const maxBatch = 512

// Open recovers and opens the log dir/name. In order: read the file; scan
// the valid prefix into a fresh folder; quarantine a torn tail to
// dir/quarantined/name.torn; render the folder's image and, iff it differs
// from the bytes on disk, install it (reporting a compaction); start the
// writer on the resulting descriptor. The folder is returned for the caller
// to read the recovered state from; later appends do not update it.
func Open[F Folder](fs FS, dir, name string, opt Options, fresh func() F) (*Log, F, error) {
	var none F
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, none, fmt.Errorf("durable: read %s: %w", name, err)
	}
	folder := fresh()
	if valid := scan(raw, folder); valid < len(raw) {
		qdir := filepath.Join(dir, QuarantineDir)
		if err := os.MkdirAll(qdir, 0o755); err != nil {
			return nil, none, fmt.Errorf("durable: quarantine %s tail: %w", name, err)
		}
		if err := Install(fs, dir, filepath.Join(qdir, name+".torn"), raw[valid:]); err != nil {
			return nil, none, fmt.Errorf("durable: quarantine %s tail: %w", name, err)
		}
	}
	image, err := folder.Image()
	if err != nil {
		return nil, none, fmt.Errorf("durable: fold %s: %w", name, err)
	}
	var f File
	if !bytes.Equal(image, raw) {
		if f, err = install(fs, dir, path, image); err == nil && opt.OnCompact != nil {
			opt.OnCompact("open")
		}
	} else {
		f, err = fs.OpenAppend(path)
	}
	if err != nil {
		return nil, none, fmt.Errorf("durable: open %s: %w", name, err)
	}
	l := &Log{fs: fs, dir: dir, path: path, opt: opt, fresh: func() Folder { return fresh() },
		// Room for a burst of appenders to enqueue without blocking one
		// another while a batch is at the disk; any size is correct.
		writes: make(chan pending, 2*maxBatch), done: make(chan struct{})}
	go l.run(f)
	return l, folder, nil
}

// scan feeds raw's newline-terminated records to f until one is missing its
// newline or is rejected, and returns the length of the accepted prefix.
func scan(raw []byte, f Folder) int {
	off := 0
	for off < len(raw) {
		nl := bytes.IndexByte(raw[off:], '\n')
		if nl < 0 || !f.Accept(raw[off:off+nl]) {
			break
		}
		off += nl + 1
	}
	return off
}

// Append makes one record (no newline inside) durable: it returns nil once
// the record and its batchmates have been fsynced, the error that stopped
// the log if one has, or a "log closed" error. The terminating newline is appended to
// record itself, so the caller must not reuse its spare capacity.
func (l *Log) Append(record []byte) error {
	p := pending{line: append(record, '\n'), done: make(chan error, 1)}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return errClosed
	}
	l.writes <- p
	l.mu.Unlock()
	return <-p.done
}

// run is the writer: the only goroutine that touches the file.
func (l *Log) run(f File) {
	defer close(l.done)
	defer func() { f.Close() }()
	var (
		dead      error // set once; every later record is refused with it
		batch     []pending
		buf       []byte
		sinceFold int
	)
	for p := range l.writes {
		batch = append(batch[:0], p)
	drain:
		for len(batch) < maxBatch {
			select {
			case q, ok := <-l.writes:
				if !ok {
					break drain
				}
				batch = append(batch, q)
			default:
				break drain
			}
		}
		if dead == nil && l.crashed.Load() {
			dead = errClosed
		}
		if dead == nil {
			buf = buf[:0]
			for _, q := range batch {
				buf = append(buf, q.line...)
			}
			if dead = l.commit(f, buf); dead != nil && l.opt.OnFail != nil {
				l.opt.OnFail(dead)
			}
		}
		for _, q := range batch {
			q.done <- dead
		}
		sinceFold += len(batch)
		if dead == nil && l.opt.CompactEvery > 0 && sinceFold >= l.opt.CompactEvery {
			sinceFold = 0
			f = l.compact(f)
		}
	}
}

// commit writes one batch and fsyncs it.
func (l *Log) commit(f File, buf []byte) error {
	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("durable: write %s: %w", l.path, err)
	}
	t0 := time.Now()
	err := f.Sync()
	if l.opt.OnFsync != nil {
		l.opt.OnFsync(time.Since(t0))
	}
	if err != nil {
		return fmt.Errorf("durable: fsync %s: %w", l.path, err)
	}
	return nil
}

// compact folds the file in place and returns the descriptor to append
// through next: the installed image's on success, f unchanged otherwise. It
// runs on the writer between batches, so every byte in the file is an
// acknowledged record. Unreadable or foreign bytes are left for the next
// open to quarantine.
func (l *Log) compact(f File) File {
	raw, err := os.ReadFile(l.path)
	if err != nil {
		return f
	}
	folder := l.fresh()
	if scan(raw, folder) < len(raw) {
		return f
	}
	image, err := folder.Image()
	if err != nil || bytes.Equal(image, raw) {
		return f
	}
	folded, err := install(l.fs, l.dir, l.path, image)
	if err != nil {
		return f
	}
	f.Close()
	if l.opt.OnCompact != nil {
		l.opt.OnCompact("threshold")
	}
	return folded
}

// Close flushes every pending append, closes the file and returns once the
// writer has exited. Further appends fail.
func (l *Log) Close() { l.stop(false) }

// Crash abandons the log the way a kill would — the seam restart-recovery
// tests cut at: batches the writer has not yet started are refused rather
// than written, and once Crash returns nothing more reaches the file.
func (l *Log) Crash() { l.stop(true) }

func (l *Log) stop(crash bool) {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		l.crashed.Store(crash)
		close(l.writes)
	}
	l.mu.Unlock()
	<-l.done
}
