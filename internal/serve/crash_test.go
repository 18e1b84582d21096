package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"procdecomp/internal/adapt"
	"procdecomp/internal/durable"
	"procdecomp/internal/durable/durabletest"
)

// do drives one request through the handler without a listener.
func do(t *testing.T, h http.Handler, method, path string, payload any) (int, []byte) {
	t.Helper()
	var body bytes.Buffer
	if payload != nil {
		if err := json.NewEncoder(&body).Encode(payload); err != nil {
			t.Fatal(err)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, &body))
	return w.Code, w.Body.Bytes()
}

// The server-level crash-point sweep: three durable /run jobs — two distinct,
// the third a repeat of the first so it is born done from the cache — run
// over a file system that dies at every mutating operation in turn (journal
// writes and fsyncs, the two threshold folds, cache installs), in every way a
// kill can cut that operation. After crash() and a restart on the real file
// system, every job the dead server acknowledged must reach done with the
// bytes an un-faulted run serves, nothing but at most one journal tail may be
// quarantined, and the restarted server's ledgers must reconcile.
func TestServerCrashPointSweep(t *testing.T) {
	reqA := Request{GS: true, Procs: 2, Mode: "ctr", Defines: map[string]int64{"N": 8}}
	reqB := Request{GS: true, Procs: 2, Mode: "opt3", Blk: 4, Defines: map[string]int64{"N": 8}}
	subs := []JobSubmit{{Endpoint: "/run", Request: reqA}, {Endpoint: "/run", Request: reqB}, {Endpoint: "/run", Request: reqA}}
	config := func(dir string) Config {
		return Config{CacheDir: dir, Workers: 1, QueueDepth: 8, JournalCompactEvery: 3}
	}
	// workload submits the jobs one at a time, each settled before the next,
	// so the operation sequence is the same on every run up to the fault. It
	// returns the IDs the server acknowledged ("" where it refused) and, per
	// job, the bytes it served.
	workload := func(fs durable.FS) (dir string, ids []string, bodies [][]byte) {
		dir = t.TempDir()
		ids, bodies = make([]string, len(subs)), make([][]byte, len(subs))
		s, err := newServer(config(dir), fs)
		if err != nil {
			return dir, ids, bodies // killed while booting
		}
		defer s.Close()
		defer s.crash()
		h := s.Handler()
		for i, sub := range subs {
			code, ack := do(t, h, "POST", "/jobs", sub)
			if code != http.StatusAccepted {
				continue
			}
			var acc JobAccepted
			if err := json.Unmarshal(ack, &acc); err != nil {
				t.Fatal(err)
			}
			ids[i] = acc.ID
			aj := s.lookupJob(acc.ID)
			waitFor(t, "job to settle", func() bool { return aj.terminal() })
			_, bodies[i] = do(t, h, "GET", "/jobs/"+acc.ID, nil)
		}
		return dir, ids, bodies
	}

	clean := durabletest.New(0, durabletest.Refuse)
	_, ids, golden := workload(clean)
	for i, id := range ids {
		if id == "" || len(golden[i]) == 0 {
			t.Fatalf("un-faulted run did not serve job %d", i)
		}
	}
	if !bytes.Equal(golden[0], golden[2]) {
		t.Fatal("un-faulted run served the repeated job different bytes")
	}
	kinds := clean.Kinds()
	if n := strings.Count(strings.Join(kinds, " "), "rename"); n != 4 {
		t.Fatalf("un-faulted run renamed %d times, want 4 (two cache installs, two journal folds): %v", n, kinds)
	}

	points := 0
	for k, kind := range kinds {
		for _, mode := range durabletest.Modes {
			if mode == durabletest.Half && kind != "write" {
				continue
			}
			points++
			at := fmt.Sprintf("%s %s at op %d", mode, kind, k+1)
			dir, ids, _ := workload(durabletest.New(k+1, mode))

			b, err := New(config(dir))
			if err != nil {
				t.Fatalf("%s: restart: %v", at, err)
			}
			h := b.Handler()
			for i, id := range ids {
				if id == "" {
					continue
				}
				aj := b.lookupJob(id)
				if aj == nil {
					t.Errorf("%s: acknowledged job %d (%s) lost", at, i, id)
					continue
				}
				waitFor(t, "recovered job to settle", func() bool { return aj.terminal() })
				if code, body := do(t, h, "GET", "/jobs/"+id, nil); code != http.StatusOK || !bytes.Equal(body, golden[i]) {
					t.Errorf("%s: job %d after restart: status %d, bytes identical to the un-faulted run: %v",
						at, i, code, bytes.Equal(body, golden[i]))
				}
			}
			if err := b.Shutdown(context.Background()); err != nil {
				t.Fatalf("%s: shutdown: %v", at, err)
			}
			quarantined, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil {
				t.Fatal(err)
			}
			entries := int64(0)
			for _, e := range quarantined {
				if strings.HasSuffix(e.Name(), cacheExt) {
					entries++
				}
			}
			if st := b.Stats(); len(quarantined) > 1 || entries != st.Cache.Quarantined {
				t.Errorf("%s: quarantine holds %d files (%d entries), Stats counts %d entries; want at most one file",
					at, len(quarantined), entries, st.Cache.Quarantined)
			}
			if err := b.VerifyMetrics(); err != nil {
				t.Errorf("%s: restarted server does not reconcile: %v", at, err)
			}
		}
	}
	t.Logf("%d crash points enumerated over %d operations", points, len(kinds))
}

// The synchronous sweep, beside the durable one: two distinct /run requests
// and a repeat of the first, over a file system that dies at every operation
// in turn (the job journal's open and both cache installs), in every way a
// kill can cut it. A synchronous reply goes out before its install, so the
// dead server may have sent bytes it never made durable. After crash() and a
// restart on the real file system, every reply it sent must be re-served
// byte-identically: as a hit where the install landed, as a recompute where
// it did not. No torn entry is ever served, at most one file is quarantined,
// and the restarted server's ledgers reconcile.
func TestServerSyncCrashPointSweep(t *testing.T) {
	reqA := Request{GS: true, Procs: 2, Mode: "ctr", Defines: map[string]int64{"N": 8}}
	reqB := Request{GS: true, Procs: 2, Mode: "opt3", Blk: 4, Defines: map[string]int64{"N": 8}}
	reqs := []Request{reqA, reqB, reqA}
	bodyOf := func(req Request) string {
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	config := func(dir string) Config { return Config{CacheDir: dir, Workers: 1, QueueDepth: 8} }
	// workload sends the requests one at a time and lets each install return
	// (or die) before the next, so the operation sequence is the same on every
	// run up to the fault. It returns what the server replied to each.
	workload := func(fs durable.FS) (dir string, codes []int, bodies [][]byte) {
		dir = t.TempDir()
		codes, bodies = make([]int, len(reqs)), make([][]byte, len(reqs))
		s, err := newServer(config(dir), fs)
		if err != nil {
			return dir, codes, bodies // killed while booting
		}
		defer s.Close()
		defer s.crash()
		h := s.Handler()
		for i, req := range reqs {
			w := within(t, serveAsync(h, "POST", "/run", bodyOf(req)), "a synchronous reply")
			codes[i], bodies[i] = w.Code, w.Body.Bytes()
			waitFor(t, "the install to return", func() bool { return staged(s.cache) == 0 })
		}
		return dir, codes, bodies
	}

	clean := durabletest.New(0, durabletest.Refuse)
	_, codes, golden := workload(clean)
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("un-faulted run answered request %d with %d", i, code)
		}
	}
	if !bytes.Equal(golden[0], golden[2]) {
		t.Fatal("un-faulted run served the repeated request different bytes")
	}
	kinds := clean.Kinds()
	if n := strings.Count(strings.Join(kinds, " "), "rename"); n != 2 {
		t.Fatalf("un-faulted run renamed %d times, want 2 (two cache installs): %v", n, kinds)
	}

	points, hits, recomputes := 0, 0, 0
	for k, kind := range kinds {
		for _, mode := range durabletest.Modes {
			if mode == durabletest.Half && kind != "write" {
				continue
			}
			points++
			at := fmt.Sprintf("%s %s at op %d", mode, kind, k+1)
			dir, codes, bodies := workload(durabletest.New(k+1, mode))

			b, err := New(config(dir))
			if err != nil {
				t.Fatalf("%s: restart: %v", at, err)
			}
			h := b.Handler()
			for i, code := range codes {
				if code == 0 {
					continue // never asked: the server died booting
				}
				if code != http.StatusOK || !bytes.Equal(bodies[i], golden[i]) {
					t.Errorf("%s: dead server answered request %d with %d, bytes identical to the un-faulted run: %v",
						at, i, code, bytes.Equal(bodies[i], golden[i]))
					continue
				}
				w := within(t, serveAsync(h, "POST", "/run", bodyOf(reqs[i])), "a reply after restart")
				switch cache := w.Header().Get("X-Cache"); {
				case w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), golden[i]):
					t.Errorf("%s: request %d after restart: status %d, X-Cache %q, bytes identical: %v",
						at, i, w.Code, cache, bytes.Equal(w.Body.Bytes(), golden[i]))
				case cache == "hit":
					hits++
				default:
					recomputes++
				}
			}
			if err := b.Shutdown(context.Background()); err != nil {
				t.Fatalf("%s: shutdown: %v", at, err)
			}
			quarantined, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil {
				t.Fatal(err)
			}
			if st := b.Stats(); len(quarantined) > 1 || int64(len(quarantined)) != st.Cache.Quarantined {
				t.Errorf("%s: quarantine holds %d files, Stats counts %d; want at most one",
					at, len(quarantined), st.Cache.Quarantined)
			}
			if err := b.VerifyMetrics(); err != nil {
				t.Errorf("%s: restarted server does not reconcile: %v", at, err)
			}
		}
	}
	if hits == 0 || recomputes == 0 {
		t.Errorf("re-served %d replies as hits and %d as recomputes; the sweep must reach both", hits, recomputes)
	}
	t.Logf("%d crash points enumerated over %d operations: %d replies re-served as hits, %d recomputed",
		points, len(kinds), hits, recomputes)
}

// openFS counts the files a file system has handed out and not yet seen
// closed.
type openFS struct {
	durable.FS
	open atomic.Int64
}

type countedFile struct {
	durable.File
	open *atomic.Int64
}

func (f *openFS) counted(file durable.File, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	f.open.Add(1)
	return countedFile{file, &f.open}, nil
}

func (f *openFS) CreateTemp(dir, pattern string) (durable.File, error) {
	return f.counted(f.FS.CreateTemp(dir, pattern))
}

func (f *openFS) OpenAppend(path string) (durable.File, error) {
	return f.counted(f.FS.OpenAppend(path))
}

func (c countedFile) Close() error {
	c.open.Add(-1)
	return c.File.Close()
}

// A boot that fails part-way returns an error and nothing else: whichever
// operation is refused — the job journal's open or, with that log's writer
// already running, the decision journal's — no file is left open, so no
// writer goroutine is left behind holding one.
func TestFailedBootLeavesNothingOpen(t *testing.T) {
	config := func() Config {
		return Config{CacheDir: t.TempDir(), Workers: 1, Adapt: adapt.Config{Enabled: true}}
	}
	clean := &openFS{FS: durabletest.New(0, durabletest.Refuse)}
	s, err := newServer(config(), clean)
	if err != nil {
		t.Fatal(err)
	}
	kinds := clean.FS.(*durabletest.FailFS).Kinds()
	s.Close()
	if got := strings.Join(kinds, " "); got != "open open" {
		t.Fatalf("un-faulted boot did %q, want one open per journal", got)
	}
	if n := clean.open.Load(); n != 0 {
		t.Fatalf("un-faulted boot and Close left %d files open", n)
	}
	for k := range kinds {
		fs := &openFS{FS: durabletest.New(k+1, durabletest.Refuse)}
		if s, err := newServer(config(), fs); err == nil {
			s.Close()
			t.Errorf("boot succeeded although operation %d was refused", k+1)
		}
		if n := fs.open.Load(); n != 0 {
			t.Errorf("boot refused at operation %d left %d files open", k+1, n)
		}
	}
}
