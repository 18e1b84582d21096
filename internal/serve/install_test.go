package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"procdecomp/internal/durable"
	"procdecomp/internal/durable/durabletest"
	"procdecomp/internal/obs"
)

// heldFS holds every install at its first operation, CreateTemp, until
// release is closed, and announces each one it holds on held. The journals'
// appends (OpenAppend and their writes) pass straight through. With refuse
// set before the release, the held installs fail as a killed process's
// would.
type heldFS struct {
	durable.FS
	held    chan struct{}
	release chan struct{}
	once    sync.Once
	refuse  atomic.Bool
}

// open releases every held install, once; a test defers it after the
// server's Close, so a failing test cannot leave a worker held.
func (f *heldFS) open() { f.once.Do(func() { close(f.release) }) }

func newHeldFS() *heldFS {
	return &heldFS{FS: durable.OS{}, held: make(chan struct{}, 8), release: make(chan struct{})}
}

func (f *heldFS) CreateTemp(dir, pattern string) (durable.File, error) {
	f.held <- struct{}{}
	<-f.release
	if f.refuse.Load() {
		return nil, durabletest.ErrDown
	}
	return f.FS.CreateTemp(dir, pattern)
}

// within fails the test unless ch yields within a generous bound.
func within[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// serveAsync drives one request through the handler on its own goroutine,
// so a handler that blocks fails the test instead of hanging it.
func serveAsync(h http.Handler, method, path, body string) <-chan *httptest.ResponseRecorder {
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
		out <- w
	}()
	return out
}

// staged counts the cache's staged responses.
func staged(c *DiskCache) int {
	c.lmu.Lock()
	defer c.lmu.Unlock()
	return len(c.stage)
}

// entryFiles lists the installed entries in a cache directory.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+cacheExt))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// A synchronous reply does not wait for its cache install: with the install
// held at its first operation, the reply has already arrived, and a repeat
// request is answered from the staged bytes as a hit. The install still
// lands before Shutdown returns, and a fresh server reads it back.
func TestSyncReplyPrecedesInstall(t *testing.T) {
	dir := t.TempDir()
	fs := newHeldFS()
	s, err := newServer(Config{CacheDir: dir, Workers: 1}, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer fs.open()
	h := s.Handler()

	first := within(t, serveAsync(h, "POST", "/run", gsRun), "the reply while its install is held")
	within(t, fs.held, "the install to start")
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request: status %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	repeat := within(t, serveAsync(h, "POST", "/run", gsRun), "the repeat's reply")
	if repeat.Header().Get("X-Cache") != "hit" || !bytes.Equal(repeat.Body.Bytes(), first.Body.Bytes()) {
		t.Fatalf("repeat during the install: X-Cache %q, bytes identical: %v",
			repeat.Header().Get("X-Cache"), bytes.Equal(repeat.Body.Bytes(), first.Body.Bytes()))
	}
	if n := staged(s.cache); n != 1 {
		t.Errorf("%d staged responses during the install, want 1", n)
	}
	if files := entryFiles(t, dir); len(files) != 0 {
		t.Errorf("entry installed while its install is held: %v", files)
	}
	// Mid-install the worker is still busy, so only the lookup identity is
	// checked here; VerifyMetrics runs in full after Shutdown.
	var scrape bytes.Buffer
	if err := s.WriteMetrics(&scrape); err != nil {
		t.Fatal(err)
	}
	sc, err := obs.ParsePrometheus(&scrape)
	if err != nil {
		t.Fatal(err)
	}
	op := func(o string) float64 { return sc.Sum("pdserve_cache_ops_total", map[string]string{"op": o}) }
	if lookups := sc.Sum("pdserve_cache_lookups_total", nil); lookups != 2 || op("hit") != 1 || op("miss") != 1 {
		t.Errorf("during the install: %v lookups, %v hits, %v misses; want 2 = 1 + 1", lookups, op("hit"), op("miss"))
	}

	stopped := make(chan error, 1)
	go func() { stopped <- s.Shutdown(context.Background()) }()
	select {
	case err := <-stopped:
		t.Fatalf("Shutdown returned (%v) while an install was held", err)
	case <-time.After(50 * time.Millisecond):
	}
	fs.open()
	if err := within(t, stopped, "Shutdown"); err != nil {
		t.Fatal(err)
	}
	if files := entryFiles(t, dir); len(files) != 1 {
		t.Fatalf("after Shutdown the cache holds %d entries, want 1", len(files))
	}
	if n := staged(s.cache); n != 0 {
		t.Errorf("%d staged responses at rest, want 0", n)
	}
	if st := s.Stats().Cache; st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Errorf("cache stats %+v, want 1 hit, 1 miss, 1 write", st)
	}
	if err := s.VerifyMetrics(); err != nil {
		t.Errorf("ledgers after Shutdown: %v", err)
	}

	b, hs := newTestServer(t, Config{CacheDir: dir, Workers: 1})
	resp, body := post(t, hs.URL+"/run", gsRun)
	if resp.Header.Get("X-Cache") != "hit" || !bytes.Equal(body, first.Body.Bytes()) {
		t.Errorf("fresh server: X-Cache %q, bytes identical: %v", resp.Header.Get("X-Cache"), bytes.Equal(body, first.Body.Bytes()))
	}
	drainAndVerify(t, b)
}

// A refused install drops its staged response and leaves nothing on disk:
// the next identical request misses and recomputes the same bytes.
func TestRefusedInstallLeavesNothingBehind(t *testing.T) {
	clean := durabletest.New(0, durabletest.Refuse)
	probe, err := newServer(Config{CacheDir: t.TempDir(), Workers: 1}, clean)
	if err != nil {
		t.Fatal(err)
	}
	boot := len(clean.Kinds())
	probe.Close()

	dir := t.TempDir()
	s, err := newServer(Config{CacheDir: dir, Workers: 1}, durabletest.New(boot+1, durabletest.Refuse))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		w := within(t, serveAsync(h, "POST", "/run", gsRun), "a reply")
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("request %d: status %d, X-Cache %q, want 200 miss", i, w.Code, w.Header().Get("X-Cache"))
		}
		bodies = append(bodies, w.Body.Bytes())
		waitFor(t, "the refused install to return", func() bool { return staged(s.cache) == 0 })
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("the recompute after a refused install served different bytes")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if files := entryFiles(t, dir); len(files) != 0 {
		t.Errorf("a refused install left entries: %v", files)
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Cache; len(q) != 0 || st.Quarantined != 0 || st.Writes != 0 || st.Misses != 2 {
		t.Errorf("quarantine holds %d files; cache stats %+v, want no quarantine, no write, 2 misses", len(q), st)
	}
	if err := s.VerifyMetrics(); err != nil {
		t.Error(err)
	}
}

// A /jobs job keeps the install before it settles: recovery reads a done
// job's bytes from the cache. With the install held, the job has been
// acknowledged but is not terminal and its stream holds no terminal event;
// once the install returns it settles, and its wall spans name the install
// between the attempt and the settle.
func TestJournaledJobInstallsBeforeItSettles(t *testing.T) {
	fs := newHeldFS()
	s, err := newServer(Config{CacheDir: t.TempDir(), Workers: 1}, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer fs.open()
	h := s.Handler()

	w := within(t, serveAsync(h, "POST", "/jobs", `{"Endpoint":"/run","Request":`+gsRun+`}`), "the 202")
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", w.Code, w.Body.Bytes())
	}
	var acc JobAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	within(t, fs.held, "the install to start")
	aj := s.lookupJob(acc.ID)
	evs, sealed, _ := aj.log.since(0)
	if aj.terminal() || sealed {
		t.Fatalf("job terminal (%v) or stream sealed (%v) before its install returned", aj.terminal(), sealed)
	}
	for _, ev := range evs {
		if ev.Terminal {
			t.Fatalf("terminal event %q before the install returned", ev.Type)
		}
	}
	if n := staged(s.cache); n != 0 {
		t.Errorf("a journaled job staged %d responses, want 0", n)
	}
	fs.open()
	waitFor(t, "the job to settle", aj.terminal)
	if files := entryFiles(t, s.cfg.CacheDir); len(files) != 1 {
		t.Errorf("settled job's cache holds %d entries, want 1", len(files))
	}
	var names []string
	for _, sp := range aj.spans.Spans() {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ", "); got != "queued, attempt 1, cache install" {
		t.Errorf("wall spans %q, want queued, attempt 1, cache install", got)
	}
	drainAndVerify(t, s)
}

// A /jobs request that finds its bytes staged is born done on them, and its
// done record is journaled before their install lands. If a kill then loses
// the install, recovery finds a done job without its entry and re-runs it,
// as it does for a quarantined entry: the job still serves the bytes the
// synchronous reply sent.
func TestBornDoneOnStagedBytesSurvivesALostInstall(t *testing.T) {
	dir := t.TempDir()
	fs := newHeldFS()
	s, err := newServer(Config{CacheDir: dir, Workers: 1}, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	defer fs.open()
	h := s.Handler()

	reply := within(t, serveAsync(h, "POST", "/run", gsRun), "the synchronous reply")
	within(t, fs.held, "the install to start")
	w := within(t, serveAsync(h, "POST", "/jobs", `{"Endpoint":"/run","Request":`+gsRun+`}`), "the 202")
	var acc JobAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if w.Code != http.StatusAccepted || acc.Status != "done" {
		t.Fatalf("POST /jobs on staged bytes: status %d, job %q, want 202 born done", w.Code, acc.Status)
	}
	s.crash()
	fs.refuse.Store(true)
	fs.open()
	waitFor(t, "the lost install to return", func() bool { return staged(s.cache) == 0 })
	if files := entryFiles(t, dir); len(files) != 0 {
		t.Fatalf("the lost install left entries: %v", files)
	}

	b, hs := newTestServer(t, Config{CacheDir: dir, Workers: 1})
	resp, body := pollJob(t, hs.URL, acc.ID)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, reply.Body.Bytes()) {
		t.Errorf("recovered job: status %d, bytes identical to the synchronous reply: %v",
			resp.StatusCode, bytes.Equal(body, reply.Body.Bytes()))
	}
	if st := b.Stats().Jobs; st.Recovered != 1 || st.Requeued != 1 {
		t.Errorf("job stats %+v, want the done job recovered and re-run", st)
	}
	drainAndVerify(t, b)
}
