package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestChaosSoak is the service's endurance proof, one scenario per phase:
//
//  1. Queue overflow: workers held at a gate, a burst of identical requests
//     far past the queue depth — the overflow is shed with 429, everything
//     admitted completes once the gate opens, and the concurrent same-key
//     cache writes collapse to one valid entry.
//  2. Chaos load: hundreds of concurrent requests over a mixed body set,
//     with every worker panic seeded by the chaos knob, a slice of clients
//     disconnecting mid-request, and a slice carrying unmeetable deadlines.
//     Every surviving request resolves; repeats are byte-identical.
//  3. Kill and restart: the server is killed abruptly, one cache entry is
//     torn on disk, and a fresh server on the same cache directory must
//     serve byte-identical responses — quarantining the torn entry and
//     recomputing it rather than serving garbage.
//
// No request may hang at any point: every wait in the test is bounded.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak is not short")
	}
	cacheDir := t.TempDir()

	var hold atomic.Bool
	release := make(chan struct{})
	cfg := Config{
		Workers: 4, QueueDepth: 64,
		PanicEvery: 5, Retries: 2,
		DrainTimeout: 10 * time.Second,
		CacheDir:     cacheDir,
	}
	cfg.gate = func(j *job) {
		if hold.Load() {
			<-release
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer s.Close()

	// --- Phase 1: overflow burst -----------------------------------------
	hold.Store(true)
	const burst = 100
	burstBody := `{"GS":true,"Procs":2,"Mode":"ctr","Defines":{"N":8}}`
	statuses := make([]int, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(hs.URL+"/run", "application/json", strings.NewReader(burstBody))
			if err != nil {
				statuses[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}
	// The gate holds one job per worker and the queue holds QueueDepth, so
	// once every burst request is accounted for, the rest have been shed.
	waitFor(t, "burst admission to settle", func() bool {
		st := s.Stats()
		return st.Accepted+st.Shed >= burst
	})
	hold.Store(false)
	close(release)
	waitOn(t, &wg, "overflow burst to resolve")

	shed, ok := 0, 0
	for i, code := range statuses {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("burst request %d resolved %d, want 200 or 429", i, code)
		}
	}
	// 4 workers parked at the gate + 64 queued = at most 68 admitted.
	if shed < burst-68 {
		t.Errorf("burst shed %d of %d, want at least %d", shed, burst, burst-68)
	}
	if ok == 0 {
		t.Error("no burst request completed")
	}

	// --- Phase 2: chaos load ---------------------------------------------
	bodies := make([]string, 12)
	for i := range bodies {
		mode := []string{"ctr", "opt1", "opt2", "opt3"}[i%4]
		bodies[i] = fmt.Sprintf(`{"GS":true,"Procs":%d,"Mode":%q,"Defines":{"N":16}}`, 2+i%3*2, mode)
	}
	const load = 300
	type outcome struct {
		status int // -1: transport error (disconnects land here)
		body   []byte
	}
	outcomes := make([]outcome, load)
	var lg sync.WaitGroup
	sem := make(chan struct{}, 32)
	for i := 0; i < load; i++ {
		lg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer lg.Done()
			defer func() { <-sem }()
			body, url := bodies[i%len(bodies)], hs.URL+"/run"
			ctx := context.Background()
			switch {
			case i%11 == 3:
				// A disconnecting client: cancel while the request may well
				// be in flight. The server must simply carry on.
				c, cancel := context.WithTimeout(ctx, 2*time.Millisecond)
				defer cancel()
				ctx = c
			case i%17 == 5:
				// An unmeetable deadline: resolves 504 (or 200 if it won the
				// race to a cache hit, which bypasses the queue).
				body = strings.TrimSuffix(body, "}") + `,"TimeoutMS":1}`
			}
			req, err := http.NewRequestWithContext(ctx, "POST", url, strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				outcomes[i] = outcome{status: -1}
				return
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			outcomes[i] = outcome{status: resp.StatusCode, body: b}
		}(i)
	}
	waitOn(t, &lg, "chaos load to resolve")

	canonical := map[string][]byte{} // request body -> response bytes
	for i, o := range outcomes {
		switch {
		case o.status == -1: // disconnected client; nothing to assert
		case i%17 == 5:
			if o.status != http.StatusOK && o.status != http.StatusGatewayTimeout {
				t.Errorf("deadline request %d resolved %d", i, o.status)
			}
		case o.status != http.StatusOK:
			t.Errorf("request %d resolved %d: %.200s", i, o.status, o.body)
		default:
			key := bodies[i%len(bodies)]
			if prev, seen := canonical[key]; seen {
				if !bytes.Equal(prev, o.body) {
					t.Errorf("request %d: identical body, different response bytes", i)
				}
			} else {
				canonical[key] = o.body
			}
		}
	}
	if len(canonical) != len(bodies) {
		t.Fatalf("only %d of %d distinct requests ever succeeded", len(canonical), len(bodies))
	}
	if st := s.Stats(); st.Panics == 0 {
		t.Error("the chaos knob injected no panics — the soak proved nothing about isolation")
	}

	// --- Phase 3: kill, tear, restart ------------------------------------
	hs.Close()
	s.Close() // abrupt: no drain, simulating a kill

	// Close still settles every admitted job (canceled jobs fail typed), so
	// the scraped catalog must reconcile with ground truth even after the
	// full chaos run: sheds, panics, retries, disconnects, and deadlines.
	if err := s.VerifyMetrics(); err != nil {
		t.Errorf("metrics reconciliation after chaos soak: %v", err)
	}

	entries, err := filepath.Glob(filepath.Join(cacheDir, "*"+cacheExt))
	if err != nil || len(entries) == 0 {
		t.Fatalf("cache holds %d entries after the load (err %v)", len(entries), err)
	}
	// Tear the entry of a body phase 3 will re-request, the way a crashed
	// non-atomic writer would have.
	torn := s.cache.path(bodyKey(t, "/run", bodies[0]))
	raw, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	cfg2 := Config{Workers: 4, QueueDepth: 64, CacheDir: cacheDir}
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	hs2 := httptest.NewServer(s2.Handler())
	defer hs2.Close()
	defer s2.Close()

	for body, want := range canonical {
		resp, err := http.Post(hs2.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("after restart: status %d: %.200s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("after restart: response bytes differ for %s", body)
		}
	}
	// Drain before reading the disk and the ledgers: a synchronous reply goes
	// out before its cache install, and the drain waits for every install.
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if q := s2.Stats().Cache.Quarantined; q != 1 {
		t.Errorf("restart quarantined %d entries, want exactly the torn one", q)
	}

	// Every entry now on disk verifies cleanly: correct magic, checksum,
	// and a key that hashes to its own filename — no torn or misfiled
	// entries survive, and content addressing makes duplicates impossible.
	entries, err = filepath.Glob(filepath.Join(cacheDir, "*"+cacheExt))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range entries {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		key := entryKey(t, raw)
		if s2.cache.path(key) != path {
			t.Errorf("entry %s is misfiled for its key", filepath.Base(path))
		}
		if _, err := decodeEntry(raw, key); err != nil {
			t.Errorf("entry %s does not verify after the soak: %v", filepath.Base(path), err)
		}
	}

	// The restarted server's catalog reconciles too — including the
	// quarantine counter the torn entry just incremented.
	if err := s2.VerifyMetrics(); err != nil {
		t.Errorf("metrics reconciliation after restart: %v", err)
	}
}

// bodyKey computes the content key the server derives for a request body.
func bodyKey(t *testing.T, endpoint, body string) string {
	t.Helper()
	var req Request
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	req, err := normalize(endpoint, req)
	if err != nil {
		t.Fatal(err)
	}
	return contentKey(endpoint, req, 0, "")
}

// waitFor polls cond with a hard bound; the soak's promise is that nothing
// ever waits forever.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitOn bounds a WaitGroup wait: a hung request fails the test instead of
// hanging it.
func waitOn(t *testing.T, wg *sync.WaitGroup, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("timed out waiting for %s — a request hung", what)
	}
}
