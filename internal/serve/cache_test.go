package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"procdecomp/internal/durable"
	"procdecomp/internal/obs"
)

// newCacheOps is a fresh registry's pdserve_cache_ops_total, the counter a
// DiskCache counts on.
func newCacheOps() obs.Counter { return newServerMetrics().cacheOps }

func TestDiskCacheRoundTrip(t *testing.T) {
	c, err := openDiskCache(durable.OS{}, t.TempDir(), 0, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("hit on an empty cache")
	}
	payload := []byte(`{"x": 1}` + "\n")
	if err := c.Put("k1", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get("k1")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	// Overwrite is atomic and last-writer-wins.
	if err := c.Put("k1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get("k1"); string(got) != "v2" {
		t.Fatalf("after overwrite Get = %q", got)
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Writes != 2 {
		t.Errorf("stats = %+v, want 2 hits, 1 miss, 2 writes", st)
	}
}

// corrupt* verify that no damaged entry is ever served: it is moved to the
// quarantine directory and the lookup reports a miss.
func TestDiskCacheQuarantinesCorruption(t *testing.T) {
	damage := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)-3] },
		"flipped-byte": func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b },
		"bad-magic":    func(b []byte) []byte { b[0] ^= 0x40; return b },
	}
	for name, f := range damage {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := openDiskCache(durable.OS{}, dir, 0, newCacheOps())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put("key", []byte("payload bytes")); err != nil {
				t.Fatal(err)
			}
			path := c.path("key")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get("key"); ok {
				t.Fatalf("served a corrupt entry: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt entry still in place")
			}
			q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
			if err != nil || len(q) != 1 {
				t.Fatalf("quarantine holds %d entries (err %v), want 1", len(q), err)
			}
			if c.Stats().Quarantined != 1 {
				t.Error("quarantine not counted")
			}
			// The slot is reusable: a fresh Put serves again.
			if err := c.Put("key", []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			if got, ok := c.Get("key"); !ok || string(got) != "recomputed" {
				t.Fatalf("after re-Put Get = %q, %v", got, ok)
			}
		})
	}
}

// A key collision on disk (an entry renamed over another key's filename)
// must not serve the wrong payload.
func TestDiskCacheRejectsWrongKey(t *testing.T) {
	dir := t.TempDir()
	c, err := openDiskCache(durable.OS{}, dir, 0, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("a", []byte("payload-a")); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(c.path("a"), c.path("b")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get("b"); ok {
		t.Fatalf("served another key's entry: %q", got)
	}
}

// A crash between temp-write and rename strands a .tmp file; restarting the
// server sweeps it before anything opens, so it is never served.
func TestDiskCacheSweepsTempFiles(t *testing.T) {
	dir := t.TempDir()
	stranded := filepath.Join(dir, "deadbeef.entry.123.tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stranded, []byte("half-written"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := os.Stat(stranded); !os.IsNotExist(err) {
		t.Error("stranded temp file survived reopen")
	}
}

// Entries must verify cleanly when walked directly — the soak's no-torn-
// entries check depends on decodeEntry rejecting anything inconsistent.
func TestDiskCacheEntriesSelfDescribe(t *testing.T) {
	dir := t.TempDir()
	c, err := openDiskCache(durable.OS{}, dir, 0, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	keys := []string{"k1", "k2", "k3"}
	for _, k := range keys {
		if err := c.Put(k, []byte("payload for "+k)); err != nil {
			t.Fatal(err)
		}
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), cacheExt) {
			continue
		}
		entries++
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		key := entryKey(t, raw)
		if c.path(key) != filepath.Join(dir, f.Name()) {
			t.Errorf("entry %s claims key %q, which hashes elsewhere", f.Name(), key)
		}
		if _, err := decodeEntry(raw, key); err != nil {
			t.Errorf("entry %s does not verify: %v", f.Name(), err)
		}
	}
	if entries != len(keys) {
		t.Errorf("%d entries on disk, want %d", entries, len(keys))
	}
}

// Concurrent writers to the same key must never corrupt the entry: the
// temp-file+rename discipline means readers racing the writers see either a
// miss, the old payload, or the new payload — always intact, never torn.
func TestDiskCacheConcurrentSameKeyWriters(t *testing.T) {
	dir := t.TempDir()
	c, err := openDiskCache(durable.OS{}, dir, 0, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	// Responses are deterministic in the key, so real writers always carry
	// the same payload; the cache's contract is last-rename-wins with no
	// torn state either way.
	payload := bytes.Repeat([]byte("deterministic-bytes."), 512)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Put("shared-key", payload); err != nil {
					t.Errorf("concurrent Put: %v", err)
					return
				}
			}
		}()
	}
	// Readers race the writers the whole time.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got, ok := c.Get("shared-key"); ok && !bytes.Equal(got, payload) {
					t.Errorf("racing Get returned torn bytes (%d of %d)", len(got), len(payload))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got, ok := c.Get("shared-key"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("final Get = %v, intact %v", ok, bytes.Equal(got, payload))
	}
	if c.Stats().Quarantined != 0 {
		t.Errorf("concurrent same-key writes quarantined %d entries", c.Stats().Quarantined)
	}
}

// A staged key is a hit from its Stage on, and stays one across its Put:
// the stage is read before the file, and a key leaves the stage only once
// its install has returned, so no lookup falls between the two. Writers
// share keys, as two workers finishing the same request do: one writer's
// Put may unstage a key another has staged, whose entry is then installed.
func TestDiskCacheStagedKeysNeverMiss(t *testing.T) {
	c, err := openDiskCache(durable.OS{}, t.TempDir(), 0, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key := fmt.Sprintf("k%d", i%8)
				payload := []byte("payload for " + key)
				c.Stage(key, payload)
				if got, ok := c.Get(key); !ok || !bytes.Equal(got, payload) {
					t.Errorf("Get(%s) after Stage = %q, %v", key, got, ok)
				}
				if err := c.Put(key, payload); err != nil {
					t.Errorf("Put(%s): %v", key, err)
				}
				if got, ok := c.Get(key); !ok || !bytes.Equal(got, payload) {
					t.Errorf("Get(%s) after Put = %q, %v", key, got, ok)
				}
			}
		}()
	}
	wg.Wait()
	if n := len(c.stage); n != 0 {
		t.Errorf("%d keys staged at rest, want 0", n)
	}
	if st := c.Stats(); st.Misses != 0 || st.Hits != 4*40*2 {
		t.Errorf("stats %+v, want %d hits and no miss", st, 4*40*2)
	}
}

// The tmp-sweep vs in-flight-write race: a second pdserve booting on the same
// directory sweeps *.tmp files (durable.SweepTemps, then the cache open) while
// the first is mid-Put. The sweep may steal the temp file out from under an
// in-flight write (a visible Put error), but it must never corrupt an
// installed entry or make a reader see torn bytes.
func TestDiskCacheSweepRaceWithInflightWrites(t *testing.T) {
	dir := t.TempDir()
	c, err := openDiskCache(durable.OS{}, dir, 0, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("sweep-race-payload."), 256)
	// The sweeper boots once per Put iteration, concurrently with that Put: an
	// unpaced sweeper can starve every Put of its temp file on a small
	// machine, which says nothing about safety.
	tick := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range tick {
			// A concurrent boot, as newServer does it: remove every .tmp in
			// sight, then open the cache over what is left.
			durable.SweepTemps(durable.OS{}, dir)
			if _, err := openDiskCache(durable.OS{}, dir, 0, newCacheOps()); err != nil {
				t.Errorf("concurrent open: %v", err)
			}
		}
	}()
	var failed, installed int
	for i := 0; i < 300; i++ {
		tick <- struct{}{}
		key := fmt.Sprintf("key-%d", i%7)
		if err := c.Put(key, payload); err != nil {
			failed++ // the sweeper stole the tmp mid-write: reported, not silent
			continue
		}
		installed++
		if got, ok := c.Get(key); ok && !bytes.Equal(got, payload) {
			t.Fatalf("iteration %d: Get returned torn bytes after racing sweep", i)
		}
	}
	close(tick)
	wg.Wait()
	// With the sweeper stopped the cache still works.
	if err := c.Put("after-race", payload); err != nil {
		t.Fatalf("Put after the sweeper stopped: %v", err)
	}
	if got, ok := c.Get("after-race"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get after the sweeper stopped = %v, intact %v", ok, bytes.Equal(got, payload))
	}
	t.Logf("sweep race: %d installed, %d stolen mid-write", installed, failed)
	// Every surviving entry still verifies.
	for i := 0; i < 7; i++ {
		if got, ok := c.Get(fmt.Sprintf("key-%d", i)); ok && !bytes.Equal(got, payload) {
			t.Errorf("entry key-%d corrupt after the race", i)
		}
	}
	if c.Stats().Quarantined != 0 {
		t.Errorf("sweep race quarantined %d entries — something served torn bytes", c.Stats().Quarantined)
	}
}

// A bounded cache evicts the coldest entries by logical access time — never
// the entry a Put just installed — and its byte ledger stays equal to the
// surviving files' footprint.
func TestDiskCacheEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 100)
	entrySize := int64(len(encodeEntry("k0", payload))) // equal-length keys → equal sizes
	c, err := openDiskCache(durable.OS{}, dir, 3*entrySize, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"k0", "k1", "k2"} {
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 0 || st.Bytes != 3*entrySize {
		t.Fatalf("within budget: %+v", st)
	}
	// Touch k0 so k1 becomes the coldest, then overflow with k3.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing before overflow")
	}
	if err := c.Put("k3", payload); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("k1"); ok {
		t.Error("coldest entry k1 survived the sweep")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s evicted, want only k1", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Bytes != 3*entrySize {
		t.Errorf("after overflow: %+v, want 1 eviction, %d bytes", st, 3*entrySize)
	}
	// The ledger matches the directory.
	var disk int64
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f.Name(), cacheExt) {
			info, _ := f.Info()
			disk += info.Size()
		}
	}
	if disk != st.Bytes {
		t.Errorf("ledger %d bytes, directory holds %d", st.Bytes, disk)
	}
}

// An entry larger than the whole budget is never evicted by its own Put —
// in-flight writes are not victims — but the next Put sweeps it.
func TestDiskCacheOversizeEntrySurvivesOwnSweep(t *testing.T) {
	dir := t.TempDir()
	big := bytes.Repeat([]byte("y"), 4096)
	c, err := openDiskCache(durable.OS{}, dir, 256, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("big", big); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("big"); !ok {
		t.Fatal("a Put evicted its own entry")
	}
	if err := c.Put("next", bytes.Repeat([]byte("z"), 64)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("big"); ok {
		t.Error("over-budget entry survived the next sweep")
	}
	if _, ok := c.Get("next"); !ok {
		t.Error("the sweeping Put lost its own entry")
	}
}

// Reopening an over-budget directory with a limit sweeps it deterministically
// (recency seeded in file-name order) before serving anything.
func TestDiskCacheOpenSweepsOverBudgetDir(t *testing.T) {
	dir := t.TempDir()
	unbounded, err := openDiskCache(durable.OS{}, dir, 0, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("w"), 200)
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		if err := unbounded.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	entrySize := int64(len(encodeEntry("a", payload)))
	c, err := openDiskCache(durable.OS{}, dir, 2*entrySize, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 2 || st.Bytes != 2*entrySize {
		t.Fatalf("open sweep: %+v, want 2 evictions, %d bytes", st, 2*entrySize)
	}
	survivors := 0
	for _, k := range keys {
		if _, ok := c.Get(k); ok {
			survivors++
		}
	}
	if survivors != 2 {
		t.Errorf("%d survivors, want 2", survivors)
	}
	// A second open of the same bytes picks the same survivors.
	c2, err := openDiskCache(durable.OS{}, dir, 2*entrySize, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		_, was := c.Get(k)
		_, is := c2.Get(k)
		if was != is {
			t.Errorf("survivor set differs across reopens at %s", k)
		}
	}
}

// A server reopened over a directory bigger than its budget counts the
// open-time evictions where it counts every other cache operation, so its
// scrape reconciles with Stats.
func TestReopenedCacheOverSmallerBudgetReconciles(t *testing.T) {
	dir := t.TempDir()
	fill, err := openDiskCache(durable.OS{}, dir, 0, newCacheOps())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := fill.Put(k, []byte("payload "+k)); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(Config{CacheDir: dir, CacheMaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats().Cache; st.Evictions != 3 || st.Bytes != 0 {
		t.Errorf("cache stats %+v, want 3 evictions and 0 bytes", st)
	}
	if err := s.VerifyMetrics(); err != nil {
		t.Error(err)
	}
}

// entryKey extracts the key line from a raw entry.
func entryKey(t *testing.T, raw []byte) string {
	t.Helper()
	lines := bytes.SplitN(raw, []byte("\n"), 4)
	if len(lines) < 4 {
		t.Fatal("entry too short to carry a key line")
	}
	return string(lines[2])
}
