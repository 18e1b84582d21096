package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"procdecomp/internal/durable"
	"procdecomp/internal/obs"
)

// DiskCache is the service's persistent result store: content key -> exact
// response bytes. Entries are written with durable.Install, so a kill at any
// instant leaves the old entry or the new one, never a torn file; and every
// entry carries a checksum of its payload and echoes its key, both verified
// on read — an entry that fails either check is moved to a quarantine
// subdirectory and reported as a miss, never served.
//
// Keys are hex content hashes (contentKey); the entry's filename is a hash
// of the key, so hostile or oversized keys cannot escape the directory.
//
// The cache can be bounded (Config.CacheMaxBytes): a byte ledger tracks every
// installed entry, and each Put sweeps least-recently-used entries until the
// footprint fits the budget. Recency is a logical access clock, not the
// filesystem's atime — mount options must not change eviction order.
//
// Every counted operation is one increment of ops, the server's
// pdserve_cache_ops_total ("hit", "miss", "write", "quarantined", "evict"),
// from the open-time sweep on; Stats reads it back, so the cache keeps no
// count of its own.
//
// A response can also be staged (Stage): held in memory under its key from
// before its reply is sent until its install returns, so Get answers it as
// an ordinary hit while the install's fsyncs run after the reply.
type DiskCache struct {
	fs       durable.FS // every mutation of the directory goes through it
	dir      string
	maxBytes int64       // 0 = unbounded
	ops      obs.Counter // op: hit, miss, write, quarantined, evict
	mu       sync.Mutex  // serializes writers per cache, not readers
	// lmu guards the byte ledger and the logical-clock recency index the
	// eviction sweep orders victims by.
	lmu   sync.Mutex
	bytes int64
	clock uint64
	meta  map[string]*entryMeta // by entry file base name
	// stage holds the staged responses by key, each from its Stage until its
	// Put returns; at most one per worker.
	stage map[string][]byte
}

// entryMeta is one installed entry's ledger line.
type entryMeta struct {
	size  int64
	atime uint64 // logical access clock; unique per touch, so no victim ties
}

const (
	cacheMagic    = "pdserve-cache v1"
	quarantineDir = durable.QuarantineDir
	cacheExt      = ".entry"
)

// openDiskCache opens (creating if needed) a cache rooted at dir whose
// installed entries may occupy at most maxBytes on disk (0 = unbounded) and
// which counts its operations on ops. Existing entries are charged to the
// ledger in file-name order — a deterministic recency seed — and an
// over-budget directory is swept immediately, coldest first.
func openDiskCache(fs durable.FS, dir string, maxBytes int64, ops obs.Counter) (*DiskCache, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("serve: open cache: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: open cache: %w", err)
	}
	c := &DiskCache{fs: fs, dir: dir, maxBytes: maxBytes, ops: ops,
		meta: map[string]*entryMeta{}, stage: map[string][]byte{}}
	for _, e := range names { // ReadDir sorts by name
		if !strings.HasSuffix(e.Name(), cacheExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		c.clock++
		c.meta[e.Name()] = &entryMeta{size: info.Size(), atime: c.clock}
		c.bytes += info.Size()
	}
	c.sweep("")
	return c, nil
}

func (c *DiskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:])+cacheExt)
}

// Get returns the entry's payload, or false on a miss. A staged payload is
// a hit like an installed one. A corrupt entry — bad magic, checksum
// mismatch, or a key collision — is quarantined and reported as a miss.
func (c *DiskCache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	// The stage is read before the file: a key that has left the stage has
	// had its install return, so a lookup never falls between the two.
	c.lmu.Lock()
	staged, ok := c.stage[key]
	c.lmu.Unlock()
	if ok {
		c.ops.Inc("hit")
		return staged, true
	}
	path := c.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		c.ops.Inc("miss")
		return nil, false
	}
	payload, err := decodeEntry(raw, key)
	if err != nil {
		c.quarantineEntry(path)
		c.ops.Inc("miss")
		return nil, false
	}
	c.touch(filepath.Base(path))
	c.ops.Inc("hit")
	return payload, true
}

// touch refreshes an entry's recency; a no-op for entries already evicted or
// quarantined between the read and the bump.
func (c *DiskCache) touch(name string) {
	c.lmu.Lock()
	if m, ok := c.meta[name]; ok {
		c.clock++
		m.atime = c.clock
	}
	c.lmu.Unlock()
}

// forget drops an entry from the byte ledger (quarantined or externally
// removed).
func (c *DiskCache) forget(name string) {
	c.lmu.Lock()
	if m, ok := c.meta[name]; ok {
		c.bytes -= m.size
		delete(c.meta, name)
	}
	c.lmu.Unlock()
}

// Stage holds payload under key in memory until the key's Put returns, so
// Get answers it before its install lands. The caller must not modify
// payload afterwards. A staged payload is never durable: if the process dies
// first, the key is a miss and its request recomputes the same bytes.
func (c *DiskCache) Stage(key string, payload []byte) {
	c.lmu.Lock()
	c.stage[key] = payload
	c.lmu.Unlock()
}

// Put installs the payload under key atomically and then drops key from the
// stage, whether the install succeeded or not. A concurrent Put of the same
// key is harmless: both writers produce identical bytes (responses are
// deterministic in the key), so whichever rename lands last installs the same
// entry.
func (c *DiskCache) Put(key string, payload []byte) error {
	if c == nil {
		return nil
	}
	defer c.unstage(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	path := c.path(key)
	enc := encodeEntry(key, payload)
	if err := durable.Install(c.fs, c.dir, path, enc); err != nil {
		return fmt.Errorf("serve: cache write: %w", err)
	}
	name := filepath.Base(path)
	c.lmu.Lock()
	if old, ok := c.meta[name]; ok {
		c.bytes -= old.size
	}
	c.clock++
	c.meta[name] = &entryMeta{size: int64(len(enc)), atime: c.clock}
	c.bytes += int64(len(enc))
	c.lmu.Unlock()
	c.ops.Inc("write")
	c.sweep(name)
	return nil
}

// unstage drops key from the stage, once its install has returned.
func (c *DiskCache) unstage(key string) {
	c.lmu.Lock()
	delete(c.stage, key)
	c.lmu.Unlock()
}

// sweep evicts least-recently-used entries until the ledger fits maxBytes.
// The caller holds c.mu (or, at open, has exclusive access), so no writer
// races the removals. protect names the entry a just-finished Put installed,
// which is never a victim: an in-flight write cannot be evicted by its own
// sweep — an entry larger than the whole budget survives until the next Put.
func (c *DiskCache) sweep(protect string) {
	if c.maxBytes <= 0 {
		return
	}
	for {
		c.lmu.Lock()
		if c.bytes <= c.maxBytes {
			c.lmu.Unlock()
			return
		}
		victim := ""
		var vm *entryMeta
		for name, m := range c.meta {
			if name == protect {
				continue
			}
			if vm == nil || m.atime < vm.atime {
				victim, vm = name, m
			}
		}
		if vm == nil {
			c.lmu.Unlock()
			return
		}
		c.bytes -= vm.size
		delete(c.meta, victim)
		c.lmu.Unlock()
		c.fs.Remove(filepath.Join(c.dir, victim))
		c.ops.Inc("evict")
	}
}

// quarantineEntry moves a corrupt entry aside so it is never read again but
// remains available for inspection. Collisions in the quarantine directory
// overwrite: the bytes there are corrupt anyway.
func (c *DiskCache) quarantineEntry(path string) {
	dst := filepath.Join(c.dir, quarantineDir, filepath.Base(path))
	if err := c.fs.Rename(path, dst); err != nil {
		c.fs.Remove(path) // last resort: a corrupt entry must not be re-served
	}
	c.forget(filepath.Base(path))
	c.ops.Inc("quarantined")
}

// CacheStats is a point-in-time snapshot of the cache's operation counts and
// footprint.
type CacheStats struct {
	Hits, Misses, Writes, Quarantined, Evictions int64
	// Bytes is the installed entries' current on-disk footprint — what the
	// eviction budget is charged against.
	Bytes int64
}

func (c *DiskCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.lmu.Lock()
	bytes := c.bytes
	c.lmu.Unlock()
	n := func(op string) int64 { return int64(c.ops.Value(op)) }
	return CacheStats{
		Hits: n("hit"), Misses: n("miss"), Writes: n("write"),
		Quarantined: n("quarantined"), Evictions: n("evict"), Bytes: bytes,
	}
}

// encodeEntry frames a payload for disk:
//
//	pdserve-cache v1\n
//	<sha256 hex of payload>\n
//	<key>\n
//	<payload bytes>
func encodeEntry(key string, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	b.Grow(len(cacheMagic) + len(key) + len(payload) + 80)
	fmt.Fprintf(&b, "%s\n%s\n%s\n", cacheMagic, hex.EncodeToString(sum[:]), key)
	b.Write(payload)
	return b.Bytes()
}

func decodeEntry(raw []byte, key string) ([]byte, error) {
	rest, ok := bytes.CutPrefix(raw, []byte(cacheMagic+"\n"))
	if !ok {
		return nil, fmt.Errorf("bad magic")
	}
	sumLine, rest, ok := bytes.Cut(rest, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("truncated header")
	}
	keyLine, payload, ok := bytes.Cut(rest, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("truncated header")
	}
	if string(keyLine) != key {
		return nil, fmt.Errorf("entry keyed %q, want %q", keyLine, key)
	}
	sum := sha256.Sum256(payload)
	if string(sumLine) != hex.EncodeToString(sum[:]) {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}
