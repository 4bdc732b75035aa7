package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"datasynth/internal/faultfs"
	"datasynth/internal/store"
	"datasynth/internal/table"
)

// Content-addressable dataset cache. An entry is a directory
// cacheDir/<key> holding the exported table files plus manifest.json;
// the key is the canonical schema hash (which embeds the seed and the
// schema version, see core.CanonicalHash) joined with the export
// format. The cache is sound *only because* of the engine's
// determinism contract — a dataset is a pure function of (schema
// version, canonical schema, format), byte-identical at any worker
// count — so serving cached bytes is provably indistinguishable from
// regenerating them.
//
// Integrity: the manifest records the size and SHA-256 of every file.
// An entry is validated (every hash re-checked) the first time this
// process touches it; a corrupted entry — truncated file, flipped
// bytes, missing manifest — is evicted on the spot and the lookup
// reports a miss, so the job layer regenerates instead of serving bad
// bytes. An index entry keeps its verified manifest, keeping the hash
// check off the hot hit path.
//
// Size bound: the cache keeps an in-memory index of every committed
// entry — its byte size (sum of the manifest's per-file sizes) in
// last-access order — rebuilt from the manifests on startup. When
// maxBytes > 0, each store evicts cold entries (least recently used
// first) until the total fits. Eviction drops an entry from the index
// and removes its directory in one step under the index lock, so no
// lookup ever finds the directory of an entry that is already out of
// the index. A download already streaming from an evicted entry keeps
// reading its open file, which the removal does not touch; a new
// download of it answers 404 with a hint to resubmit. The determinism
// contract makes all of this invisible to clients: an evicted entry
// regenerates to the same bytes, so a resubmit is merely slower, never
// different.
//
// How an entry becomes visible — stage, commit, the startup sweep and
// its quarantine — is internal/store's protocol, not the cache's: the
// cache is a store.Dir plus the policy above.

// manifestName is the per-entry metadata file; it is never served as a
// table.
const manifestName = "manifest.json"

// ManifestFile describes one exported table file of a cache entry.
type ManifestFile struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Manifest is the metadata of one cache entry.
type Manifest struct {
	Version       int             `json:"version"`
	SchemaVersion int             `json:"schema_version"`
	Key           string          `json:"key"`
	Graph         string          `json:"graph"`
	Seed          uint64          `json:"seed"`
	Format        string          `json:"format"`
	CanonicalSHA  string          `json:"canonical_sha256"`
	Created       time.Time       `json:"created"`
	Nodes         int64           `json:"nodes"`
	Edges         int64           `json:"edges"`
	Files         []ManifestFile  `json:"files"`
	Report        json.RawMessage `json:"report,omitempty"`
}

// File returns the manifest entry for a table file, matching either
// the exact file name or the name without its extension.
func (m *Manifest) File(name string) *ManifestFile {
	for i := range m.Files {
		f := &m.Files[i]
		if f.Name == name || strings.TrimSuffix(f.Name, filepath.Ext(f.Name)) == name {
			return f
		}
	}
	return nil
}

// totalBytes sums the manifest's per-file sizes — the entry's charge
// against the cache bound (manifest.json itself is noise and excluded).
func (m *Manifest) totalBytes() int64 {
	var n int64
	for i := range m.Files {
		n += m.Files[i].Bytes
	}
	return n
}

// cacheEntry is one committed entry in the in-memory LRU index.
type cacheEntry struct {
	key   string
	bytes int64
	// manifest is the entry's manifest once this process has verified
	// every file against it (or stored the entry); nil until then.
	manifest *Manifest
	elem     *list.Element // its place in diskCache.lru
}

// diskCache is the on-disk entry store.
type diskCache struct {
	dir      *store.Dir // all disk I/O goes through dir.FS() (OS in production)
	maxBytes int64      // 0 or negative = unbounded

	mu        sync.Mutex
	inflight  map[string]chan struct{} // keys being verified right now
	index     map[string]*cacheEntry   // committed entries, by key
	lru       *list.List               // of *cacheEntry; front = most recently used
	total     int64                    // sum of index entry bytes
	lruEvicts int64                    // entries evicted to satisfy the bound
}

func newDiskCache(root string, maxBytes int64, fsys faultfs.FS, logf func(format string, args ...any)) (*diskCache, error) {
	dir, err := store.Open(root, fsys, logf)
	if err != nil {
		return nil, err
	}
	c := &diskCache{
		dir:      dir,
		maxBytes: maxBytes,
		inflight: map[string]chan struct{}{},
		index:    map[string]*cacheEntry{},
		lru:      list.New(),
	}
	if err := c.rebuildIndex(); err != nil {
		return nil, err
	}
	return c, nil
}

// rebuildIndex is the crash-recovery sweep, run once at startup: the
// store quarantines orphaned temp directories (a store that died
// between export and commit) and every entry this predicate rejects —
// manifest missing, truncated, or naming the wrong key — and the
// intact entries seed the LRU index ordered by manifest creation time:
// with no access history to go on, oldest-created is the best stand-in
// for coldest. (The full hash check still happens lazily on first
// lookup.) If the directory already exceeds the bound (say, the daemon
// restarted with a smaller -cachemaxbytes), the excess is evicted
// immediately. Because a quarantined key is simply a cache miss, the
// next lookup regenerates it — the determinism contract guarantees
// byte-identical bytes, so recovery is invisible to clients beyond
// latency.
func (c *diskCache) rebuildIndex() error {
	var seeds []*Manifest
	err := c.dir.Recover("", func(de fs.DirEntry) bool {
		if !de.IsDir() {
			return true // the cache writes only directories; a stray file is not its debris
		}
		raw, err := c.dir.FS().ReadFile(c.dir.Path(filepath.Join(de.Name(), manifestName)))
		if err != nil {
			return false
		}
		m := new(Manifest)
		if err := json.Unmarshal(raw, m); err != nil || m.Key != de.Name() {
			return false
		}
		seeds = append(seeds, m)
		return true
	})
	if err != nil {
		return err
	}
	sort.Slice(seeds, func(a, b int) bool {
		if !seeds[a].Created.Equal(seeds[b].Created) {
			return seeds[a].Created.Before(seeds[b].Created)
		}
		return seeds[a].Key < seeds[b].Key
	})
	c.mu.Lock()
	for _, m := range seeds {
		c.addLocked(m.Key, m.totalBytes())
	}
	c.evictToFitLocked("")
	c.mu.Unlock()
	return nil
}

// addLocked indexes a new entry as the most recently used and charges
// its bytes against the bound. Caller holds c.mu.
func (c *diskCache) addLocked(key string, bytes int64) *cacheEntry {
	e := &cacheEntry{key: key, bytes: bytes}
	e.elem = c.lru.PushFront(e)
	c.index[key] = e
	c.total += bytes
	return e
}

// dropLocked removes an entry from the index and accounting. The
// caller decides what happens to the directory. Caller holds c.mu.
func (c *diskCache) dropLocked(e *cacheEntry) {
	c.lru.Remove(e.elem)
	delete(c.index, e.key)
	c.total -= e.bytes
}

// evictToFitLocked evicts least-recently-used entries until the total
// fits the bound, never touching exclude (the entry just stored — a
// single entry larger than the whole bound is admitted oversize rather
// than thrashing). Each victim leaves the index and loses its directory
// before c.mu is released, so a concurrent lookup cannot re-adopt it.
func (c *diskCache) evictToFitLocked(exclude string) {
	if c.maxBytes <= 0 {
		return
	}
	for el := c.lru.Back(); el != nil && c.total > c.maxBytes; {
		e := el.Value.(*cacheEntry)
		el = el.Prev()
		if e.key == exclude {
			continue
		}
		c.dropLocked(e)
		c.lruEvicts++
		c.dir.Remove(c.dir.Path(e.key))
	}
}

// lookup returns the manifest of a valid cache entry, or nil on miss.
// evicted reports that an entry existed but failed integrity checks
// and was removed. Validation (the full per-file re-hash) is
// singleflighted per key: concurrent lookups of the same unvalidated
// entry wait for one verifier instead of each re-hashing the files —
// the same herd-collapse discipline the job layer applies to
// generation.
func (c *diskCache) lookup(key string) (*Manifest, bool, error) {
	for {
		c.mu.Lock()
		if e := c.index[key]; e != nil && e.manifest != nil {
			c.lru.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.manifest, false, nil
		}
		if ch, busy := c.inflight[key]; busy {
			c.mu.Unlock()
			<-ch
			// The verifier finished: either the entry is verified now
			// (next iteration hits its manifest) or it was bad and
			// evicted (next iteration finds no manifest — a cheap stat).
			continue
		}
		ch := make(chan struct{})
		c.inflight[key] = ch
		epoch := c.lruEvicts
		c.mu.Unlock()

		m, evicted, err := c.verifyEntry(key)
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil && m != nil {
			e := c.index[key]
			switch {
			case e != nil:
				c.lru.MoveToFront(e.elem)
			case c.lruEvicts == epoch:
				// Index the entry if the startup scan missed it (e.g.
				// the directory appeared after this process started).
				e = c.addLocked(key, m.totalBytes())
			default:
				// An eviction ran while the files were hashed, and it
				// may have removed this very directory: a miss.
				m = nil
			}
			if e != nil {
				e.manifest = m
			}
		}
		if evicted {
			// Corrupt entry: the directory is already gone; drop any
			// index record so accounting follows.
			if e := c.index[key]; e != nil {
				c.dropLocked(e)
			}
		}
		close(ch)
		c.mu.Unlock()
		return m, evicted, err
	}
}

// verifyEntry reads and integrity-checks one entry off disk.
func (c *diskCache) verifyEntry(key string) (m *Manifest, evicted bool, err error) {
	dir := c.dir.Path(key)
	raw, err := c.dir.FS().ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	m = new(Manifest)
	if verr := c.verify(dir, raw, m, key); verr != nil {
		// Corrupted entry: evict so the caller regenerates. The removal
		// itself failing is fatal — we must never serve from a directory
		// we know is bad.
		if rerr := c.dir.Remove(dir); rerr != nil {
			return nil, false, fmt.Errorf("service: evicting corrupt cache entry %s: %w (cause: %v)", key, rerr, verr)
		}
		return nil, true, nil
	}
	return m, false, nil
}

// verify parses a manifest and re-checks every file's size and SHA-256.
func (c *diskCache) verify(dir string, raw []byte, m *Manifest, key string) error {
	if err := json.Unmarshal(raw, m); err != nil {
		return fmt.Errorf("manifest unparseable: %w", err)
	}
	if m.Key != key {
		return fmt.Errorf("manifest key %q does not match entry %q", m.Key, key)
	}
	if len(m.Files) == 0 {
		return fmt.Errorf("manifest lists no files")
	}
	for _, f := range m.Files {
		sum, n, err := hashFile(c.dir.FS(), filepath.Join(dir, f.Name))
		if err != nil {
			return fmt.Errorf("file %s: %w", f.Name, err)
		}
		if n != f.Bytes {
			return fmt.Errorf("file %s is %d bytes, manifest says %d", f.Name, n, f.Bytes)
		}
		if sum != f.SHA256 {
			return fmt.Errorf("file %s fails its checksum", f.Name)
		}
	}
	return nil
}

// store commits a freshly exported entry: the caller has already
// exported the table files into a staging directory (from dir.Stage)
// and listed them in m.Files with the digests the encoder took while
// writing them; store writes the manifest beside them and publishes
// the directory under its key with dir.Commit, so a crash or failure
// never leaves a half-entry under the key. It opens no table file: the
// manifest records what was produced, not what a read of the staged
// bytes returns, so damage between the encoder and the commit fails the
// entry's verification instead of being blessed by it, and a retry
// costs a manifest write, not a pass over the dataset. The key cannot
// be stored concurrently (singleflight), but a stale directory may
// linger under it; Commit replaces it. After the commit the entry is
// indexed most-recently-used and cold entries are evicted until the
// cache fits its bound again.
func (c *diskCache) store(key string, stageDir string, m *Manifest) (*Manifest, error) {
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := c.dir.FS().WriteFile(filepath.Join(stageDir, manifestName), raw, 0o644); err != nil {
		return nil, err
	}
	if err := c.dir.Commit(stageDir, key); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if e := c.index[key]; e != nil {
		c.dropLocked(e)
	}
	c.addLocked(key, m.totalBytes()).manifest = m
	c.evictToFitLocked(key)
	c.mu.Unlock()
	return m, nil
}

// open opens a committed entry file for streaming and marks the entry
// recently used. An eviction during the stream removes the directory
// but not the open file, which stays readable until it is closed.
func (c *diskCache) open(key, name string) (faultfs.File, error) {
	c.mu.Lock()
	if e := c.index[key]; e != nil {
		c.lru.MoveToFront(e.elem)
	}
	c.mu.Unlock()
	return c.dir.FS().Open(c.dir.Path(filepath.Join(key, name)))
}

// has reports whether key is committed in the index, without
// validating it. Submit uses this to notice that LRU eviction has
// invalidated a completed job's dataset.
func (c *diskCache) has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.index[key]
	return ok
}

// stats reports committed entry count and total bytes from the
// in-memory index — no directory scan (/v1/stats used to re-read the
// whole cache root on every call).
func (c *diskCache) stats() (entries int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index), c.total
}

// lruEvictions reports how many entries were evicted to keep the cache
// under its byte bound.
func (c *diskCache) lruEvictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lruEvicts
}

// manifestEntries lists an export's files in name order, with the
// sizes and digests its encoders reported.
func manifestEntries(stats []table.FileStat) []ManifestFile {
	files := make([]ManifestFile, len(stats))
	for i, st := range stats {
		files[i] = ManifestFile{Name: st.Name, Bytes: st.Bytes, SHA256: st.SHA256}
	}
	sort.Slice(files, func(a, b int) bool { return files[a].Name < files[b].Name })
	return files
}

// hashFile returns the hex SHA-256 and length of a file; verify
// re-reads an entry through it.
func hashFile(fsys faultfs.FS, path string) (string, int64, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}
