package service

import (
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
// first) until the total fits. An entry with open readers is never
// deleted mid-stream: eviction marks it dead and the directory is
// removed when the last reader releases it (evict-after-close). If the
// key is regenerated and re-committed before that happens, the store
// supersedes the pending removal so the fresh entry survives. The
// determinism contract makes all of this invisible to clients: an
// evicted entry regenerates to the same bytes, so a resubmit is merely
// slower, never different.
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
	refs     int  // open readers streaming from the entry directory
	dead     bool // evicted from the index; directory removal may be deferred

	prev, next *cacheEntry // LRU list; head = most recently used
}

// diskCache is the on-disk entry store.
type diskCache struct {
	dir      *store.Dir // all disk I/O goes through dir.FS() (OS in production)
	maxBytes int64      // 0 or negative = unbounded

	mu        sync.Mutex
	inflight  map[string]chan struct{} // keys being verified right now
	index     map[string]*cacheEntry   // committed entries, by key
	dying     map[string]*cacheEntry   // evicted with open readers; dir removal deferred
	lruHead   *cacheEntry              // most recently used
	lruTail   *cacheEntry              // coldest
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
		dying:    map[string]*cacheEntry{},
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
		e := &cacheEntry{key: m.Key, bytes: m.totalBytes()}
		c.index[e.key] = e
		c.pushFrontLocked(e)
		c.total += e.bytes
	}
	victims := c.evictToFitLocked("")
	c.mu.Unlock()
	for _, dir := range victims {
		c.dir.Remove(dir)
	}
	return nil
}

// LRU list plumbing; all callers hold c.mu.

func (c *diskCache) pushFrontLocked(e *cacheEntry) {
	e.prev = nil
	e.next = c.lruHead
	if c.lruHead != nil {
		c.lruHead.prev = e
	}
	c.lruHead = e
	if c.lruTail == nil {
		c.lruTail = e
	}
}

func (c *diskCache) unlinkLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.lruHead = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.lruTail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *diskCache) touchLocked(e *cacheEntry) {
	if c.lruHead == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// dropLocked removes an entry from the index and accounting. The
// caller decides what happens to the directory.
func (c *diskCache) dropLocked(e *cacheEntry) {
	c.unlinkLocked(e)
	delete(c.index, e.key)
	c.total -= e.bytes
	e.dead = true
}

// evictToFitLocked evicts least-recently-used entries until the total
// fits the bound, never touching exclude (the entry just stored — a
// single entry larger than the whole bound is admitted oversize rather
// than thrashing). Entries with open readers are parked in dying for
// removal at last release; the returned directories are for the caller
// to remove outside the lock.
func (c *diskCache) evictToFitLocked(exclude string) []string {
	if c.maxBytes <= 0 {
		return nil
	}
	var victims []string
	for c.total > c.maxBytes {
		e := c.lruTail
		for e != nil && e.key == exclude {
			e = e.prev
		}
		if e == nil {
			break
		}
		c.dropLocked(e)
		c.lruEvicts++
		if e.refs > 0 {
			c.dying[e.key] = e
		} else {
			victims = append(victims, c.dir.Path(e.key))
		}
	}
	return victims
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
		if _, isDying := c.dying[key]; isDying {
			// The directory on disk belongs to an evicted entry whose
			// removal waits on open readers; it must not be re-adopted.
			c.mu.Unlock()
			return nil, false, nil
		}
		if e := c.index[key]; e != nil && e.manifest != nil {
			c.touchLocked(e)
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
		c.mu.Unlock()

		m, evicted, err := c.verifyEntry(key)
		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil && m != nil {
			// Index the entry if the startup scan missed it (e.g. the
			// directory appeared after this process started).
			e := c.index[key]
			if e == nil {
				e = &cacheEntry{key: key, bytes: m.totalBytes()}
				c.index[key] = e
				c.pushFrontLocked(e)
				c.total += e.bytes
			} else {
				c.touchLocked(e)
			}
			e.manifest = m
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
// be stored concurrently (singleflight), but a stale or previously
// evicted directory may linger under it; Commit replaces it. After the
// commit the entry is indexed most-recently-used and cold entries are
// evicted until the cache fits its bound again.
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
	bytes := m.totalBytes()
	c.mu.Lock()
	// A dying entry under this key points at the directory we just
	// replaced; supersede its deferred removal or the last reader's
	// release would delete the fresh entry.
	delete(c.dying, key)
	e := c.index[key]
	if e != nil {
		c.total += bytes - e.bytes
		e.bytes = bytes
		c.touchLocked(e)
	} else {
		e = &cacheEntry{key: key, bytes: bytes}
		c.index[key] = e
		c.pushFrontLocked(e)
		c.total += bytes
	}
	e.manifest = m
	victims := c.evictToFitLocked(key)
	c.mu.Unlock()
	for _, dir := range victims {
		c.dir.Remove(dir)
	}
	return m, nil
}

// open opens a committed entry file for streaming and pins the entry
// against eviction: release (always non-nil, idempotent) drops the pin
// and performs the deferred directory removal if the entry was evicted
// while being read.
func (c *diskCache) open(key, name string) (faultfs.File, func(), error) {
	c.mu.Lock()
	e := c.index[key]
	if e != nil {
		e.refs++
		c.touchLocked(e)
	}
	c.mu.Unlock()
	f, err := c.dir.FS().Open(c.dir.Path(filepath.Join(key, name)))
	if err != nil {
		if e != nil {
			c.release(e)
		}
		return nil, func() {}, err
	}
	if e == nil {
		// Untracked directory (e.g. a dying entry still streaming to
		// other readers); the open fd is all the protection needed.
		return f, func() {}, nil
	}
	var once sync.Once
	return f, func() { once.Do(func() { c.release(e) }) }, nil
}

// release unpins an entry; the last release of a dying entry removes
// its directory (evict-after-close), unless a fresh store superseded
// it in the meantime.
func (c *diskCache) release(e *cacheEntry) {
	c.mu.Lock()
	e.refs--
	var dir string
	if e.refs == 0 && e.dead && c.dying[e.key] == e {
		delete(c.dying, e.key)
		dir = c.dir.Path(e.key)
	}
	c.mu.Unlock()
	if dir != "" {
		c.dir.Remove(dir)
	}
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
