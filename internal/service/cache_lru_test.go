package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datasynth/internal/faultfs"
	"datasynth/internal/table"
)

// probeEntryBytes generates one dataset in a throwaway unbounded
// service and reports its cache charge — the per-entry size the
// bounded-cache tests calibrate against (entries of neighbouring seeds
// have near-identical sizes).
func probeEntryBytes(t *testing.T, seed int) int64 {
	t.Helper()
	svc := newTestService(t, Config{})
	res, err := svc.Submit(testSchema(seed), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, res.Job)
	_, bytes := svc.cache.stats()
	if bytes <= 0 {
		t.Fatalf("probe entry has %d bytes", bytes)
	}
	return bytes
}

func submitAndWait(t *testing.T, svc *Service, seed int) *Job {
	t.Helper()
	res, err := svc.Submit(testSchema(seed), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, res.Job)
	return res.Job
}

// entryDirs counts committed entry directories on disk.
func entryDirs(t *testing.T, root string) int {
	t.Helper()
	des, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if de.IsDir() && !strings.HasPrefix(de.Name(), ".") {
			n++
		}
	}
	return n
}

// TestCacheBoundUnderSubmitMix: with CacheMaxBytes below the total
// dataset size, a sustained mix of distinct submissions must keep the
// cache under the bound (LRU evicting the cold entries), and an
// evicted-then-resubmitted schema must regenerate and download cleanly
// — never a 5xx.
func TestCacheBoundUnderSubmitMix(t *testing.T) {
	size := probeEntryBytes(t, 1)
	bound := size + size/2 // two entries never fit, one always does

	dir := t.TempDir()
	svc := newTestService(t, Config{CacheDir: dir, CacheMaxBytes: bound})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	firstKey := ""
	for seed := 1; seed <= 5; seed++ {
		j := submitAndWait(t, svc, seed)
		if seed == 1 {
			firstKey = j.ID()
		}
		entries, bytes := svc.cache.stats()
		if bytes > bound {
			t.Fatalf("after seed %d: cache holds %d bytes, bound %d", seed, bytes, bound)
		}
		if got := entryDirs(t, dir); got != entries {
			t.Fatalf("after seed %d: %d entry dirs on disk, index says %d", seed, got, entries)
		}
	}
	st := svc.Stats()
	if st.Cache.LRUEvictions < 4 {
		t.Fatalf("expected >= 4 LRU evictions, got %d", st.Cache.LRUEvictions)
	}
	if st.Cache.Evictions != 0 {
		t.Fatalf("LRU eviction leaked into the integrity-eviction counter: %d", st.Cache.Evictions)
	}

	// Seed 1 was evicted long ago: its table download must answer 404
	// (a cache miss to resubmit through), never a 5xx.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + firstKey + "/tables/nodes_Person.csv")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted entry download: status %d, want 404", resp.StatusCode)
	}

	// Resubmitting regenerates it (determinism makes the bytes
	// identical), and the download must succeed end to end.
	j := submitAndWait(t, svc, 1)
	if j.ID() != firstKey {
		t.Fatalf("resubmit produced key %s, want %s", j.ID(), firstKey)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + firstKey + "/tables/nodes_Person.csv")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evicted-then-regenerated download: status %d, want 200", resp.StatusCode)
	}
	want := directExport(t, testSchema(1), table.FormatCSV)["nodes_Person.csv"]
	if got := sha256Hex(body); got != want {
		t.Fatalf("regenerated table hash %s, want %s", got, want)
	}
}

// TestEvictionDuringStream: LRU eviction removes an entry's directory
// at once, even while a download streams from it — the open file stays
// readable to the end, and a resubmit regenerates the entry.
func TestEvictionDuringStream(t *testing.T) {
	size := probeEntryBytes(t, 1)
	bound := size + size/2

	dir := t.TempDir()
	svc := newTestService(t, Config{CacheDir: dir, CacheMaxBytes: bound})

	j1 := submitAndWait(t, svc, 1)
	key1 := j1.ID()

	// Open entry 1 as a streaming download would.
	f, err := svc.cache.open(key1, j1.Manifest().Files[0].Name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Entry 2 forces entry 1 out of the index and off the disk...
	submitAndWait(t, svc, 2)
	svc.cache.mu.Lock()
	_, indexed := svc.cache.index[key1]
	svc.cache.mu.Unlock()
	if indexed {
		t.Fatal("entry 1 still in the index after eviction")
	}
	if svc.cache.lruEvictions() != 1 {
		t.Fatalf("lru evictions = %d, want 1", svc.cache.lruEvictions())
	}
	if _, err := os.Stat(filepath.Join(dir, key1)); !os.IsNotExist(err) {
		t.Fatalf("evicted entry directory still on disk: %v", err)
	}
	// ...but the reader opened before the eviction reads it whole.
	body, err := io.ReadAll(f)
	if err != nil {
		t.Fatalf("reading evicted-while-open entry: %v", err)
	}
	want := directExport(t, testSchema(1), table.FormatCSV)[j1.Manifest().Files[0].Name]
	if got := sha256Hex(body); got != want {
		t.Fatalf("mid-eviction stream hash %s, want %s", got, want)
	}

	res, err := svc.Submit(testSchema(1), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("evicted entry answered a cache hit")
	}
	waitDone(t, res.Job)
	res, err = svc.Submit(testSchema(1), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("regenerated entry not served as a cache hit")
	}
}

// TestEvictedEntryNotReadopted: a lookup that lands between an LRU
// eviction and the removal of its directory must not re-adopt the
// doomed entry. If it did, the index would list a key whose directory
// is gone: a resubmit would answer a cache hit from the job memo and
// every download of it would 404 "evicted, resubmit" for good.
func TestEvictedEntryNotReadopted(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	key1 := submitAndWait(t, svc, 1).ID()
	submitAndWait(t, svc, 2)

	// Lower the bound by one byte: the coldest entry (seed 1) goes.
	c := svc.cache
	c.mu.Lock()
	c.maxBytes = c.total - 1
	c.evictToFitLocked("")
	c.mu.Unlock()
	m, _, err := c.lookup(key1)
	if err != nil || m != nil {
		t.Fatalf("lookup of the evicted key: manifest %v, err %v; want a miss", m != nil, err)
	}
	if c.has(key1) {
		t.Fatal("evicted key is back in the index")
	}

	res, err := svc.Submit(testSchema(1), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHit {
		t.Fatal("resubmit of the evicted key answered a cache hit")
	}
	waitDone(t, res.Job)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + key1 + "/tables/nodes_Person.csv")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download after regeneration: status %d, want 200", resp.StatusCode)
	}
	want := directExport(t, testSchema(1), table.FormatCSV)["nodes_Person.csv"]
	if got := sha256Hex(body); got != want {
		t.Fatalf("regenerated table hash %s, want %s", got, want)
	}
}

// gateFS holds the Open of one file until proceed is closed, after the
// real open has succeeded, so a test can act while a reader holds it.
type gateFS struct {
	faultfs.FS
	path            string
	opened, proceed chan struct{}
}

func (g *gateFS) Open(name string) (faultfs.File, error) {
	f, err := g.FS.Open(name)
	if strings.HasSuffix(name, g.path) {
		close(g.opened)
		<-g.proceed
	}
	return f, err
}

// TestEvictionDuringVerifyIsAMiss: an entry evicted while a lookup
// hashes its files (the files already open, so every hash matches)
// must come back a miss, not be indexed again over a removed directory.
func TestEvictionDuringVerifyIsAMiss(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, Config{CacheDir: dir})
	submitAndWait(t, svc, 1)
	submitAndWait(t, svc, 2)

	// A fresh cache over the same directory has verified nothing yet.
	gate := &gateFS{FS: faultfs.OS, opened: make(chan struct{}), proceed: make(chan struct{})}
	c, err := newDiskCache(dir, 0, gate, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.lru.Back().Value.(*cacheEntry).key
	raw, err := os.ReadFile(filepath.Join(dir, victim, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	gate.path = filepath.Join(victim, m.Files[len(m.Files)-1].Name)

	type result struct {
		m   *Manifest
		err error
	}
	done := make(chan result)
	go func() {
		m, _, err := c.lookup(victim)
		done <- result{m, err}
	}()
	<-gate.opened
	c.mu.Lock()
	c.maxBytes = c.total - 1
	c.evictToFitLocked("")
	c.mu.Unlock()
	close(gate.proceed)
	if r := <-done; r.err != nil || r.m != nil {
		t.Fatalf("lookup across the eviction: manifest %v, err %v; want a miss", r.m != nil, r.err)
	}
	if c.has(victim) {
		t.Fatal("entry evicted during its verification is back in the index")
	}
}

// TestCacheIndexRebuildAcrossRestart: a fresh service adopts committed
// entries into its LRU index (count and bytes) and enforces a smaller
// bound at startup by evicting the oldest entries.
func TestCacheIndexRebuildAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, Config{CacheDir: dir})
	submitAndWait(t, svc, 1)
	submitAndWait(t, svc, 2)
	entries, bytes := svc.cache.stats()
	if entries != 2 || bytes <= 0 {
		t.Fatalf("seed service: %d entries, %d bytes", entries, bytes)
	}

	// Restart with the same bound: both entries adopted.
	svc2 := newTestService(t, Config{CacheDir: dir})
	e2, b2 := svc2.cache.stats()
	if e2 != entries || b2 != bytes {
		t.Fatalf("rebuilt index has %d entries / %d bytes, want %d / %d", e2, b2, entries, bytes)
	}

	// Restart with a bound below the total: the excess is evicted
	// immediately, keeping the newest-created entry.
	svc3 := newTestService(t, Config{CacheDir: dir, CacheMaxBytes: bytes - 1})
	e3, b3 := svc3.cache.stats()
	if e3 != 1 {
		t.Fatalf("restart under bound kept %d entries, want 1", e3)
	}
	if b3 > bytes-1 {
		t.Fatalf("restart under bound holds %d bytes, bound %d", b3, bytes-1)
	}
	if got := entryDirs(t, dir); got != 1 {
		t.Fatalf("%d entry dirs on disk after startup eviction, want 1", got)
	}
}

// failingWriter errors on every body write, standing in for a client
// that vanished mid-response.
type failingWriter struct{ header http.Header }

func (f *failingWriter) Header() http.Header {
	if f.header == nil {
		f.header = http.Header{}
	}
	return f.header
}
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, errors.New("peer vanished") }

// TestWriteJSONFailureCounted: a mid-stream encode failure must not
// pass silently — it increments the write-failure counter (it used to
// be dropped on the floor, leaving truncated JSON under a 200 with no
// trace).
func TestWriteJSONFailureCounted(t *testing.T) {
	svc := newTestService(t, Config{})
	svc.writeJSON(&failingWriter{}, http.StatusOK, map[string]string{"status": "ok"})
	if got := svc.writeFailures.Load(); got != 1 {
		t.Fatalf("write failures = %d, want 1", got)
	}
}

// TestWaitParamValidation: non-positive ?wait= durations are client
// errors — they used to slip through the clamp and behave like no wait
// at all.
func TestWaitParamValidation(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	j := submitAndWait(t, svc, 1)

	for _, wait := range []string{"0s", "-5s", "-1ns"} {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "?wait=" + wait)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("wait=%s: status %d, want 400", wait, resp.StatusCode)
		}
	}
	// A positive wait still long-polls fine.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID() + "?wait=1s")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wait=1s: status %d, want 200", resp.StatusCode)
	}
}

// TestSubmitContentTypeRouting: only the application/json media type
// proper routes through the JSON submission body. Parameterized JSON
// still parses as JSON; look-alikes such as application/jsonlines are
// raw DSL (a prefix match used to mis-route them).
func TestSubmitContentTypeRouting(t *testing.T) {
	svc := newTestService(t, Config{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	src := testSchema(9)

	post := func(ct, body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs?format=csv", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	expect := func(resp *http.Response, want ...int) {
		t.Helper()
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		for _, w := range want {
			if resp.StatusCode == w {
				return
			}
		}
		t.Fatalf("status %d, want one of %v", resp.StatusCode, want)
	}

	// A look-alike media type carries raw DSL; routing it as JSON
	// would 400 on "invalid JSON body".
	expect(post("application/jsonlines", src), http.StatusAccepted, http.StatusOK)
	// Parameterized JSON is still JSON.
	jsonBody, _ := json.Marshal(submitRequest{Schema: src, Format: "csv"})
	expect(post("application/json; charset=utf-8", string(jsonBody)), http.StatusAccepted, http.StatusOK)
	// Plain JSON media type with a non-JSON body stays an error.
	expect(post("application/json", src), http.StatusBadRequest)
}

// TestStatsServedFromIndex: /v1/stats reports entry count and bytes
// without touching the directory — remove the directory out from under
// the service and the index still answers (the old implementation
// re-scanned the root on every call).
func TestStatsServedFromIndex(t *testing.T) {
	dir := t.TempDir()
	svc := newTestService(t, Config{CacheDir: dir})
	submitAndWait(t, svc, 1)
	entries, bytes := svc.cache.stats()
	if entries != 1 || bytes <= 0 {
		t.Fatalf("index: %d entries, %d bytes", entries, bytes)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Cache.Entries != entries || st.Cache.Bytes != bytes {
		t.Fatalf("stats after dir removal: %d entries / %d bytes, want %d / %d",
			st.Cache.Entries, st.Cache.Bytes, entries, bytes)
	}
}
