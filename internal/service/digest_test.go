package service

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"datasynth/internal/faultfs"
	"datasynth/internal/table"
)

// The manifest's per-file SHA-256 is the digest the encoder took while
// writing the file, not one read back from the staged bytes: damage
// between the encoder and the commit must fail verification, and the
// store path must not re-read the dataset — least of all on the
// failing-disk path of retries and bypass.

// flipFS damages one staged table right after the export published it
// inside the stage directory: the first Rename onto a name ending in
// match is followed by a one-byte flip in the middle of that file.
type flipFS struct {
	faultfs.OSFS
	match string
	once  sync.Once
	err   error
}

func (f *flipFS) Rename(oldpath, newpath string) error {
	if err := f.OSFS.Rename(oldpath, newpath); err != nil {
		return err
	}
	if strings.HasSuffix(newpath, f.match) {
		f.once.Do(func() {
			raw, err := os.ReadFile(newpath)
			if err == nil {
				raw[len(raw)/2] ^= 0x01
				err = os.WriteFile(newpath, raw, 0o644)
			}
			f.err = err
		})
	}
	return nil
}

// TestStoreRecordsEncoderDigest: a byte flipped in a staged table before
// the commit must not be blessed by the manifest. A fresh daemon on the
// same cache evicts the entry as corrupt on first lookup and regenerates
// the right bytes; it must never serve the damaged file under a digest
// that matches it.
func TestStoreRecordsEncoderDigest(t *testing.T) {
	cacheDir := t.TempDir()
	src := testSchema(91)
	want := directExport(t, src, table.FormatCSV)

	fsys := &flipFS{match: "edges_knows.csv"}
	svc1 := newTestService(t, Config{CacheDir: cacheDir, FS: fsys})
	res, err := svc1.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, res.Job)
	if fsys.err != nil {
		t.Fatal(fsys.err)
	}
	for _, f := range v.Files {
		if f.SHA256 != want[f.Name] {
			t.Errorf("%s: the manifest records %s, the encoder produced %s", f.Name, f.SHA256, want[f.Name])
		}
	}

	svc2 := newTestService(t, Config{CacheDir: cacheDir})
	ts := httptest.NewServer(svc2.Handler())
	defer ts.Close()
	res2, err := svc2.Submit(src, table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CacheHit {
		t.Error("the damaged entry was served as a cache hit")
	}
	v2 := waitDone(t, res2.Job)
	if got := svc2.Stats().Cache.Evictions; got != 1 {
		t.Errorf("integrity evictions = %d, want 1", got)
	}
	for _, f := range v2.Files {
		code, body := httpGet(t, ts.URL+"/v1/jobs/"+res2.Job.ID()+"/tables/"+f.Name)
		if code != http.StatusOK {
			t.Fatalf("download %s = %d", f.Name, code)
		}
		if sha256Hex(body) != want[f.Name] {
			t.Errorf("%s: served bytes differ from a clean export", f.Name)
		}
	}
}

// tableOpens counts Opens of table files under a staging directory.
type tableOpens struct {
	faultfs.FS
	ext string
	n   atomic.Int64
}

func (f *tableOpens) Open(name string) (faultfs.File, error) {
	if strings.HasSuffix(name, f.ext) {
		f.n.Add(1)
	}
	return f.FS.Open(name)
}

// TestStoreFailureReadsNoTables: with the commit failing on every
// attempt, the retries and the bypass that follows open no table file —
// the digests are already in hand — and the bypassed job's manifest
// equals a healthy run's.
func TestStoreFailureReadsNoTables(t *testing.T) {
	src := testSchema(92)
	healthy := newTestService(t, Config{})
	res, err := healthy.Submit(src, table.FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	want := waitDone(t, res.Job).Files

	fsys := &tableOpens{ext: ".jsonl", FS: faultfs.NewInject(1, &faultfs.Rule{
		Ops: faultfs.OpWriteFile, Path: manifestName, Err: faultfs.ENOSPC,
	})}
	svc := newTestService(t, Config{FS: fsys})
	res, err = svc.Submit(src, table.FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	v := waitDone(t, res.Job)
	st := svc.Stats()
	if !v.Degraded || st.Cache.Bypasses != 1 || st.Cache.StoreRetries != storeAttempts-1 {
		t.Fatalf("degraded=%v bypasses=%d retries=%d: the store did not fail through to bypass", v.Degraded, st.Cache.Bypasses, st.Cache.StoreRetries)
	}
	if n := fsys.n.Load(); n != 0 {
		t.Errorf("%d table files were opened between export and bypass, want 0", n)
	}
	if len(v.Files) != len(want) {
		t.Fatalf("bypassed job lists %d files, a healthy one %d", len(v.Files), len(want))
	}
	for i, f := range v.Files {
		if f != want[i] {
			t.Errorf("bypassed manifest entry %+v, healthy %+v", f, want[i])
		}
	}
}
