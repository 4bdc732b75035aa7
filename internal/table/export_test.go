package table

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datasynth/internal/faultfs"
	"datasynth/internal/par/partest"
	"datasynth/internal/store"
)

// raggedDataset returns a dataset whose edge property row count does
// not match its edge table — WriteEdge* must reject it, so any export
// of the dataset fails partway through the job list.
func raggedDataset() *Dataset {
	d := roundTripDataset()
	bad := NewPropertyTable("follows.bogus", KindInt, 99)
	d.EdgeProps["follows"] = append(d.EdgeProps["follows"], bad)
	return d
}

// TestExportAtomicityPartialWrite is the regression test for the old
// WriteDir behavior, which left nodes_*.csv behind when a later edge
// table failed. The export must stage everything in temp files and
// leave the directory without a single file — temp or final — on error.
func TestExportAtomicityPartialWrite(t *testing.T) {
	for _, format := range []Format{FormatCSV, FormatJSONL, FormatColumnar} {
		for _, procs := range []int{1, 4} {
			partest.SetProcs(t, procs)
			d := raggedDataset()
			dir := filepath.Join(t.TempDir(), "out")
			_, err := d.Export(dir, ExportOptions{Format: format})
			if err == nil {
				t.Fatalf("%v GOMAXPROCS=%d: ragged dataset exported without error", format, procs)
			}
			if !strings.Contains(err.Error(), "bogus") {
				t.Errorf("%v GOMAXPROCS=%d: error %v does not name the bad column", format, procs, err)
			}
			entries, dirErr := os.ReadDir(dir)
			if os.IsNotExist(dirErr) {
				continue // directory we created was fully rolled back
			}
			if dirErr != nil {
				t.Fatal(dirErr)
			}
			for _, ent := range entries {
				t.Errorf("%v GOMAXPROCS=%d: partial export left %s behind", format, procs, ent.Name())
			}
		}
	}
}

// TestExportCtxPreCanceled: a canceled context aborts the export before
// the directory is touched — no directory, no temps, no files.
func TestExportCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := roundTripDataset()
	dir := filepath.Join(t.TempDir(), "out")
	if _, err := d.ExportCtx(ctx, dir, ExportOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ExportCtx with canceled context = %v, want context.Canceled", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("canceled export still created %s (stat err %v)", dir, err)
	}
}

// cancelAfterCtx reports context.Canceled from Err() once the first
// `left` checks have passed — a deterministic stand-in for a deadline
// that expires at an exact point of the export's check sequence.
type cancelAfterCtx struct {
	context.Context
	mu   sync.Mutex
	left int
}

func (c *cancelAfterCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left > 0 {
		c.left--
		return nil
	}
	return context.Canceled
}

// countingCtx counts the Err() checks of a clean run.
type countingCtx struct {
	context.Context
	checks atomic.Int64
}

func (c *countingCtx) Err() error {
	c.checks.Add(1)
	return nil
}

// TestExportCtxCancelMidRun: cancellation while file jobs are running —
// or after the last file but before the commit — rolls the staged
// export back like any other failure: no directory, no temps, and
// crucially no committed subset of files.
func TestExportCtxCancelMidRun(t *testing.T) {
	k := len(roundTripDataset().exportJobs(FormatCSV))
	if k < 2 {
		t.Fatalf("fixture exports %d files, need at least 2", k)
	}
	partest.SetProcs(t, 1)
	// The serial check sequence is: 1 entry check, then per job 1 check
	// before it starts and 1 per flush, then 1 commit barrier. A clean
	// run counts the checks and the writes, so the last check is the
	// barrier whatever the tables' flush counts are.
	clean := &countingCtx{Context: context.Background()}
	cleanFS := &cancelingFS{}
	if _, err := roundTripDataset().ExportCtx(clean, filepath.Join(t.TempDir(), "out"), ExportOptions{FS: cleanFS}); err != nil {
		t.Fatal(err)
	}
	checks, writes := int(clean.checks.Load()), cleanFS.writes.Load()
	if checks < 2+k {
		t.Fatalf("clean export made %d ctx checks, want at least %d", checks, 2+k)
	}
	// left=2 cancels job 0 at its first flush (its temp already created);
	// left=checks-1 cancels at the commit barrier with every temp written.
	for _, left := range []int{2, checks - 1} {
		ctx := &cancelAfterCtx{Context: context.Background(), left: left}
		d := roundTripDataset()
		fsys := &cancelingFS{}
		dir := filepath.Join(t.TempDir(), "out")
		_, err := d.ExportCtx(ctx, dir, ExportOptions{FS: fsys})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("left=%d: err = %v, want context.Canceled", left, err)
		}
		if left == checks-1 && fsys.writes.Load() != writes {
			t.Errorf("left=%d: %d writes before the cancel, want all %d (cancel at the commit barrier)", left, fsys.writes.Load(), writes)
		}
		if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
			entries, _ := os.ReadDir(dir)
			for _, ent := range entries {
				t.Errorf("left=%d: canceled export left %s", left, ent.Name())
			}
		}
	}
}

// cancelingFS cancels a context during the at-th Write to the files it
// creates and counts every Write; the zero value only counts.
type cancelingFS struct {
	faultfs.OSFS
	cancel context.CancelFunc
	at     int64
	writes atomic.Int64
}

type cancelingFile struct {
	faultfs.File
	fs *cancelingFS
}

func (f *cancelingFS) Create(name string) (faultfs.File, error) {
	file, err := f.OSFS.Create(name)
	return &cancelingFile{File: file, fs: f}, err
}

func (f *cancelingFile) Write(p []byte) (int, error) {
	if f.fs.writes.Add(1) == f.fs.at {
		f.fs.cancel()
	}
	return f.File.Write(p)
}

// TestExportCancelsMidTable: a deadline that expires while a table is
// being written stops that table at its next flush — not after the rest
// of its megabytes have been encoded and written — and the export rolls
// back like any other failure.
func TestExportCancelsMidTable(t *testing.T) {
	for _, format := range []Format{FormatCSV, FormatJSONL, FormatColumnar} {
		const edges = 400_000 // several megabytes in every format
		d := NewDataset()
		et := NewEdgeTable("big", edges)
		for i := int64(0); i < edges; i++ {
			et.Add(i, edges-i)
		}
		d.Edges["big"] = et
		ctx, cancel := context.WithCancel(context.Background())
		fsys := &cancelingFS{cancel: cancel, at: 3}
		dir := filepath.Join(t.TempDir(), "out")
		_, err := d.ExportCtx(ctx, dir, ExportOptions{Format: format, FS: fsys})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", format, err)
		}
		if n := fsys.writes.Load(); n != fsys.at {
			t.Errorf("%v: %d writes reached the file, want none after write %d canceled the context", format, n, fsys.at)
		}
		if _, serr := os.Stat(dir); !os.IsNotExist(serr) {
			entries, _ := os.ReadDir(dir)
			t.Errorf("%v: canceled export left %s holding %d entries", format, dir, len(entries))
		}
	}
}

// TestExportFailureKeepsForeignFiles: rolling back must not delete a
// pre-existing directory or unrelated files in it.
func TestExportFailureKeepsForeignFiles(t *testing.T) {
	dir := t.TempDir()
	keep := filepath.Join(dir, "keep.txt")
	if err := os.WriteFile(keep, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := raggedDataset().Export(dir, ExportOptions{}); err == nil {
		t.Fatal("ragged dataset exported without error")
	}
	if _, err := os.Stat(keep); err != nil {
		t.Fatalf("pre-existing file removed by failed export: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after failed export, want only keep.txt", len(entries))
	}
}

// hashExportDir hashes every file of one export at GOMAXPROCS procs.
func hashExportDir(t *testing.T, d *Dataset, format Format, procs int) map[string]string {
	t.Helper()
	partest.SetProcs(t, procs)
	dir := t.TempDir()
	stats, err := d.Export(dir, ExportOptions{Format: format})
	if err != nil {
		t.Fatalf("%v GOMAXPROCS=%d: %v", format, procs, err)
	}
	hashes := map[string]string{}
	for _, st := range stats {
		raw, err := os.ReadFile(filepath.Join(dir, st.Name))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(raw)) != st.Bytes {
			t.Errorf("%s: FileStat.Bytes = %d, file is %d", st.Name, st.Bytes, len(raw))
		}
		sum := sha256.Sum256(raw)
		hashes[st.Name] = hex.EncodeToString(sum[:])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(stats) {
		t.Fatalf("%v GOMAXPROCS=%d: %d files on disk, %d reported", format, procs, len(entries), len(stats))
	}
	return hashes
}

// TestExportConcurrentDeterminism: file bytes are identical however
// many files are written at once, for every format.
func TestExportConcurrentDeterminism(t *testing.T) {
	d := roundTripDataset()
	for _, format := range []Format{FormatCSV, FormatJSONL, FormatColumnar} {
		ref := hashExportDir(t, d, format, 1)
		if len(ref) != 2 {
			t.Fatalf("%v: exported %d files, want 2", format, len(ref))
		}
		for _, procs := range []int{2, 4, 8} {
			got := hashExportDir(t, d, format, procs)
			for name, h := range ref {
				if got[name] != h {
					t.Errorf("%v GOMAXPROCS=%d: %s hash %s, want %s", format, procs, name, got[name], h)
				}
			}
		}
	}
}

// TestExportOverwrites: re-exporting into the same directory replaces
// the files (rename-over semantics), the pattern benchmarks rely on.
func TestExportOverwrites(t *testing.T) {
	d := roundTripDataset()
	dir := t.TempDir()
	if _, err := d.Export(dir, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	d.NodeProps["User"][0].SetString(0, "renamed")
	if _, err := d.Export(dir, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "nodes_User.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("renamed")) {
		t.Error("second export did not replace the file")
	}
}

// TestExportRenamesEdgeTableToDatasetKey: the dataset key is the edge
// type; a table still carrying its generator-internal Name must export
// under the key in every format — including formats that embed the
// name in the payload — so a columnar round trip keys the edges the
// same way the dataset did.
func TestExportRenamesEdgeTableToDatasetKey(t *testing.T) {
	d := NewDataset()
	d.NodeCounts["N"] = 3
	et := NewEdgeTable("lfr-internal", 2)
	et.Add(0, 1)
	et.Add(1, 2)
	d.Edges["knows"] = et

	dir := t.TempDir()
	if _, err := d.Export(dir, ExportOptions{Format: FormatColumnar}); err != nil {
		t.Fatal(err)
	}
	got, err := OpenColumnar(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Edges["knows"] == nil {
		t.Fatalf("round trip lost the dataset key: edges keyed %v", mapKeys(got.Edges))
	}
	if got.Edges["knows"].Name != "knows" {
		t.Errorf("round-tripped table Name = %q, want dataset key", got.Edges["knows"].Name)
	}
	if et.Name != "lfr-internal" {
		t.Errorf("export mutated the caller's table Name to %q", et.Name)
	}

	jsonlDir := t.TempDir()
	if _, err := d.Export(jsonlDir, ExportOptions{Format: FormatJSONL}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(jsonlDir, "edges_knows.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"label":"knows"`)) {
		t.Errorf("JSONL label does not use the dataset key:\n%s", raw)
	}
}

func mapKeys(m map[string]*EdgeTable) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// TestExportCommitFailureKeepsCommittedFiles: when a rename in the
// commit phase fails (here: the target name is occupied by a
// directory), files committed before it must survive — deleting them
// could destroy the only copy when re-exporting over an existing
// dataset — and the remaining temps must be cleaned up.
func TestExportCommitFailureKeepsCommittedFiles(t *testing.T) {
	d := roundTripDataset()
	dir := t.TempDir()
	// Jobs commit in sorted-nodes-then-edges order, so nodes_User.csv
	// renames first and edges_follows.csv second; occupy the second
	// target with a directory to fail its rename.
	if err := os.Mkdir(filepath.Join(dir, "edges_follows.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := d.Export(dir, ExportOptions{Format: FormatCSV})
	if err == nil {
		t.Fatal("rename over a directory did not fail")
	}
	if !strings.Contains(err.Error(), "committing edges_follows.csv") {
		t.Errorf("error %v does not name the failed commit", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "nodes_User.csv")); err != nil {
		t.Errorf("committed file was rolled back: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), store.TempPrefix) {
			t.Errorf("temp file %s left behind", ent.Name())
		}
	}
}

func TestParseFormat(t *testing.T) {
	for name, want := range map[string]Format{"csv": FormatCSV, "jsonl": FormatJSONL, "columnar": FormatColumnar, "dsc": FormatColumnar} {
		got, err := ParseFormat(name)
		if err != nil || got != want {
			t.Errorf("ParseFormat(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseFormat("parquet"); err == nil {
		t.Error("unknown format should fail")
	}
	if FormatCSV.Ext() != ".csv" || FormatJSONL.Ext() != ".jsonl" || FormatColumnar.Ext() != ".dsc" {
		t.Error("extensions wrong")
	}
	if FormatColumnar.String() != "columnar" {
		t.Errorf("String() = %s", FormatColumnar)
	}
}

// TestFileNamingHelpers pins the naming contract the service relies on
// to stream a committed export directory without re-encoding: the
// helper names must be exactly what the export pipeline writes.
func TestFileNamingHelpers(t *testing.T) {
	if got := NodeFileName("Person", FormatCSV); got != "nodes_Person.csv" {
		t.Errorf("NodeFileName = %s", got)
	}
	if got := EdgeFileName("knows", FormatColumnar); got != "edges_knows.dsc" {
		t.Errorf("EdgeFileName = %s", got)
	}
	d := NewDataset()
	d.NodeCounts["Person"] = 1
	d.NodeProps["Person"] = []*PropertyTable{NewPropertyTable("Person.age", KindInt, 1)}
	et := NewEdgeTable("knows", 1)
	et.Add(0, 0)
	d.Edges["knows"] = et
	for _, f := range []Format{FormatCSV, FormatJSONL, FormatColumnar} {
		jobs := d.exportJobs(f)
		got := make([]string, len(jobs))
		for i, j := range jobs {
			got[i] = j.file
		}
		want := []string{NodeFileName("Person", f), EdgeFileName("knows", f)}
		if !slices.Equal(got, want) {
			t.Errorf("%s: exportJobs files %v, helpers say %v", f, got, want)
		}
		if ct := f.ContentType(); ct == "" {
			t.Errorf("%s has no content type", f)
		}
	}
}

// TestCSVEncoderMatchesStdlib cross-checks the pooled append encoder
// against encoding/csv field by field: the byte-identity contract that
// lets the encoder replace the stdlib writer without changing a single
// exported file.
func TestCSVEncoderMatchesStdlib(t *testing.T) {
	fields := []string{
		"", "plain", "comma,inside", `quote"inside`, "new\nline", "cr\rreturn",
		" leadingspace", "trailing ", "\ttab", `\.`, "ünïcødé ✓", `""`,
		"a,b\"c\nd", "0", "-123", "1.5e-300", " nbsp",
	}
	for _, f := range fields {
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		if err := cw.Write([]string{f, f}); err != nil {
			t.Fatal(err)
		}
		cw.Flush()
		got := appendCSVField(nil, f)
		got = append(got, ',')
		got = appendCSVField(got, f)
		got = append(got, '\n')
		if string(got) != want.String() {
			t.Errorf("field %q: encoder %q, stdlib %q", f, got, want.String())
		}
	}
}

// TestCSVNumericAppendMatchesFormat pins the numeric/date append paths
// to the historical fmt-based rendering.
func TestCSVNumericAppendMatchesFormat(t *testing.T) {
	floats := []float64{0, -1.5, 1.0 / 3.0, math.MaxFloat64, 5e-324, math.Inf(1), math.Inf(-1)}
	pt := NewPropertyTable("T.f", KindFloat, int64(len(floats)))
	for i, f := range floats {
		pt.SetFloat(int64(i), f)
	}
	dates := NewPropertyTable("T.d", KindDate, int64(len(floats)))
	for i, d := range []int64{0, MustParseDate("2017-04-03"), -400, MinDate, MaxDate, 11016, 19782} {
		dates.SetInt(int64(i), d)
	}
	var got bytes.Buffer
	if err := WriteNodeCSV(&got, "T", []*PropertyTable{pt, dates}); err != nil {
		t.Fatal(err)
	}
	want := "id,f,d\n"
	for i := range floats {
		want += fmt.Sprintf("%d,%s,%s\n", i, pt.Format(int64(i)), time.Unix(dates.Int(int64(i))*86400, 0).UTC().Format("2006-01-02"))
	}
	if got.String() != want {
		t.Errorf("encoder wrote %q, fmt/time render %q", got.String(), want)
	}
}
