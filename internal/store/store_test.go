package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"datasynth/internal/faultfs"
)

func keepAll(fs.DirEntry) bool { return true }

func open(t *testing.T, root string, fsys faultfs.FS) *Dir {
	t.Helper()
	d, err := Open(root, fsys, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// snapshot renders a file's bytes, or a directory's files and bytes, as
// one comparable string; "" means the path is absent.
func snapshot(t *testing.T, path string) string {
	t.Helper()
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return ""
	}
	if err != nil {
		t.Fatal(err)
	}
	if !fi.IsDir() {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return "file:" + string(raw)
	}
	des, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	out := "dir:"
	for _, de := range des {
		out += de.Name() + "=" + snapshot(t, filepath.Join(path, de.Name())) + ";"
	}
	return out
}

// recoverClean reopens root on the real filesystem, as a restarted
// process would, sweeps the root and every directory under it, and
// fails the test if any temp survives outside the quarantine.
func recoverClean(t *testing.T, root string) *Dir {
	t.Helper()
	d := open(t, root, nil)
	var subs []string
	err := d.Recover("", func(de fs.DirEntry) bool {
		if de.IsDir() {
			subs = append(subs, de.Name())
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if err := d.Recover(sub, keepAll); err != nil {
			t.Fatal(err)
		}
	}
	err = filepath.WalkDir(root, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.Name() == QuarantineDir {
			return filepath.SkipDir
		}
		if strings.HasPrefix(de.Name(), TempPrefix) {
			t.Errorf("temp %s survived recovery", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWriteFileFaults injects a fault at every step of WriteFile over
// an existing version of the file. Whatever happens, the final name
// holds the complete old or the complete new content, the call reports
// success exactly when it is the new one, and a restart leaves no temp.
func TestWriteFileFaults(t *testing.T) {
	const rel = "panel/v1.json"
	for _, tc := range []struct {
		name    string
		rules   []*faultfs.Rule
		wantNew bool
		wantErr error
	}{
		{name: "no fault", wantNew: true},
		{name: "mkdir fails", rules: []*faultfs.Rule{{Ops: faultfs.OpMkdirAll}}, wantErr: faultfs.ErrInjected},
		{name: "torn write", rules: []*faultfs.Rule{{Ops: faultfs.OpWriteFile, Short: true}}, wantErr: faultfs.ErrInjected},
		{name: "ENOSPC write", rules: []*faultfs.Rule{{Ops: faultfs.OpWriteFile, Err: faultfs.ENOSPC}}, wantErr: faultfs.ENOSPC},
		{name: "stat fails", rules: []*faultfs.Rule{{Ops: faultfs.OpStat}}, wantErr: faultfs.ErrInjected},
		{name: "rename fails", rules: []*faultfs.Rule{{Ops: faultfs.OpRename, Err: faultfs.ENOSPC}}, wantErr: faultfs.ENOSPC},
		{name: "rename ack lost", rules: []*faultfs.Rule{{Ops: faultfs.OpRename, After: true}}, wantNew: true},
		{name: "crash between write and rename", rules: []*faultfs.Rule{
			{Ops: faultfs.OpRename, Err: faultfs.ErrCrash},
			{Ops: faultfs.OpRemoveAll, Err: faultfs.ErrCrash}, // a dead process sweeps nothing
		}, wantErr: faultfs.ErrCrash},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			inj := faultfs.NewInject(1)
			d := open(t, root, inj)
			if err := d.WriteFile(rel, []byte("old")); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.rules {
				inj.AddRule(r)
			}
			err := d.WriteFile(rel, []byte("new content"))
			if !errors.Is(err, tc.wantErr) || (err == nil) != tc.wantNew {
				t.Fatalf("WriteFile = %v, want error %v", err, tc.wantErr)
			}
			want := "file:old"
			if tc.wantNew {
				want = "file:new content"
			}
			if got := snapshot(t, d.Path(rel)); got != want {
				t.Fatalf("final holds %q, want %q", got, want)
			}
			recoverClean(t, root)
			if got := snapshot(t, d.Path(rel)); got != want {
				t.Fatalf("after recovery final holds %q, want %q", got, want)
			}
		})
	}
}

// stageEntry fills a staged directory the way the dataset cache does:
// files first, the manifest last.
func stageEntry(d *Dir, rel, content string) (string, error) {
	stage, err := d.Stage(rel)
	if err != nil {
		return "", err
	}
	if err := d.FS().MkdirAll(stage, 0o755); err != nil {
		return stage, err
	}
	for _, name := range []string{"edges.csv", "manifest.json"} {
		if err := d.FS().WriteFile(filepath.Join(stage, name), []byte(content+" "+name), 0o644); err != nil {
			return stage, err
		}
	}
	return stage, nil
}

// TestDirCommitFaults injects a fault at every step of staging and
// committing a directory entry over an existing one. A directory
// cannot be renamed over, so between removing the old entry and the
// rename the name may be absent — but it never holds part of an entry,
// and Commit reports success exactly when the new one is in place.
func TestDirCommitFaults(t *testing.T) {
	const rel = "entry"
	oldSnap := "dir:edges.csv=file:old edges.csv;manifest.json=file:old manifest.json;"
	newSnap := "dir:edges.csv=file:new edges.csv;manifest.json=file:new manifest.json;"
	for _, tc := range []struct {
		name  string
		rules func(d *Dir) []*faultfs.Rule
		want  string // final content; the call succeeds iff it is newSnap
	}{
		{name: "no fault", want: newSnap},
		{name: "ENOSPC while staging", want: oldSnap, rules: func(*Dir) []*faultfs.Rule {
			return []*faultfs.Rule{{Ops: faultfs.OpWriteFile, Path: "manifest.json", Err: faultfs.ENOSPC}}
		}},
		{name: "torn manifest while staging", want: oldSnap, rules: func(*Dir) []*faultfs.Rule {
			return []*faultfs.Rule{{Ops: faultfs.OpWriteFile, Path: "manifest.json", Short: true}}
		}},
		{name: "removing the old final fails", want: oldSnap, rules: func(d *Dir) []*faultfs.Rule {
			return []*faultfs.Rule{{Ops: faultfs.OpRemoveAll, Path: d.Path(rel)}}
		}},
		{name: "rename fails", want: "", rules: func(*Dir) []*faultfs.Rule {
			return []*faultfs.Rule{{Ops: faultfs.OpRename}}
		}},
		{name: "rename ack lost", want: newSnap, rules: func(*Dir) []*faultfs.Rule {
			return []*faultfs.Rule{{Ops: faultfs.OpRename, After: true}}
		}},
		{name: "crash before rename", want: "", rules: func(*Dir) []*faultfs.Rule {
			return []*faultfs.Rule{{Ops: faultfs.OpRename, Err: faultfs.ErrCrash}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			inj := faultfs.NewInject(1)
			d := open(t, root, inj)
			stage, err := stageEntry(d, rel, "old")
			if err == nil {
				err = d.Commit(stage, rel)
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.rules != nil {
				for _, r := range tc.rules(d) {
					inj.AddRule(r)
				}
			}
			stage, err = stageEntry(d, rel, "new")
			if err == nil {
				err = d.Commit(stage, rel)
			}
			if (err == nil) != (tc.want == newSnap) {
				t.Fatalf("stage+Commit = %v with final %q", err, snapshot(t, d.Path(rel)))
			}
			if got := snapshot(t, d.Path(rel)); got != tc.want {
				t.Fatalf("final holds %q, want %q", got, tc.want)
			}
			if err == nil {
				// Idempotent: committing what is already committed is a
				// no-op, not a second replace that deletes the entry.
				inj.ClearRules()
				if err := d.Commit(stage, rel); err != nil {
					t.Fatalf("repeated Commit: %v", err)
				}
			}
			recoverClean(t, root)
			if got := snapshot(t, d.Path(rel)); got != tc.want {
				t.Fatalf("after recovery final holds %q, want %q", got, tc.want)
			}
		})
	}
}

// TestCommitWithoutStageFails: idempotence must not turn a missing
// stage into success when nothing was ever committed.
func TestCommitWithoutStageFails(t *testing.T) {
	d := open(t, t.TempDir(), nil)
	if err := d.Commit(d.Temp("ghost"), "ghost"); !os.IsNotExist(err) {
		t.Fatalf("Commit of a missing stage = %v, want not-exist", err)
	}
}

func TestRecoverQuarantinesAndClearsPreviousWindow(t *testing.T) {
	root := t.TempDir()
	d := open(t, root, nil)
	for _, rel := range []string{"good/v1.json", "good/v2.json", "bad/v1.json"} {
		if err := d.WriteFile(rel, []byte(rel)); err != nil {
			t.Fatal(err)
		}
	}
	for _, debris := range []string{d.Temp("orphan"), d.Temp("good/v3.json")} {
		if err := os.WriteFile(debris, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	d2 := open(t, root, nil)
	var kept []string
	err := d2.Recover("", func(de fs.DirEntry) bool {
		kept = append(kept, de.Name())
		return de.Name() != "bad"
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Recover("good", func(de fs.DirEntry) bool { return de.Name() != "v2.json" }); err != nil {
		t.Fatal(err)
	}
	// Temps never reach keep; everything else does, in name order.
	if got := strings.Join(kept, ","); got != "bad,good" {
		t.Fatalf("keep saw %q, want bad,good", got)
	}
	if got := d2.Quarantined(); got != 4 {
		t.Fatalf("quarantined %d, want 4 (bad, orphan temp, nested temp, good/v2.json)", got)
	}
	want := "dir:.tmp-orphan=file:partial;bad=dir:v1.json=file:bad/v1.json;;good__.tmp-v3.json=file:partial;good__v2.json=file:good/v2.json;"
	if got := snapshot(t, d2.Path(QuarantineDir)); got != want {
		t.Fatalf("quarantine holds\n%s\nwant\n%s", got, want)
	}
	if got := snapshot(t, d2.Path("good")); got != "dir:v1.json=file:good/v1.json;" {
		t.Fatalf("survivors: %s", got)
	}

	// The next startup's sweep ends the post-mortem window.
	d3 := recoverClean(t, root)
	if got := snapshot(t, d3.Path(QuarantineDir)); got != "" || d3.Quarantined() != 0 {
		t.Fatalf("previous quarantine not cleared: %q, %d re-quarantined", got, d3.Quarantined())
	}
}

func TestQuarantineDeduplicatesNames(t *testing.T) {
	d := open(t, t.TempDir(), nil)
	for i := 0; i < 3; i++ {
		if err := d.WriteFile("a/x", []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		d.Quarantine("a/x")
	}
	want := "dir:a__x=file:0;a__x-1=file:1;a__x-2=file:2;"
	if got := snapshot(t, d.Path(QuarantineDir)); got != want || d.Quarantined() != 3 {
		t.Fatalf("quarantine holds %s (%d counted), want %s", got, d.Quarantined(), want)
	}
}

// TestQuarantineFallsBackToRemoval: when the move into quarantine
// fails the debris is removed instead, and when that fails too it is
// counted — never silently left in place.
func TestQuarantineFallsBackToRemoval(t *testing.T) {
	for _, tc := range []struct {
		name      string
		rules     []*faultfs.Rule
		wantGone  bool
		wantFails int64
	}{
		{"rename fails", []*faultfs.Rule{{Ops: faultfs.OpRename}}, true, 0},
		{"quarantine dir cannot be made", []*faultfs.Rule{{Ops: faultfs.OpMkdirAll, Path: QuarantineDir}}, true, 0},
		{"rename and removal fail", []*faultfs.Rule{{Ops: faultfs.OpRename}, {Ops: faultfs.OpRemoveAll}}, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inj := faultfs.NewInject(1)
			d := open(t, t.TempDir(), inj)
			if err := d.WriteFile("x", []byte("x")); err != nil {
				t.Fatal(err)
			}
			for _, r := range tc.rules {
				inj.AddRule(r)
			}
			d.Quarantine("x")
			if gone := snapshot(t, d.Path("x")) == ""; gone != tc.wantGone {
				t.Errorf("entry gone = %v, want %v", gone, tc.wantGone)
			}
			if d.Quarantined() != 0 || d.CleanupFailures() != tc.wantFails {
				t.Errorf("quarantined=%d cleanup_failures=%d, want 0/%d", d.Quarantined(), d.CleanupFailures(), tc.wantFails)
			}
		})
	}
}

// TestConcurrentDistinctNames drives the Dir from several goroutines
// on distinct names — the concurrency its clients use — for the race
// detector.
func TestConcurrentDistinctNames(t *testing.T) {
	d := open(t, t.TempDir(), faultfs.NewInject(1, &faultfs.Rule{Ops: faultfs.OpRemoveAll, Path: "gone"}))
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rel := fmt.Sprintf("s%d/v1.json", i)
			if err := d.WriteFile(rel, []byte(rel)); err != nil {
				t.Errorf("WriteFile %s: %v", rel, err)
			}
			d.Quarantine(rel)
			d.Remove(d.Path(fmt.Sprintf("gone%d", i)))
		}(i)
	}
	wg.Wait()
	if d.Quarantined() != 8 || d.CleanupFailures() != 8 {
		t.Fatalf("quarantined=%d cleanup_failures=%d, want 8/8", d.Quarantined(), d.CleanupFailures())
	}
}
