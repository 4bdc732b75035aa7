package table

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datasynth/internal/faultfs"
	"datasynth/internal/par/partest"
	"datasynth/internal/store"
)

// exportDirEntries lists what an export left behind ("" if the
// directory itself was rolled back).
func exportDirEntries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(des))
	for i, de := range des {
		names[i] = de.Name()
	}
	return names
}

// TestExportCreateFaultLeavesNoPartialDir: a failed Create mid-export
// aborts the whole set and rolls the directory back, same as an
// encoding error.
func TestExportCreateFaultLeavesNoPartialDir(t *testing.T) {
	for _, procs := range []int{1, 4} {
		partest.SetProcs(t, procs)
		d := roundTripDataset()
		dir := filepath.Join(t.TempDir(), "out")
		fsys := faultfs.NewInject(1, &faultfs.Rule{Ops: faultfs.OpCreate, Nth: 2})
		_, err := d.ExportCtx(t.Context(), dir, ExportOptions{FS: fsys})
		if !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("GOMAXPROCS=%d: export = %v, want injected fault", procs, err)
		}
		if left := exportDirEntries(t, dir); len(left) != 0 {
			t.Errorf("GOMAXPROCS=%d: failed export left %v behind", procs, left)
		}
	}
}

// TestExportTornWriteFails: a write torn mid-file (half the buffer
// reaches disk) must fail the export, not commit a truncated table.
func TestExportTornWriteFails(t *testing.T) {
	partest.SetProcs(t, 1) // one file at a time: the first Write is a known one
	d := roundTripDataset()
	dir := filepath.Join(t.TempDir(), "out")
	fsys := faultfs.NewInject(1, &faultfs.Rule{Ops: faultfs.OpWrite, Nth: 1, Short: true})
	_, err := d.ExportCtx(t.Context(), dir, ExportOptions{FS: fsys})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("export = %v, want injected fault", err)
	}
	if left := exportDirEntries(t, dir); len(left) != 0 {
		t.Errorf("torn export left %v behind", left)
	}
}

// TestExportCommitRenameFault: a rename failing during the commit
// phase drops the remaining temps (no half-staged debris) while files
// renamed before the fault stay — they may be the only copy when
// re-exporting over an existing dataset.
func TestExportCommitRenameFault(t *testing.T) {
	partest.SetProcs(t, 1)
	d := roundTripDataset()
	dir := filepath.Join(t.TempDir(), "out")
	fsys := faultfs.NewInject(1, &faultfs.Rule{Ops: faultfs.OpRename, Nth: 2})
	_, err := d.ExportCtx(t.Context(), dir, ExportOptions{FS: fsys})
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("export = %v, want injected fault", err)
	}
	committed := 0
	for _, name := range exportDirEntries(t, dir) {
		if strings.HasPrefix(name, store.TempPrefix) {
			t.Errorf("commit fault left temp file %s", name)
			continue
		}
		committed++
	}
	if committed != 1 {
		t.Errorf("want exactly the 1 pre-fault committed file to survive, found %d", committed)
	}
}

// TestExportCleanSameBytesThroughInjector: an injector with no firing
// rules must be invisible — same files, same bytes as the plain path
// (the faultfs indirection cannot perturb determinism).
func TestExportCleanSameBytesThroughInjector(t *testing.T) {
	d := roundTripDataset()
	plainDir := filepath.Join(t.TempDir(), "plain")
	injDir := filepath.Join(t.TempDir(), "inj")
	partest.SetProcs(t, 2)
	if _, err := d.Export(plainDir, ExportOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Export(injDir, ExportOptions{FS: faultfs.NewInject(9)}); err != nil {
		t.Fatal(err)
	}
	plain := exportDirEntries(t, plainDir)
	inj := exportDirEntries(t, injDir)
	if len(plain) == 0 || len(plain) != len(inj) {
		t.Fatalf("file sets differ: %v vs %v", plain, inj)
	}
	for i := range plain {
		if plain[i] != inj[i] {
			t.Fatalf("file sets differ: %v vs %v", plain, inj)
		}
		a, err := os.ReadFile(filepath.Join(plainDir, plain[i]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(injDir, inj[i]))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between plain and injected export", plain[i])
		}
	}
}
