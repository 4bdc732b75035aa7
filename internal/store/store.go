// Package store is the one crash-safe disk protocol under the dataset
// cache, the scenario registry and the table export: stage under a
// temp name, commit by rename, and at the next startup sweep whatever
// a crash left behind into quarantine. Its clients keep policy only
// (what an entry is, when it is valid, when it is evicted); how a name
// becomes visible is decided here and nowhere else.
//
// Two invariants, after the sdgen blueprint, are the contract:
//
//   - Target safety. A final name only ever holds a complete entry:
//     content is written under a TempPrefix sibling and reaches the
//     final name by one Rename. A file replaces its predecessor
//     atomically; a directory cannot be renamed over, so its
//     predecessor is removed first and a failure in between leaves the
//     name absent — a miss, never half an entry.
//   - Validation first. Nothing reaches Stage before it validated;
//     Recover re-applies the client's validation to everything already
//     on disk and moves what fails it, and every temp, into
//     QuarantineDir instead of serving or deleting it.
//
// Nothing here calls Sync yet: Commit is the single place durability
// (File.Sync + directory sync) is to be added.
package store

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"datasynth/internal/faultfs"
)

// TempPrefix marks in-progress entries; a crash leaves at worst a temp
// the next Recover quarantines.
const TempPrefix = ".tmp-"

// QuarantineDir, directly under the root, is where Recover moves crash
// debris instead of deleting it: a rename is cheap, atomic, works even
// when deletion is what is failing, and keeps the evidence for a
// post-mortem until the next startup clears it.
const QuarantineDir = ".quarantine"

// Dir is a crash-safe directory of entries named by root-relative
// paths. It is safe for concurrent use as long as no two callers stage
// or commit the same name at once — its clients serialise per name.
type Dir struct {
	root string
	fsys faultfs.FS
	logf func(format string, args ...any)

	quarantined  atomic.Int64
	cleanupFails atomic.Int64
}

// Open returns the Dir rooted at root, creating the directory if
// needed. A nil fsys is the real filesystem; a nil logf discards.
func Open(root string, fsys faultfs.FS, logf func(format string, args ...any)) (*Dir, error) {
	fsys = faultfs.OrOS(fsys)
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := fsys.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	return &Dir{root: root, fsys: fsys, logf: logf}, nil
}

// FS is the filesystem every operation of the Dir goes through.
func (d *Dir) FS() faultfs.FS { return d.fsys }

// Path is the final path of entry rel.
func (d *Dir) Path(rel string) string { return filepath.Join(d.root, rel) }

// Temp is the staging path of entry rel: a TempPrefix sibling of its
// final name.
func (d *Dir) Temp(rel string) string {
	return filepath.Join(d.root, filepath.Dir(rel), TempPrefix+filepath.Base(rel))
}

// Stage returns Temp(rel), guaranteed absent: debris of an earlier
// attempt at the same name is swept first.
func (d *Dir) Stage(rel string) (string, error) {
	tmp := d.Temp(rel)
	return tmp, d.fsys.RemoveAll(tmp)
}

// Commit publishes the staged file or directory under rel, replacing
// what was there. It is idempotent: stage gone and final present means
// the rename already happened — an earlier Commit whose acknowledgement
// was lost, or a repeated call — and is success, so a caller never
// fails or re-stages an entry that is fully on disk.
func (d *Dir) Commit(stage, rel string) error {
	final := d.Path(rel)
	fi, err := d.fsys.Stat(stage)
	if err == nil && fi.IsDir() {
		err = d.fsys.RemoveAll(final)
	}
	if err == nil {
		err = d.fsys.Rename(stage, final)
	}
	if err != nil && d.committed(stage, final) {
		return nil
	}
	return err
}

func (d *Dir) committed(stage, final string) bool {
	if _, err := d.fsys.Stat(stage); !os.IsNotExist(err) {
		return false
	}
	_, err := d.fsys.Stat(final)
	return err == nil
}

// WriteFile commits data as the file rel: stage, write, Commit. On
// failure the temp is swept (counted if that fails too) and the
// previous content of rel, if any, is untouched.
func (d *Dir) WriteFile(rel string, data []byte) error {
	tmp := d.Temp(rel)
	err := d.fsys.MkdirAll(filepath.Dir(tmp), 0o755)
	if err == nil {
		err = d.fsys.WriteFile(tmp, data, 0o644)
	}
	if err == nil {
		err = d.Commit(tmp, rel)
	}
	if err != nil {
		d.Remove(tmp)
	}
	return err
}

// Remove deletes path (absolute, anywhere under the root) and all
// below it. A failure is logged, counted and returned; callers for
// whom a leaked path is not fatal ignore the result.
func (d *Dir) Remove(path string) error {
	err := d.fsys.RemoveAll(path)
	if err != nil {
		d.cleanupFails.Add(1)
		d.logf("store: removing %s failed: %v", path, err)
	}
	return err
}

// Quarantine moves entry rel into QuarantineDir under a unique flat
// name, falling back to counted removal when the move itself fails.
func (d *Dir) Quarantine(rel string) {
	src, qdir := d.Path(rel), d.Path(QuarantineDir)
	if err := d.fsys.MkdirAll(qdir, 0o755); err != nil {
		d.logf("store: quarantine dir: %v; removing %s instead", err, src)
		d.Remove(src)
		return
	}
	flat := strings.ReplaceAll(rel, string(filepath.Separator), "__")
	dst := filepath.Join(qdir, flat)
	for i := 1; ; i++ {
		if _, err := d.fsys.Stat(dst); err != nil {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s-%d", flat, i))
	}
	if err := d.fsys.Rename(src, dst); err != nil {
		d.logf("store: quarantining %s failed: %v; removing instead", src, err)
		d.Remove(src)
		return
	}
	d.quarantined.Add(1)
	d.logf("store: quarantined %s -> %s", src, dst)
}

// Recover is the startup sweep of the directory sub ("" for the root,
// where it first removes the previous run's QuarantineDir: its
// post-mortem window is over). Every temp, and every other entry keep
// rejects, is quarantined. keep is the client's validation of what it
// committed; it sees entries in name order and may record the ones it
// accepts.
func (d *Dir) Recover(sub string, keep func(fs.DirEntry) bool) error {
	if sub == "" {
		d.Remove(d.Path(QuarantineDir))
	}
	des, err := d.fsys.ReadDir(d.Path(sub))
	if err != nil {
		return err
	}
	for _, de := range des {
		name := de.Name()
		if sub == "" && name == QuarantineDir {
			continue // its removal failed, and was counted
		}
		if strings.HasPrefix(name, TempPrefix) || !keep(de) {
			d.Quarantine(filepath.Join(sub, name))
		}
	}
	return nil
}

// Quarantined counts the entries Recover (or Quarantine) moved aside.
func (d *Dir) Quarantined() int64 { return d.quarantined.Load() }

// CleanupFailures counts removals that failed.
func (d *Dir) CleanupFailures() int64 { return d.cleanupFails.Load() }
