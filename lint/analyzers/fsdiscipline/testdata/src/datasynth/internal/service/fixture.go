// Fixture for fsdiscipline's publish rule: in a scoped package other
// than internal/store, renaming through faultfs.FS is a hand-rolled
// commit — mediated, so the direct-os rule is silent, but a second
// place deciding how a name becomes visible.
package service

import "datasynth/internal/faultfs"

func privateCommit(fsys faultfs.FS, dir string, raw []byte) error {
	if err := fsys.WriteFile(dir+"/.tmp-entry", raw); err != nil {
		return err
	}
	return fsys.Rename(dir+"/.tmp-entry", dir+"/entry") // want `publish through store\.Dir\.Commit`
}

func allowedMove(fsys faultfs.FS, dir string) error {
	//lint:allow fsdiscipline fixture: moves a spool file between two private directories, publishes nothing
	return fsys.Rename(dir+"/spool/a", dir+"/done/a")
}
