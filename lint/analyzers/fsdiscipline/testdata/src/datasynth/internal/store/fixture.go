// Fixture for fsdiscipline's publish rule: internal/store is the one
// package whose Rename is the protocol itself.
package store

import "datasynth/internal/faultfs"

func commit(fsys faultfs.FS, stage, final string) error {
	return fsys.Rename(stage, final)
}
