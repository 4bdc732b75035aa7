// Package faultfs is a fixture stub of the real package: fsdiscipline
// matches the publish rule on this import path, so the fixtures need
// an FS declared here.
package faultfs

// FS is the slice of the real interface the fixtures call.
type FS interface {
	WriteFile(name string, data []byte) error
	Rename(oldpath, newpath string) error
}
