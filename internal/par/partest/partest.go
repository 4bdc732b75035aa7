// Package partest is the test support for the pipeline's one
// parallelism rule (par.Procs): the only way a test varies how parallel
// the code under it runs.
package partest

import (
	"runtime"
	"testing"
)

// SetProcs sets GOMAXPROCS to n until the test (or benchmark) ends.
func SetProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
