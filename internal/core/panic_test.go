package core

import (
	"errors"
	"strings"
	"testing"

	"datasynth/internal/dsl"
	"datasynth/internal/par"
	"datasynth/internal/par/partest"
	"datasynth/internal/pgen"
	"datasynth/internal/schema"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// panicDSL names a generator the test registers to panic in the fill
// workers. (The schema that used to — uniform-int over the full int64
// range, whose span overflows to zero — is rejected by validation
// since PR 16.) q reads p, so p is filled by its own task.
const panicDSL = `graph boom {
  seed = 7
  node A {
    count = 64
    property p : int = boom()
    property q : int = sequence() given (p)
  }
}`

func TestGeneratorPanicReturnsError(t *testing.T) {
	s, err := dsl.Parse(panicDSL)
	if err != nil {
		t.Fatal(err)
	}
	boom := func(*schema.Params) (pgen.Generator, error) {
		return pgen.PerRow("boom", table.KindInt, 0, func(id int64, s xrand.Stream, _ []pgen.Value) (pgen.Value, error) {
			return pgen.Value{Int: s.Intn(id, 0)}, nil // xrand panics on an empty range
		}), nil
	}
	for _, procs := range []int{1, 4} {
		partest.SetProcs(t, procs)
		eng := New(s)
		eng.PGens["boom"] = boom
		_, err := eng.Generate()
		if err == nil {
			t.Fatalf("GOMAXPROCS=%d: Generate must fail, not crash or succeed", procs)
		}
		var pe *par.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("GOMAXPROCS=%d: err = %T %v, want *par.PanicError", procs, err, err)
		}
		if !strings.Contains(err.Error(), "panic") {
			t.Fatalf("GOMAXPROCS=%d: error should say panic: %v", procs, err)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("GOMAXPROCS=%d: recovered panic must carry the stack", procs)
		}
	}
}
