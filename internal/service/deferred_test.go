package service

import (
	"os"
	"slices"
	"strings"
	"testing"

	"datasynth/internal/core"
	"datasynth/internal/pgen"
	"datasynth/internal/schema"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// TestDeferredFillPanicFailsJobNotProcess: a column no task reads is
// filled inside the export, so a generator that panics there panics in
// the job's export leg. The job fails with the column, the rows and the
// panic in its error, nothing reaches the cache, and the daemon serves
// the next job. (No schema panics a generator any more, so the engine
// of the one job gets Person.creationDate — which nothing reads —
// swapped for a generator that does.)
func TestDeferredFillPanicFailsJobNotProcess(t *testing.T) {
	cacheDir := t.TempDir()
	svc := newTestService(t, Config{CacheDir: cacheDir})
	svc.newEngine = func(s *schema.Schema) *core.Engine {
		if s.Seed != 11 {
			return core.New(s)
		}
		bad := *s
		bad.Nodes = slices.Clone(s.Nodes)
		bad.Nodes[0].Properties = slices.Clone(s.Nodes[0].Properties)
		bad.Nodes[0].Properties[1].Generator = schema.GeneratorSpec{Name: "boom"}
		eng := core.New(&bad)
		eng.PGens["boom"] = func(*schema.Params) (pgen.Generator, error) {
			return pgen.PerRow("boom", table.KindDate, 0, func(id int64, _ xrand.Stream, _ []pgen.Value) (pgen.Value, error) {
				if id == 300 {
					panic("injected panic in a deferred fill")
				}
				return pgen.Value{Int: 17000}, nil
			}), nil
		}
		return eng
	}

	res, err := svc.Submit(testSchema(11), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, res.Job)
	if v.Status != StatusFailed {
		t.Fatalf("the job finished %s, want failed", v.Status)
	}
	for _, want := range []string{"writing nodes_Person.csv", "core: property Person.creationDate rows [0,600): ", "injected panic in a deferred fill"} {
		if !strings.Contains(v.Error, want) {
			t.Errorf("the job's error does not say %q:\n%s", want, v.Error)
		}
	}
	if svc.cache.has(res.Job.ID()) {
		t.Error("the failed job was stored")
	}
	if left, err := os.ReadDir(cacheDir); err != nil || len(left) != 0 {
		t.Errorf("the failed job left %v in the cache directory (%v)", left, err)
	}
	if got := svc.Stats().Jobs.Panics; got != 1 {
		t.Errorf("Stats.Jobs.Panics = %d, want 1", got)
	}

	good, err := svc.Submit(testSchema(21), table.FormatCSV)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, good.Job)
}
