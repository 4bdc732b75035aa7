package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datasynth/internal/dsl"
	"datasynth/internal/par/partest"
	"datasynth/internal/pgen"
	"datasynth/internal/schema"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// quickstartSchema mirrors examples/quickstart: a correlated LFR graph
// over one node type.
func quickstartSchema() *schema.Schema {
	return &schema.Schema{
		Name: "quickstart",
		Seed: 7,
		Nodes: []schema.NodeType{{
			Name:  "User",
			Count: 2000,
			Properties: []schema.Property{
				{
					Name: "city", Kind: table.KindString,
					Generator: schema.GeneratorSpec{
						Name:   "categorical",
						Params: map[string]string{"values": "tokyo|paris|lima|cairo", "weights": "4|3|2|1"},
					},
				},
				{
					Name: "karma", Kind: table.KindInt,
					Generator: schema.GeneratorSpec{
						Name:   "uniform-int",
						Params: map[string]string{"lo": "0", "hi": "1000"},
					},
				},
			},
		}},
		Edges: []schema.EdgeType{{
			Name: "follows", Tail: "User", Head: "User",
			Cardinality: schema.ManyToMany,
			Structure: schema.GeneratorSpec{
				Name:   "lfr",
				Params: map[string]string{"avgDegree": "12", "maxDegree": "40"},
			},
			Correlation: &schema.Correlation{Property: "city", Homophily: 0.7},
		}},
	}
}

// socialDSL mirrors examples/socialnetwork at test scale: multiple node
// types, a count inferred through a 1→* edge, correlated matching,
// conditional properties, and an edge property with endpoint deps —
// the widest task DAG the examples exercise.
const socialDSL = `
graph social {
  seed = 42
  node Person {
    count = 3000
    property country : string = categorical(dict="countries")
    property sex     : string = categorical(values="M|F")
    property name    : string = dictionary() given (country, sex)
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }
  node Message {
    property topic : string = categorical(dict="topics")
  }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=12, maxDegree=40)
    correlate country homophily 0.8
    property creationDate : date = max-endpoint-date(maxDays=365) given (tail.creationDate, head.creationDate)
  }
  edge creates : Person 1-* Message {
    structure = powerlaw-out(min=1, max=10, gamma=2.0)
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }
}
`

// TestSchedulerDeterminismQuickstart: the plan waves must produce a
// byte-identical dataset at any GOMAXPROCS (the determinism table of
// export_determinism_test.go).
func TestSchedulerDeterminismQuickstart(t *testing.T) {
	checkExportDeterminism(t, quickstartSchema, 6)
}

func TestSchedulerDeterminismSocialNetwork(t *testing.T) {
	checkExportDeterminism(t, func() *schema.Schema {
		s, err := dsl.Parse(socialDSL)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}, 12)
}

// TestParallelFillErrorNoDeadlock: a generator that errors on every
// row fails every chunk any worker picks up; the fill must stop and
// report the error rather than hang or run the remaining 4M rows' worth
// of chunks to completion one failure at a time.
func TestParallelFillErrorNoDeadlock(t *testing.T) {
	e := New(&schema.Schema{Name: "x", Seed: 1, Nodes: []schema.NodeType{{
		Name: "T", Count: 1 << 22, // 4M rows ≫ ChunkRows · workers
		// q reads p, which keeps p's fill in its task and on the workers.
		Properties: []schema.Property{
			{Name: "p", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "always-fails"}},
			{Name: "q", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "sequence"}, DependsOn: []string{"p"}},
		},
	}}})
	partest.SetProcs(t, 2)
	var rows atomic.Int64
	e.PGens["always-fails"] = func(*schema.Params) (pgen.Generator, error) {
		return pgen.PerRow("always-fails", table.KindInt, 0, func(id int64, _ xrand.Stream, _ []pgen.Value) (pgen.Value, error) {
			rows.Add(1)
			return pgen.Value{}, fmt.Errorf("boom at row %d", id)
		}), nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Generate()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom at row") {
			t.Fatalf("err = %v, want the generator's error", err)
		}
		if n := rows.Load(); n > 2 {
			t.Errorf("fill went on for %d rows after the first failure, want one per worker at most", n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("fill hung after its workers failed")
	}
}

// TestSchedulerErrorPropagates: a task that fails inside the plan's
// second level surfaces its own error from Generate, and no task of a
// later level starts. b reads a and fails on every row; c reads b, and d
// reads c so that c is filled, not deferred.
func TestSchedulerErrorPropagates(t *testing.T) {
	var cRan atomic.Bool
	e := New(&schema.Schema{Name: "x", Seed: 1, Nodes: []schema.NodeType{{
		Name: "T", Count: 16,
		Properties: []schema.Property{
			{Name: "a", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "sequence"}},
			{Name: "b", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "fails"}, DependsOn: []string{"a"}},
			{Name: "c", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "records"}, DependsOn: []string{"b"}},
			{Name: "d", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "sequence"}, DependsOn: []string{"c"}},
		},
	}}})
	e.PGens["fails"] = func(*schema.Params) (pgen.Generator, error) {
		return pgen.PerRow("fails", table.KindInt, 1, func(int64, xrand.Stream, []pgen.Value) (pgen.Value, error) {
			return pgen.Value{}, fmt.Errorf("second-level failure")
		}), nil
	}
	e.PGens["records"] = func(*schema.Params) (pgen.Generator, error) {
		return pgen.PerRow("records", table.KindInt, 1, func(id int64, _ xrand.Stream, _ []pgen.Value) (pgen.Value, error) {
			cRan.Store(true)
			return pgen.Value{Int: id}, nil
		}), nil
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Generate()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.HasPrefix(err.Error(), "core: task P:T.b: ") || !strings.Contains(err.Error(), "second-level failure") {
			t.Fatalf("err = %v, want task P:T.b's second-level failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Generate hung on a failing task")
	}
	if cRan.Load() {
		t.Error("T.c, a task of the level after the failure, started")
	}
}

// threeProps is one node type whose property c reads a and b, so that
// neither is deferred and both run in the plan's first level: P:T.a is
// task 0 and P:T.b task 1.
func threeProps(a, b string) *schema.Schema {
	return &schema.Schema{Name: "x", Seed: 1, Nodes: []schema.NodeType{{
		Name: "T", Count: 16,
		Properties: []schema.Property{
			{Name: "a", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: a}},
			{Name: "b", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: b}},
			{Name: "c", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "sequence"}, DependsOn: []string{"a", "b"}},
		},
	}}}
}

// TestPlanErrorNamesLowestTask: when two tasks of one level fail, the
// plan's error names the lower plan index whichever fails first —
// par.ForEachCtx's rule. a fails 50 ms late, b at once.
func TestPlanErrorNamesLowestTask(t *testing.T) {
	partest.SetProcs(t, 2)
	failing := func(msg string, delay time.Duration) pgen.Factory {
		return func(*schema.Params) (pgen.Generator, error) {
			return pgen.PerRow(msg, table.KindInt, 0, func(int64, xrand.Stream, []pgen.Value) (pgen.Value, error) {
				time.Sleep(delay)
				return pgen.Value{}, fmt.Errorf("%s", msg)
			}), nil
		}
	}
	for trial := 0; trial < 5; trial++ {
		e := New(threeProps("slow", "fast"))
		e.PGens["slow"] = failing("slow failure", 50*time.Millisecond)
		e.PGens["fast"] = failing("fast failure", 0)
		_, err := e.Generate()
		if err == nil || !strings.HasPrefix(err.Error(), "core: task P:T.a: ") {
			t.Fatalf("trial %d: err = %v, want task P:T.a's", trial, err)
		}
	}
}

// TestLevelTasksRunTogether: at GOMAXPROCS=2 the two tasks of one plan
// level run at once — each generator waits for the other to start. An
// executor that ran them one after the other fails here after 5 s.
func TestLevelTasksRunTogether(t *testing.T) {
	partest.SetProcs(t, 2)
	started := map[string]chan struct{}{"a": make(chan struct{}), "b": make(chan struct{})}
	meet := func(self, other string) pgen.Factory {
		var once sync.Once
		return func(*schema.Params) (pgen.Generator, error) {
			return pgen.PerRow(self, table.KindInt, 0, func(id int64, _ xrand.Stream, _ []pgen.Value) (pgen.Value, error) {
				once.Do(func() { close(started[self]) })
				select {
				case <-started[other]:
					return pgen.Value{Int: id}, nil
				case <-time.After(5 * time.Second):
					return pgen.Value{}, fmt.Errorf("%s ran alone: %s had not started after 5s", self, other)
				}
			}), nil
		}
	}
	e := New(threeProps("a", "b"))
	e.PGens["a"] = meet("a", "b")
	e.PGens["b"] = meet("b", "a")
	if _, err := e.Generate(); err != nil {
		t.Fatal(err)
	}
}
