package core

import (
	"fmt"
	"strings"
	"testing"

	"datasynth/internal/dsl"
	"datasynth/internal/graph"
	"datasynth/internal/par/partest"
	"datasynth/internal/pgen"
	"datasynth/internal/schema"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// TestAllStructureGeneratorsViaDSL drives every monopartite SG through
// the full engine pipeline.
func TestAllStructureGeneratorsViaDSL(t *testing.T) {
	for _, sg := range []string{
		"rmat(edgeFactor=4)",
		"lfr(avgDegree=8, maxDegree=20)",
		"bter(dmin=2, dmax=20)",
		"darwini(dmin=2, dmax=20)",
		"erdos-renyi(edgesPerNode=4)",
		"barabasi-albert(m=3)",
		"watts-strogatz(k=3, beta=0.1)",
		"cascade(minSize=1, maxSize=20)",
	} {
		sg := sg
		name := sg[:strings.Index(sg, "(")]
		t.Run(name, func(t *testing.T) {
			card := "*-*"
			if name == "cascade" {
				card = "1-*"
			}
			src := fmt.Sprintf(`
graph g {
  seed = 3
  node N {
    count = 600
    property c : string = categorical(values="x|y|z")
  }
  edge e : N %s N { structure = %s }
}
`, card, sg)
			s, err := dsl.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			d, err := New(s).Generate()
			if err != nil {
				t.Fatal(err)
			}
			et := d.Edges["e"]
			if et.Len() == 0 {
				t.Fatal("no edges")
			}
			if err := et.Validate(600, 600); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMultiValuedPropertyEndToEnd: the future-work multi-valued
// property flows through the engine as a regular string property.
func TestMultiValuedPropertyEndToEnd(t *testing.T) {
	src := `
graph g {
  seed = 5
  node Person {
    count = 300
    property interests : string = multi-categorical(dict="topics", min=2, max=4)
  }
  edge knows : Person *-* Person { structure = erdos-renyi(edgesPerNode=3) }
}
`
	s, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	interests := d.NodeProps["Person"][0]
	for id := int64(0); id < 300; id++ {
		parts := strings.Split(interests.String(id), ";")
		if len(parts) < 2 || len(parts) > 4 {
			t.Fatalf("row %d has %d interests", id, len(parts))
		}
	}
}

// TestWorkerCountInvariance: the dataset must be identical regardless
// of parallelism — the in-place generation guarantee.
func TestWorkerCountInvariance(t *testing.T) {
	s, err := dsl.Parse(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	gen := func(procs int) *table.Dataset {
		partest.SetProcs(t, procs)
		d, err := New(s).Generate()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	a, b := gen(1), gen(16)
	na, nb := a.NodeProps["Person"][2], b.NodeProps["Person"][2]
	for i := int64(0); i < na.Len(); i++ {
		if na.String(i) != nb.String(i) {
			t.Fatalf("Person.name row %d differs across GOMAXPROCS", i)
		}
	}
	ka, kb := a.EdgeProps["knows"][0], b.EdgeProps["knows"][0]
	for i := int64(0); i < ka.Len(); i++ {
		if ka.Int(i) != kb.Int(i) {
			t.Fatalf("knows.creationDate row %d differs across GOMAXPROCS", i)
		}
	}
}

// failingGen errors on a specific row — failure injection for the
// chunk fill path, five lines through pgen.PerRow.
func failingGen(failAt int64) pgen.Generator {
	return pgen.PerRow("failing", table.KindInt, 0, func(id int64, _ xrand.Stream, _ []pgen.Value) (pgen.Value, error) {
		if id == failAt {
			return pgen.Value{}, fmt.Errorf("injected failure at %d", id)
		}
		return pgen.Value{Int: id}, nil
	})
}

func TestParallelFillPropagatesErrors(t *testing.T) {
	s := &schema.Schema{
		Name: "f", Seed: 1,
		Nodes: []schema.NodeType{{
			Name: "N", Count: 50000,
			// q reads p, so p is filled by its task, on the engine's
			// workers; a column nothing reads is left to the export
			// (TestDeferredFillFailureFailsExport).
			Properties: []schema.Property{
				{Name: "p", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "failing"}},
				{Name: "q", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "sequence"}, DependsOn: []string{"p"}},
			},
		}},
	}
	e := New(s)
	e.PGens["failing"] = func(*schema.Params) (pgen.Generator, error) {
		return failingGen(43210), nil
	}
	_, err := e.Generate()
	if err == nil || !strings.Contains(err.Error(), "row 43210: injected failure") {
		t.Fatalf("err = %v, want the injected failure and its row", err)
	}
}

// TestSeedChangesOutput: different schema seeds must change everything.
func TestSeedChangesOutput(t *testing.T) {
	src := strings.Replace(paperDSL, "seed = 42", "seed = 43", 1)
	s1, err := dsl.Parse(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := New(s1).Generate()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(s2).Generate()
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := d1.NodeProps["Person"][0], d2.NodeProps["Person"][0]
	same := 0
	for i := int64(0); i < 2000; i++ {
		if c1.String(i) == c2.String(i) {
			same++
		}
	}
	// Countries follow the same skewed distribution so collisions are
	// expected, but full agreement would mean the seed is ignored.
	if same > 1800 {
		t.Errorf("different seeds agree on %d/2000 countries", same)
	}
}

// TestUncorrelatedDegreeBiasAbsent: random matching must not correlate
// instance id with degree.
func TestUncorrelatedDegreeBiasAbsent(t *testing.T) {
	src := `
graph g {
  seed = 9
  node N { count = 2000 property x : int = uniform-int() }
  edge e : N *-* N { structure = barabasi-albert(m=4) }
}
`
	s, err := dsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(d.Edges["e"], 2000)
	if err != nil {
		t.Fatal(err)
	}
	// BA generates hubs among early structure ids; after random
	// matching, the average degree of the first 10% of instance ids must
	// be near the global average.
	var lowIDs, all float64
	for v := int64(0); v < 2000; v++ {
		all += float64(g.Degree(v))
		if v < 200 {
			lowIDs += float64(g.Degree(v))
		}
	}
	ratio := (lowIDs / 200) / (all / 2000)
	if ratio > 1.5 {
		t.Errorf("early ids have %.2fx the average degree: id-degree bias survived matching", ratio)
	}
}

// TestJSONLExportEndToEnd exports a generated dataset as JSONL.
func TestJSONLExportEndToEnd(t *testing.T) {
	d := generatePaper(t)
	if _, err := d.Export(t.TempDir(), table.ExportOptions{Format: table.FormatJSONL}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineLogf exercises the progress logging path.
func TestEngineLogf(t *testing.T) {
	s, err := dsl.Parse(`graph g { seed = 1 node N { count = 10 property p : int = uniform-int() } }`)
	if err != nil {
		t.Fatal(err)
	}
	e := New(s)
	var lines []string
	e.Logf = func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	if _, err := e.Generate(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Error("no log lines emitted")
	}
}

// TestMatchingPassesImproveHomophily: the DSL `passes` knob must raise
// realised homophily on the running example.
func TestMatchingPassesImproveHomophily(t *testing.T) {
	measure := func(src string) float64 {
		s, err := dsl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		d, err := New(s).Generate()
		if err != nil {
			t.Fatal(err)
		}
		knows := d.Edges["knows"]
		country := d.NodeProps["Person"][0]
		same := 0.0
		for e := int64(0); e < knows.Len(); e++ {
			if country.String(int64(knows.Tail[e])) == country.String(int64(knows.Head[e])) {
				same++
			}
		}
		return same / float64(knows.Len())
	}
	base := measure(paperDSL)
	refined := measure(strings.Replace(paperDSL,
		"correlate country homophily 0.8",
		"correlate country homophily 0.8 passes 2", 1))
	if refined <= base {
		t.Errorf("passes=2 homophily %v not above single-pass %v", refined, base)
	}
}
