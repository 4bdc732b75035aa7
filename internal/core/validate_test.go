package core

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"datasynth/internal/dsl"
	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// badGeneratorSpecs are schemas that parse and pass the referential
// checks but name a generator that cannot run. Each used to validate,
// be admitted by the daemon, and fail at "row 0" after unrelated tasks
// had already generated their tables.
var badGeneratorSpecs = []struct{ name, decl, want string }{
	{"unknown generator", `property y : int = nosuchgen()`, `unknown generator "nosuchgen"`},
	{"empty int range", `property y : int = uniform-int(lo=5, hi=1)`, "range [5,1] empty"},
	{"overflowing int range", `property y : int = uniform-int(lo=-9223372036854775808, hi=9223372036854775807)`, "holds more than"},
	{"empty float range", `property y : float = uniform-float(lo=2, hi=2)`, "empty"},
	{"empty date range", `property y : date = uniform-date(from="2020-01-02", to="2020-01-01")`, "empty"},
	{"bad date", `property y : date = uniform-date(from="2020-13-45")`, "bad date"},
	{"negative std", `property y : float = normal(std=-1)`, "std >= 0"},
	{"text bounds", `property y : string = text(min=0, max=3)`, "word bounds [0,3]"},
	{"rating range", `property y : int = rating(lo=3, hi=3)`, "rating range"},
	{"malformed parameter", `property y : int = uniform-int(lo=abc)`, "not an integer"},
	{"misspelt parameter", `property y : int = uniform-int(low=5, hi=10)`, "uniform-int has no parameter low"},
	{"dictionary beside values", `property y : string = categorical(dict="topics", values="a|b")`, "categorical takes values= or dict=, not both"},
	{"kind mismatch", `property y : int = categorical(values="a|b")`, "produces string but the property is declared int"},
	{"constant on an int", `property y : int = constant(value="7")`, "produces string"},
	{"sequence on a float", `property y : float = sequence()`, "produces int"},
	{"missing dependencies", `property y : string = dictionary()`, "needs 2 dependencies"},
	{"endpoint-copy kind", `property y : int = endpoint-copy() given (x)`, "produces string but the property is declared int"},
	{"sequence of days past the domain", `property y : date = sequence(offset=2932800)`, "outside the date domain"},
	{"sequence of days before the domain", `property y : date = sequence(offset=-9000000000000000000)`, "outside the date domain"},
}

func badSchema(decl string) string {
	return `graph g {
  seed = 1
  node A {
    count = 100
    property x : string = categorical(values="p|q")
    ` + decl + `
  }
}`
}

// TestValidateSchemaBuildsGenerators: validation-first for generator
// specs — every bad spec is rejected by ValidateSchema with an error
// naming type.property, and Generate refuses it before running a task.
func TestValidateSchemaBuildsGenerators(t *testing.T) {
	for _, c := range badGeneratorSpecs {
		s, err := dsl.Parse(badSchema(c.decl))
		if err != nil {
			t.Fatalf("%s: the schema must parse: %v", c.name, err)
		}
		err = ValidateSchema(s)
		if err == nil || !strings.Contains(err.Error(), "A.y") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ValidateSchema = %v, want an error naming A.y and %q", c.name, err, c.want)
		}
		e := New(s)
		tasks := 0
		e.Logf = func(format string, _ ...any) {
			if strings.HasPrefix(format, "task ") {
				tasks++
			}
		}
		if _, err := e.Generate(); err == nil || !strings.Contains(err.Error(), "A.y") {
			t.Errorf("%s: Generate = %v, want the validation error", c.name, err)
		}
		if tasks != 0 {
			t.Errorf("%s: %d tasks ran before the bad generator was noticed", c.name, tasks)
		}
	}
}

// TestValidateSchemaRejectsPassesOnTailHead: a fused tail/head edge
// draws its structure already matched, so `passes` on it is a
// validation error naming the edge, not a schema that validates and
// then runs zero refinement. A bipartite tail/head edge is matched by
// SBM-Part like a one-domain one: `passes` on it validates and refines,
// and its match task notes each pass.
func TestValidateSchemaRejectsPassesOnTailHead(t *testing.T) {
	s, err := dsl.Parse(fusedDSL)
	if err != nil {
		t.Fatal(err)
	}
	s.Edges[0].Correlation.Passes = 2
	err = ValidateSchema(s)
	if err == nil || !strings.Contains(err.Error(), `edge "posts"`) || !strings.Contains(err.Error(), "2 refinement passes") {
		t.Errorf("ValidateSchema = %v, want an error naming edge \"posts\" and its 2 refinement passes", err)
	}
	if _, err := New(s).Generate(); err == nil {
		t.Error("Generate accepted passes on a fused correlation")
	}
	// The DSL front door (-validate, admission, PUT /v1/scenarios all
	// parse first) refuses the clause itself.
	if _, err := dsl.Parse(strings.Replace(fusedDSL, "homophily 0.9 fused", "homophily 0.9 fused passes 2", 1)); err == nil || !strings.Contains(err.Error(), `edge "posts"`) {
		t.Errorf("dsl.Parse with passes 2 = %v, want an error naming edge \"posts\"", err)
	}

	bipartite := strings.NewReplacer("1-* Message", "*-* Message", "Message {", "Message {\n    count = 500",
		"powerlaw-out(min=2, max=6, gamma=2.0)", "zipf-attachment(min=1, max=5, gamma=2.0, theta=1.1)",
		"homophily 0.9 fused", "homophily 0.9 passes 2").Replace(fusedDSL)
	if s, err = dsl.Parse(bipartite); err != nil {
		t.Fatalf("passes on a bipartite correlation: %v", err)
	}
	e := New(s)
	if _, err := e.Generate(); err != nil {
		t.Fatal(err)
	}
	if notes := matchNotes(e.Report()); len(notes) != 1 || !strings.Contains(notes[0], " (passes ") {
		t.Errorf("bipartite match notes %q, want one with a (passes …) breakdown", notes)
	}
	if err := ValidateSchema(refinedQuickstartSchema()); err != nil {
		t.Errorf("passes on a monopartite correlation: %v", err)
	}
}

// TestValidateSchemaRejectsMatrix: a correlation's target is a homophily
// model. A Go-built schema that sets an explicit matrix — which the DSL
// cannot write and the canonical hash would not cover — is refused by
// ValidateSchema and Generate, naming the edge, on one-domain and
// tail/head correlations alike.
func TestValidateSchemaRejectsMatrix(t *testing.T) {
	mono := &schema.Schema{
		Name: "m",
		Seed: 5,
		Nodes: []schema.NodeType{{
			Name:  "N",
			Count: 600,
			Properties: []schema.Property{
				{Name: "c", Kind: table.KindString, Generator: schema.GeneratorSpec{Name: "categorical", Params: map[string]string{"values": "a|b"}}},
			},
		}},
		Edges: []schema.EdgeType{{
			Name: "e", Tail: "N", Head: "N",
			Cardinality: schema.ManyToMany,
			Structure:   schema.GeneratorSpec{Name: "lfr", Params: map[string]string{"avgDegree": "8", "maxDegree": "20"}},
			Correlation: &schema.Correlation{Property: "c", Matrix: [][]float64{{0.45, 0.1}, {0, 0.45}}},
		}},
	}
	bip, err := dsl.Parse(recommenderDSL)
	if err != nil {
		t.Fatal(err)
	}
	bip.Edges[0].Correlation.Matrix = [][]float64{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}}
	for _, c := range []struct {
		s    *schema.Schema
		edge string
	}{{mono, `edge "e"`}, {bip, `edge "rates"`}} {
		if err := ValidateSchema(c.s); err == nil || !strings.Contains(err.Error(), c.edge) || !strings.Contains(err.Error(), "matrix") {
			t.Errorf("ValidateSchema = %v, want an error naming %s and the matrix", err, c.edge)
		}
		if _, err := New(c.s).Generate(); err == nil || !strings.Contains(err.Error(), c.edge) {
			t.Errorf("Generate = %v, want the validation error naming %s", err, c.edge)
		}
	}
}

// TestValidateSchemaAcceptsKindFollowers: the generators whose kind
// follows the property still validate where they make sense — sequence
// numbering days, endpoint-copy of each kind.
func TestValidateSchemaAcceptsKindFollowers(t *testing.T) {
	s, err := dsl.Parse(`graph g {
  seed = 1
  node A {
    count = 50
    property tag : string = text(min=1, max=2)
    property day : date = sequence(offset=17000)
    property score : float = normal()
  }
  edge e : A *-* A {
    structure = erdos-renyi(edgesPerNode=8)
    property tag : string = endpoint-copy() given (tail.tag)
    property day : date = endpoint-copy() given (head.day)
    property score : float = endpoint-copy() given (tail.score)
    property later : date = max-endpoint-date(maxDays=10) given (day)
  }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchema(s); err != nil {
		t.Fatal(err)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	et, props := d.Edges["e"], d.EdgeProps["e"]
	node := d.NodeProps["A"]
	for i := int64(0); i < et.Len(); i++ {
		if props[0].String(i) != node[0].String(int64(et.Tail[i])) || props[1].Int(i) != node[1].Int(int64(et.Head[i])) || props[2].Float(i) != node[2].Float(int64(et.Tail[i])) {
			t.Fatalf("edge %d does not carry its endpoints' values", i)
		}
		if lag := props[3].Int(i) - props[1].Int(i); lag < 1 || lag > 10 {
			t.Fatalf("edge %d: later is %d days after day", i, lag)
		}
	}
}

// TestDatesStayInDomain: a date property the schema alone shows leaving
// 0001-01-01 … 9999-12-31 — a lag on top of late uniform dates, of a
// sequence of days, of an endpoint-copy or of another lag — is a
// validation error naming the property, not a failed export after
// generation.
func TestDatesStayInDomain(t *testing.T) {
	src := func(born, props string) string {
		return `graph g {
  seed = 1
  node A {
    count = 50
    property born : date = ` + born + `
  }
  edge e : A *-* A {
    structure = erdos-renyi(edgesPerNode=8)
    ` + props + `
  }
}`
	}
	const lag = `property met : date = max-endpoint-date(maxDays=365) given (tail.born, head.born)`
	for _, c := range []struct {
		name, born, props, bad string
	}{
		{"in domain", `uniform-date(from="9000-01-01", to="9998-12-31")`, lag, ""},
		{"late uniform date", `uniform-date(from="9000-01-01", to="9999-06-01")`, lag, "e.met"},
		{"long lag", `uniform-date(from="9000-01-01", to="9000-01-02")`,
			`property met : date = max-endpoint-date(maxDays=3000000) given (tail.born)`, "e.met"},
		{"late sequence", `sequence(offset=2932700)`, lag, "e.met"},
		{"sequence in domain", `sequence(offset=2932400)`, lag, ""},
		{"through endpoint-copy", `uniform-date(from="9000-01-01", to="9999-06-01")`,
			`property seen : date = endpoint-copy() given (tail.born)
    property met : date = max-endpoint-date(maxDays=365) given (seen)`, "e.met"},
		{"chained lags", `uniform-date(from="9000-01-01", to="9998-06-01")`,
			lag + `
    property again : date = max-endpoint-date(maxDays=365) given (met)`, "e.again"},
		{"chained lags in domain", `uniform-date(from="9000-01-01", to="9997-06-01")`,
			lag + `
    property again : date = max-endpoint-date(maxDays=365) given (met)`, ""},
	} {
		s, err := dsl.Parse(src(c.born, c.props))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		err = ValidateSchema(s)
		if c.bad == "" && err != nil {
			t.Errorf("%s: ValidateSchema = %v, want none", c.name, err)
		}
		if c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad) || !strings.Contains(err.Error(), "outside the date domain")) {
			t.Errorf("%s: ValidateSchema = %v, want a date-domain error naming %s", c.name, err, c.bad)
		}
	}
}

// TestLabelsForLayouts: the matcher's labels rank values by first
// appearance whatever the column's layout — a coded column is ranked
// code by code (two codes that spell one value share its label), an
// arena column row by row.
func TestLabelsForLayouts(t *testing.T) {
	rows := []string{"b", "a", "b", "c", "a", "c", "c"}
	wantLabels, wantValues := []int64{0, 1, 0, 2, 1, 2, 2}, []string{"b", "a", "c"}
	coded := table.NewStringTable("T.v", int64(len(rows)), []string{"c", "a", "unused", "b", "a"})
	codes, _ := coded.Coded()
	copy(codes, []uint32{3, 1, 3, 0, 4, 0, 0}) // "a" under codes 1 and 4
	arena := table.NewStringTable("T.v", int64(len(rows)), nil)
	if err := arena.FillChunk(0, int64(len(rows)), func(dst *table.Chunk) error {
		for _, v := range rows {
			dst.AppendStr(v)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for name, pt := range map[string]*table.PropertyTable{"coded": coded, "arena": arena} {
		labels, values := labelsFor(pt)
		if !slices.Equal(labels, wantLabels) || !slices.Equal(values, wantValues) {
			t.Errorf("%s: labels %v over %v, want %v over %v", name, labels, values, wantLabels, wantValues)
		}
	}
}

// badStructureSpecs are structure specs that parse but cannot run: one
// row per generator and kind of failure. Each used to validate and be
// admitted, and then fail at its structure task — or, for a misspelt
// parameter, generate with the default under a hash of its own.
var badStructureSpecs = []struct{ name, card, spec, want string }{
	{"unknown generator", "*-*", `nosuchgen(a=1)`, `"nosuchgen"`},
	{"unknown bipartite generator", "*-* B", `nosuchgen()`, `"nosuchgen"`},
	{"monopartite generator between two types", "*-* B", `rmat()`, `unknown bipartite structure generator "rmat"`},
	{"rmat probabilities", "*-*", `rmat(a=0.9)`, "probabilities sum to"},
	{"rmat negative probability", "*-*", `rmat(a=1.2, d=-0.58)`, "non-negative"},
	{"rmat NaN probability", "*-*", `rmat(a=NaN)`, "probabilities sum to"},
	{"rmat edge factor", "*-*", `rmat(edgeFactor=0)`, "edge factor"},
	{"rmat noise", "*-*", `rmat(noise=1.5)`, "noise 1.5 outside [0,1]"},
	{"rmat unknown parameter", "*-*", `rmat(edgefactor=8)`, "rmat has no parameter edgefactor"},
	{"rmat malformed parameter", "*-*", `rmat(keepDuplicates=maybe)`, "not a boolean"},
	{"lfr mu", "*-*", `lfr(mu=1.5)`, "mixing parameter 1.5 outside [0,1]"},
	{"lfr NaN mu", "*-*", `lfr(mu=NaN)`, "mixing parameter"},
	{"lfr average degree", "*-*", `lfr(avgDegree=1)`, "average degree must exceed 1"},
	{"lfr max degree", "*-*", `lfr(avgDegree=20, maxDegree=10)`, "max degree 10 below average"},
	{"lfr communities", "*-*", `lfr(minCommunity=50, maxCommunity=10)`, "community bounds [50,10]"},
	{"lfr exponents", "*-*", `lfr(tau1=1)`, "exponents"},
	{"lfr unknown parameter", "*-*", `lfr(avgdegree=4)`, "lfr has no parameter avgdegree"},
	{"bter degree bounds", "*-*", `bter(dmin=9, dmax=3)`, "degree bounds [9,3]"},
	{"bter gamma", "*-*", `bter(gamma=0)`, "gamma > 0"},
	{"bter unknown parameter", "*-*", `bter(spread=0.5)`, "bter has no parameter spread"},
	{"darwini spread", "*-*", `darwini(spread=2)`, "CCSpread 2 outside [0,1]"},
	{"darwini degree bounds", "*-*", `darwini(dmin=0)`, "degree bounds [0,50]"},
	{"cascade sizes", "1-*", `cascade(minSize=9, maxSize=3)`, "tree size bounds [9,3]"},
	{"cascade gamma", "1-*", `cascade(gamma=-2)`, "gamma must be positive"},
	{"cascade recency", "1-*", `cascade(preferRecent=1.1)`, "PreferRecent 1.1 outside [0,1]"},
	{"erdos-renyi density", "*-*", `erdos-renyi(edgesPerNode=0)`, "positive edges per node"},
	{"erdos-renyi unknown parameter", "*-*", `erdos-renyi(p=0.1)`, "erdos-renyi has no parameter p (it has: edgesPerNode)"},
	{"barabasi-albert m", "*-*", `barabasi-albert(m=0)`, "M >= 1"},
	{"watts-strogatz k", "*-*", `watts-strogatz(k=0)`, "K >= 1"},
	{"watts-strogatz beta", "*-*", `watts-strogatz(beta=-0.1)`, "beta -0.1 outside [0,1]"},
	{"powerlaw-out bounds", "1-* B", `powerlaw-out(min=5, max=2)`, "min <= max, got [5,2]"},
	{"powerlaw-out gamma", "1-* B", `powerlaw-out(gamma=0)`, "gamma > 0"},
	{"powerlaw-out unknown parameter", "1-* B", `powerlaw-out(theta=1)`, "powerlaw-out has no parameter theta"},
	{"zipf-attachment theta", "*-* B", `zipf-attachment(theta=-1)`, "theta > 0, got -1"},
	{"zipf-attachment bounds", "*-* B", `zipf-attachment(min=9, max=3)`, "min <= max, got [9,3]"},
	{"zipf-attachment gamma", "*-* B", `zipf-attachment(gamma=NaN)`, "gamma > 0"},
	{"zipf-attachment unknown parameter", "*-* B", `zipf-attachment(bogus=3, min=1, max=4)`, "zipf-attachment has no parameter bogus (it has: gamma, max, min, theta)"},
	{"zipf-attachment malformed parameter", "*-* B", `zipf-attachment(max=many)`, "not an integer"},
	{"one-to-one takes no parameter", "1-1 B", `one-to-one(shuffle=true)`, "one-to-one has no parameter shuffle"},
	{"uniform-bipartite density", "*-* B", `uniform-bipartite(avgOut=0)`, "positive average out-degree"},
	{"fused edge sizes itself from a bipartite generator", "1-* B fused", `lfr()`, `unknown bipartite structure generator "lfr"`},
}

// structureSchema declares edge e from A — to A itself, or to B when
// card ends in " B" — with the given cardinality and structure spec.
func structureSchema(card, spec string) string {
	card, fused := strings.CutSuffix(card, " fused")
	card, toB := strings.CutSuffix(card, " B")
	head, correlate := "A", ""
	if toB {
		head = "B"
	}
	if fused {
		correlate = "\n    correlate tail.x with head.y homophily 0.5 fused"
	}
	return `graph g {
  seed = 1
  node A {
    count = 100
    property x : string = categorical(values="p|q")
  }
  node B {
    count = 100
    property y : string = categorical(values="r|s")
  }
  edge e : A ` + card + ` ` + head + ` {
    structure = ` + spec + correlate + `
  }
}`
}

// TestValidateSchemaRejectsBadStructure: validation-first for structure
// specs — every bad one is rejected by ValidateSchema with an error
// naming the edge and the generator, and Generate refuses it before
// running a task.
func TestValidateSchemaRejectsBadStructure(t *testing.T) {
	for _, c := range badStructureSpecs {
		s, err := dsl.Parse(structureSchema(c.card, c.spec))
		if err != nil {
			t.Fatalf("%s: the schema must parse: %v", c.name, err)
		}
		err = ValidateSchema(s)
		if err == nil || !strings.Contains(err.Error(), "edge e") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ValidateSchema = %v, want an error naming edge e and %q", c.name, err, c.want)
		}
		e := New(s)
		tasks := 0
		e.Logf = func(format string, _ ...any) {
			if strings.HasPrefix(format, "task ") {
				tasks++
			}
		}
		if _, err := e.Generate(); err == nil || !strings.Contains(err.Error(), "edge e") {
			t.Errorf("%s: Generate = %v, want the validation error", c.name, err)
		}
		if tasks != 0 {
			t.Errorf("%s: %d tasks ran before the bad structure was noticed", c.name, tasks)
		}
	}
	// Every generator's defaults, and a spelt-out spec of each, validate.
	for _, c := range []struct{ card, spec string }{
		{"*-*", `rmat()`}, {"*-*", `rmat(a=0.45, b=0.15, c=0.15, d=0.25, edgeFactor=8, noise=0.1, keepDuplicates=true)`},
		{"*-*", `lfr()`}, {"*-*", `lfr(avgDegree=20, maxDegree=50, minCommunity=10, maxCommunity=50, mu=0.1, tau1=2, tau2=1)`},
		{"*-*", `bter()`}, {"*-*", `bter(dmin=2, dmax=30, gamma=1.5)`},
		{"*-*", `darwini()`}, {"*-*", `darwini(dmin=2, dmax=30, gamma=1.5, spread=0.2)`},
		{"1-*", `cascade()`}, {"1-*", `cascade(minSize=1, maxSize=40, gamma=2.0, preferRecent=0.4)`},
		{"*-*", `erdos-renyi()`}, {"*-*", `erdos-renyi(edgesPerNode=3)`},
		{"*-*", `barabasi-albert()`}, {"*-*", `barabasi-albert(m=2)`},
		{"*-*", `watts-strogatz()`}, {"*-*", `watts-strogatz(k=2, beta=0)`},
		{"1-* B", `powerlaw-out()`}, {"1-* B", `powerlaw-out(min=0, max=4, gamma=2.0)`},
		{"*-* B", `zipf-attachment()`}, {"*-* B", `zipf-attachment(min=1, max=30, gamma=1.8, theta=1.1)`},
		{"1-1 B", `one-to-one()`},
		{"*-* B", `uniform-bipartite()`}, {"*-* B", `uniform-bipartite(avgOut=1.5)`},
		{"1-* B fused", `powerlaw-out(min=2, max=6, gamma=2.0)`},
	} {
		s, err := dsl.Parse(structureSchema(c.card, c.spec))
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if err := ValidateSchema(s); err != nil {
			t.Errorf("%s %s: ValidateSchema = %v, want none", c.card, c.spec, err)
		}
	}
}

// TestBenchSchemasValidate: the benchmark's three schemas (read, never
// written, from bench/schemas) pass the stricter validation.
func TestBenchSchemasValidate(t *testing.T) {
	paths, err := filepath.Glob("../../bench/schemas/*.dsl.tmpl")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bench schemas found: %v", err)
	}
	sizes := strings.NewReplacer("$SEED", "7", "$USERS", "3000", "$PRODUCTS", "300", "$PERSONS", "3000", "$PAGES", "4096")
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := dsl.Parse(sizes.Replace(string(raw)))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := ValidateSchema(s); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

// TestNodeCountBound: endpoint ids are uint32 and per-node slices are
// indexed by an int, so no node type holds more than maxCount instances
// (table.MaxNodes on 64-bit, TestCountBoundPerPlatform). A declared
// count past that fails
// ValidateSchema, and Generate before any task; an inferred one — heads
// a 1→* structure would mint, a tail domain sized from an edge count —
// fails its structure task, naming the edge. None of them gets as far
// as allocating a table: at these sizes one would take gigabytes.
func TestNodeCountBound(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const budget = 1 << 20

	declared := func(count string) *schema.Schema {
		s, err := dsl.Parse(`graph g { seed = 1
			node A { count = ` + count + ` property x : int = sequence() }
			edge e : A *-* A { structure = erdos-renyi(edgesPerNode=2) } }`)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := ValidateSchema(declared(strconv.FormatInt(maxCount, 10))); err != nil {
		t.Errorf("a count of %d is the bound itself: %v", int64(maxCount), err)
	}
	s := declared(strconv.FormatInt(maxCount+1, 10))
	var err error
	if b := allocated(func() { err = ValidateSchema(s) }); err == nil || !strings.Contains(err.Error(), "node type A") || b > budget {
		t.Errorf("ValidateSchema over %d nodes = %v after %d bytes, want an error naming node type A", int64(maxCount), err, b)
	}
	tasks := 0
	e := New(s)
	e.Logf = func(format string, _ ...any) {
		if strings.HasPrefix(format, "task ") {
			tasks++
		}
	}
	if b := allocated(func() { _, err = e.Generate() }); err == nil || tasks != 0 || b > budget {
		t.Errorf("Generate over %d nodes = %v after %d tasks and %d bytes, want the validation error first", int64(maxCount), err, tasks, b)
	}

	for _, c := range []struct{ name, src, want string }{
		{"1→* heads", `graph g { seed = 1
			node Person { count = 1431655766 }
			node Message { }
			edge creates : Person 1-* Message { structure = powerlaw-out(min=3, max=3) } }`,
			"edge creates mints a Message per edge"},
		{"tails from an edge count", `graph g { seed = 1
			node A { }
			edge e : A *-* A { structure = erdos-renyi(edgesPerNode=1) count = 10000000000 } }`,
			"edge e's structure has 10000000000 nodes"},
	} {
		s, err := dsl.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := ValidateSchema(s); err != nil {
			t.Fatalf("%s: only generation knows the count, yet ValidateSchema = %v", c.name, err)
		}
		if b := allocated(func() { _, err = New(s).Generate() }); err == nil || !strings.Contains(err.Error(), c.want) || b > budget {
			t.Errorf("%s: Generate = %v after %d bytes, want an error containing %q before any table", c.name, err, b, c.want)
		}
	}
}

// TestCountBoundPerPlatform: maxCount is table.MaxNodes where an int is
// 64 bits and math.MaxInt where it is 32, and validation names which.
// Person = 3000000000 is a valid count on 64-bit; on 32-bit it fails
// ValidateSchema (so -validate and daemon admission) instead of a task's
// make.
func TestCountBoundPerPlatform(t *testing.T) {
	want, name := int64(table.MaxNodes), "table.MaxNodes"
	if strconv.IntSize == 32 {
		want, name = math.MaxInt32, "math.MaxInt"
	}
	if maxCount != want {
		t.Errorf("maxCount = %d on a %d-bit int, want %d", int64(maxCount), strconv.IntSize, want)
	}
	s, err := dsl.Parse(`graph g { seed = 1
		node Person { count = 3000000000 property x : int = sequence() } }`)
	if err != nil {
		t.Fatal(err)
	}
	err = ValidateSchema(s)
	switch {
	case strconv.IntSize == 64 && err != nil:
		t.Errorf("Person = 3000000000 on a 64-bit int: %v", err)
	case strconv.IntSize == 32 && (err == nil || !strings.Contains(err.Error(), "node type Person has 3000000000 nodes") || !strings.Contains(err.Error(), name)):
		t.Errorf("Person = 3000000000 on a 32-bit int: %v, want an error naming the type and %s", err, name)
	}
	if err := checkCount("node type P", want+1); err == nil || !strings.Contains(err.Error(), name) {
		t.Errorf("checkCount past the bound = %v, want an error naming %s", err, name)
	}
}
