package core

import (
	"math"
	"strings"
	"testing"

	"datasynth/internal/dsl"
	"datasynth/internal/graph"
	"datasynth/internal/schema"
	"datasynth/internal/stats"
	"datasynth/internal/table"
)

// paperDSL is the Figure 1 running example, small enough for tests.
const paperDSL = `
graph social {
  seed = 42
  node Person {
    count = 2000
    property country : string = categorical(dict="countries")
    property sex     : string = categorical(values="M|F")
    property name    : string = dictionary() given (country, sex)
    property interest : string = zipf(dict="topics", theta="1.1")
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }
  node Message {
    property topic : string = categorical(dict="topics")
    property text  : string = text(min=3, max=8)
  }
  edge knows : Person *-* Person {
    structure = lfr(avgDegree=10, maxDegree=30)
    correlate country homophily 0.8
    property creationDate : date = max-endpoint-date(maxDays=100) given (tail.creationDate, head.creationDate)
  }
  edge creates : Person 1-* Message {
    structure = powerlaw-out(min=1, max=10, gamma=2.0)
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }
}
`

func generatePaper(t *testing.T) *table.Dataset {
	t.Helper()
	s, err := dsl.Parse(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeneratePaperExample(t *testing.T) {
	d := generatePaper(t)
	if d.NodeCounts["Person"] != 2000 {
		t.Errorf("Person count = %d", d.NodeCounts["Person"])
	}
	// Message count inferred from creates size.
	creates := d.Edges["creates"]
	if d.NodeCounts["Message"] != creates.Len() {
		t.Errorf("Message count %d != creates size %d", d.NodeCounts["Message"], creates.Len())
	}
	if d.NodeCounts["Message"] < 2000 {
		t.Errorf("Message count %d implausibly small", d.NodeCounts["Message"])
	}
	// All Person property tables have 2000 rows.
	for _, pt := range d.NodeProps["Person"] {
		if pt.Len() != 2000 {
			t.Errorf("%s has %d rows", pt.Name, pt.Len())
		}
	}
	// knows endpoints are valid Person ids.
	if err := d.Edges["knows"].Validate(2000, 2000); err != nil {
		t.Error(err)
	}
	// creates endpoints: Person tails, Message heads.
	if err := creates.Validate(2000, d.NodeCounts["Message"]); err != nil {
		t.Error(err)
	}
}

func TestEngineDeterministic(t *testing.T) {
	a := generatePaper(t)
	b := generatePaper(t)
	if a.NodeCounts["Message"] != b.NodeCounts["Message"] {
		t.Fatal("message counts differ between runs")
	}
	ka, kb := a.Edges["knows"], b.Edges["knows"]
	if ka.Len() != kb.Len() {
		t.Fatal("knows sizes differ")
	}
	for i := int64(0); i < ka.Len(); i++ {
		if ka.Tail[i] != kb.Tail[i] || ka.Head[i] != kb.Head[i] {
			t.Fatalf("knows edge %d differs", i)
		}
	}
	na, nb := a.NodeProps["Person"][2], b.NodeProps["Person"][2] // name
	for i := int64(0); i < na.Len(); i++ {
		if na.String(i) != nb.String(i) {
			t.Fatalf("Person.name row %d differs", i)
		}
	}
}

func TestNameCorrelatedWithCountryAndSex(t *testing.T) {
	d := generatePaper(t)
	props := d.NodeProps["Person"]
	country, sex, name := props[0], props[1], props[2]
	// The name lists of the (region, sex) pairs are disjoint, so a name
	// drawn given (country, sex) names its sex, and countries of two
	// regions never share a name.
	sexOf := map[string]string{}
	namesOf := map[string]map[string]bool{}
	for id := int64(0); id < name.Len(); id++ {
		n, s, c := name.String(id), sex.String(id), country.String(id)
		if prev, ok := sexOf[n]; ok && prev != s {
			t.Fatalf("row %d: name %q drawn for sex %s and %s", id, n, prev, s)
		}
		sexOf[n] = s
		if namesOf[c] == nil {
			namesOf[c] = map[string]bool{}
		}
		namesOf[c][n] = true
	}
	for _, pair := range [][2]string{{"China", "USA"}, {"China", "India"}, {"India", "USA"}} {
		a, b := namesOf[pair[0]], namesOf[pair[1]]
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("no rows for %s or %s", pair[0], pair[1])
		}
		for n := range a {
			if b[n] {
				t.Errorf("name %q drawn for both %s and %s", n, pair[0], pair[1])
			}
		}
	}
}

func TestKnowsDateExceedsEndpointDates(t *testing.T) {
	d := generatePaper(t)
	knows := d.Edges["knows"]
	personDate := d.NodeProps["Person"][4]
	knowsDate := d.EdgeProps["knows"][0]
	for e := int64(0); e < knows.Len(); e++ {
		td := personDate.Int(int64(knows.Tail[e]))
		hd := personDate.Int(int64(knows.Head[e]))
		kd := knowsDate.Int(e)
		if kd <= td || kd <= hd {
			t.Fatalf("edge %d: knows date %d not after endpoints (%d, %d)", e, kd, td, hd)
		}
	}
}

func TestHomophilyIsRealised(t *testing.T) {
	d := generatePaper(t)
	knows := d.Edges["knows"]
	country := d.NodeProps["Person"][0]
	same, total := 0.0, 0.0
	for e := int64(0); e < knows.Len(); e++ {
		if country.String(int64(knows.Tail[e])) == country.String(int64(knows.Head[e])) {
			same++
		}
		total++
	}
	frac := same / total
	// Target homophily is 0.8, but with 40 country values many groups
	// are smaller than an LFR community, so the streaming matcher cannot
	// realise it fully. It must still be a large multiple of the
	// uncorrelated baseline (Σ p_c² ≈ 0.07 for the country
	// distribution); we require > 0.25 (≈ 4×).
	if frac < 0.25 {
		t.Errorf("same-country edge fraction = %v, want > 0.25", frac)
	}
}

func TestUncorrelatedBaselineLower(t *testing.T) {
	// Drop the correlation: same-country fraction must fall near the
	// independence baseline.
	src := strings.Replace(paperDSL, "correlate country homophily 0.8\n", "", 1)
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
	same, total := 0.0, 0.0
	for e := int64(0); e < knows.Len(); e++ {
		if country.String(int64(knows.Tail[e])) == country.String(int64(knows.Head[e])) {
			same++
		}
		total++
	}
	if frac := same / total; frac > 0.2 {
		t.Errorf("uncorrelated same-country fraction = %v, want < 0.2", frac)
	}
}

func TestScaleByEdgeCount(t *testing.T) {
	// The paper's alternative sizing: specify the number of creates
	// edges; Person is sized via getNumNodes and Message from the table.
	src := `
graph g {
  seed = 1
  node Person {
    property age : int = uniform-int(lo=18, hi=90)
  }
  node Message {
    property topic : string = categorical(dict="topics")
  }
  edge creates : Person 1-* Message {
    count = 30000
    structure = powerlaw-out(min=1, max=10, gamma=2.0)
  }
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
	m := d.Edges["creates"].Len()
	if ratio := float64(m) / 30000; ratio < 0.5 || ratio > 2 {
		t.Errorf("creates edges = %d, want ~30000", m)
	}
	if d.NodeCounts["Person"] <= 0 || d.NodeCounts["Message"] != m {
		t.Errorf("counts = %v", d.NodeCounts)
	}
}

func TestBipartiteCorrelationEndToEnd(t *testing.T) {
	src := `
graph shop {
  seed = 3
  node User {
    count = 500
    property segment : string = categorical(values="casual|power")
  }
  node Product {
    count = 200
    property category : string = categorical(values="games|tools")
  }
  edge buys : User *-* Product {
    structure = zipf-attachment(min=2, max=8, gamma=2.0, theta=1.0)
    correlate tail.segment with head.category homophily 0.9
  }
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
	buys := d.Edges["buys"]
	if err := buys.Validate(500, 200); err != nil {
		t.Fatal(err)
	}
	seg := d.NodeProps["User"][0]
	cat := d.NodeProps["Product"][0]
	// Aligned pairs (index-matched values) must dominate.
	aligned, total := 0.0, 0.0
	for e := int64(0); e < buys.Len(); e++ {
		sVal := seg.String(int64(buys.Tail[e]))
		cVal := cat.String(int64(buys.Head[e]))
		if (sVal == "casual") == (cVal == "games") {
			aligned++
		}
		total++
	}
	if frac := aligned / total; frac < 0.6 {
		t.Errorf("aligned fraction = %v, want > 0.6 (homophily 0.9)", frac)
	}
}

func TestExplicitMatrixCorrelation(t *testing.T) {
	// Programmatic schema with a full P(X,Y) matrix.
	s := &schema.Schema{
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
			// Consistent with ~50/50 value frequencies: strong diagonal.
			Correlation: &schema.Correlation{Property: "c", Matrix: [][]float64{{0.45, 0.1}, {0, 0.45}}},
		}},
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	et := d.Edges["e"]
	c := d.NodeProps["N"][0]
	labels := make([]int64, 600)
	for i := int64(0); i < 600; i++ {
		if c.String(i) == "b" {
			labels[i] = 1
		}
	}
	obs, err := stats.EmpiricalJoint(et, labels, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The diagonal must dominate (target 0.9 of mass; random gives 0.5).
	if diag := obs.At(0, 0) + obs.At(1, 1); diag < 0.65 {
		t.Errorf("diagonal mass = %v, want > 0.65", diag)
	}
}

func TestStructuralShapeSurvivesMatching(t *testing.T) {
	// Matching permutes ids; degree distribution must be untouched.
	d := generatePaper(t)
	knows := d.Edges["knows"]
	g, err := graph.FromEdgeTable(knows, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if avg := g.AvgDegree(); math.Abs(avg-10) > 4 {
		t.Errorf("knows avg degree = %v, want ~10", avg)
	}
	if md := g.MaxDegree(); md > 30+5 {
		t.Errorf("knows max degree = %d, want <= ~30", md)
	}
}

func TestEngineErrorPaths(t *testing.T) {
	// Unknown property generator.
	s := &schema.Schema{
		Name: "bad", Seed: 1,
		Nodes: []schema.NodeType{{
			Name: "N", Count: 10,
			Properties: []schema.Property{{Name: "p", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "nope"}}},
		}},
	}
	if _, err := New(s).Generate(); err == nil || !strings.Contains(err.Error(), "unknown generator") {
		t.Errorf("err = %v, want unknown generator", err)
	}
	// Kind mismatch.
	s2 := &schema.Schema{
		Name: "bad2", Seed: 1,
		Nodes: []schema.NodeType{{
			Name: "N", Count: 10,
			Properties: []schema.Property{{Name: "p", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "categorical", Params: map[string]string{"values": "x"}}}},
		}},
	}
	if _, err := New(s2).Generate(); err == nil || !strings.Contains(err.Error(), "declared") {
		t.Errorf("err = %v, want kind mismatch", err)
	}
	// Unknown structure generator.
	s3 := &schema.Schema{
		Name: "bad3", Seed: 1,
		Nodes: []schema.NodeType{{Name: "N", Count: 10}},
		Edges: []schema.EdgeType{{Name: "e", Tail: "N", Head: "N", Cardinality: schema.ManyToMany,
			Structure: schema.GeneratorSpec{Name: "nope"}}},
	}
	if _, err := New(s3).Generate(); err == nil {
		t.Error("unknown SG should fail")
	}
}

func TestCorrelatedNonStringPropertyRejected(t *testing.T) {
	s := &schema.Schema{
		Name: "bad", Seed: 1,
		Nodes: []schema.NodeType{{
			Name: "N", Count: 50,
			Properties: []schema.Property{{Name: "age", Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "uniform-int"}}},
		}},
		Edges: []schema.EdgeType{{
			Name: "e", Tail: "N", Head: "N", Cardinality: schema.ManyToMany,
			Structure:   schema.GeneratorSpec{Name: "erdos-renyi", Params: map[string]string{"edgesPerNode": "3"}},
			Correlation: &schema.Correlation{Property: "age", Homophily: 0.5},
		}},
	}
	if _, err := New(s).Generate(); err == nil || !strings.Contains(err.Error(), "string property") {
		t.Errorf("err = %v, want string-property requirement", err)
	}
}

func TestOneToOneEdge(t *testing.T) {
	src := `
graph g {
  seed = 2
  node Account { count = 300 }
  node Profile {
    count = 300
    property bio : string = text(min=1, max=3)
  }
  edge owns : Account 1-1 Profile {
    structure = one-to-one()
  }
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
	owns := d.Edges["owns"]
	if owns.Len() != 300 {
		t.Fatalf("owns edges = %d", owns.Len())
	}
	seenT, seenH := map[uint32]bool{}, map[uint32]bool{}
	for i := int64(0); i < 300; i++ {
		if seenT[owns.Tail[i]] || seenH[owns.Head[i]] {
			t.Fatal("1-1 edge reuses an endpoint")
		}
		seenT[owns.Tail[i]] = true
		seenH[owns.Head[i]] = true
	}
}

func TestDatasetExport(t *testing.T) {
	d := generatePaper(t)
	dir := t.TempDir()
	if err := d.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
}
