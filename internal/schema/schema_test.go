package schema

import (
	"strings"
	"testing"

	"datasynth/internal/table"
)

// validSchema returns the running example of the paper's Figure 1.
func validSchema() *Schema {
	return &Schema{
		Name: "social",
		Seed: 1,
		Nodes: []NodeType{
			{
				Name:  "Person",
				Count: 1000,
				Properties: []Property{
					{Name: "country", Kind: table.KindString, Generator: GeneratorSpec{Name: "categorical", Params: map[string]string{"dict": "countries"}}},
					{Name: "sex", Kind: table.KindString, Generator: GeneratorSpec{Name: "categorical"}},
					{Name: "name", Kind: table.KindString, Generator: GeneratorSpec{Name: "dictionary"}, DependsOn: []string{"country", "sex"}},
					{Name: "creationDate", Kind: table.KindDate, Generator: GeneratorSpec{Name: "uniform-date"}},
				},
			},
			{
				Name: "Message", // count inferred from creates
				Properties: []Property{
					{Name: "topic", Kind: table.KindString, Generator: GeneratorSpec{Name: "categorical"}},
				},
			},
		},
		Edges: []EdgeType{
			{
				Name: "knows", Tail: "Person", Head: "Person",
				Cardinality: ManyToMany,
				Structure:   GeneratorSpec{Name: "lfr"},
				Correlation: &Correlation{Property: "country", Homophily: 0.8},
				Properties: []Property{
					{Name: "creationDate", Kind: table.KindDate, Generator: GeneratorSpec{Name: "max-endpoint-date"}, DependsOn: []string{"tail.creationDate", "head.creationDate"}},
				},
			},
			{
				Name: "creates", Tail: "Person", Head: "Message",
				Cardinality: OneToMany,
				Structure:   GeneratorSpec{Name: "powerlaw-out"},
			},
		},
	}
}

func TestValidSchemaPasses(t *testing.T) {
	if err := validSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
}

func TestCardinalityRoundTrip(t *testing.T) {
	for _, c := range []Cardinality{OneToOne, OneToMany, ManyToMany} {
		parsed, err := ParseCardinality(c.String())
		if err != nil || parsed != c {
			t.Errorf("round trip %v -> %v, %v", c, parsed, err)
		}
	}
	if _, err := ParseCardinality("2-3"); err == nil {
		t.Error("bad cardinality should fail")
	}
	// Arrow spellings.
	if c, err := ParseCardinality("1->*"); err != nil || c != OneToMany {
		t.Errorf("1->* parsed as %v, %v", c, err)
	}
}

func TestLookups(t *testing.T) {
	s := validSchema()
	if s.NodeType("Person") == nil || s.NodeType("Nope") != nil {
		t.Error("NodeType lookup broken")
	}
	if s.EdgeType("knows") == nil || s.EdgeType("Nope") != nil {
		t.Error("EdgeType lookup broken")
	}
	p := s.NodeType("Person")
	if p.Property("country") == nil || p.Property("zzz") != nil {
		t.Error("Property lookup broken")
	}
	e := s.EdgeType("knows")
	if e.Property("creationDate") == nil || e.Property("zzz") != nil {
		t.Error("edge Property lookup broken")
	}
}

func mustFail(t *testing.T, s *Schema, substr string) {
	t.Helper()
	err := s.Validate()
	if err == nil {
		t.Fatalf("expected validation error containing %q, got nil", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not contain %q", err, substr)
	}
}

func TestValidationFailures(t *testing.T) {
	s := validSchema()
	s.Name = ""
	mustFail(t, s, "missing graph name")

	s = validSchema()
	s.Nodes[1].Name = "Person"
	mustFail(t, s, "duplicate type")

	s = validSchema()
	s.Edges[0].Tail = "Ghost"
	mustFail(t, s, "undeclared")

	s = validSchema()
	s.Edges[0].Structure.Name = ""
	mustFail(t, s, "no structure generator")

	s = validSchema()
	s.Nodes[0].Properties[2].DependsOn = []string{"ghost"}
	mustFail(t, s, "unknown property")

	s = validSchema()
	s.Nodes[0].Properties[0].DependsOn = []string{"country"}
	mustFail(t, s, "depends on itself")

	s = validSchema()
	s.Edges[0].Correlation.Property = "ghost"
	mustFail(t, s, "unknown property")

	s = validSchema()
	s.Edges[0].Correlation.Homophily = 2
	mustFail(t, s, "homophily")

	s = validSchema()
	s.Nodes[0].Count = 0 // no anchor anywhere
	mustFail(t, s, "no scale anchor")

	s = validSchema()
	s.Nodes[0].Count = -5
	mustFail(t, s, "negative count")

	s = validSchema()
	s.Nodes[0].Properties[0].Generator.Name = ""
	mustFail(t, s, "no generator")

	s = validSchema()
	s.Nodes[0].Properties = append(s.Nodes[0].Properties, Property{Name: "country", Generator: GeneratorSpec{Name: "x"}})
	mustFail(t, s, "duplicate property")

	// Exported columns: a property takes the column table.ShortName
	// gives it, which neither a structural column nor another property
	// of the type may take.
	s = validSchema()
	s.Nodes[1].Properties[0].Name = "id"
	mustFail(t, s, `Message.id exports column "id", already taken by the structural column`)

	s = validSchema()
	s.Edges[0].Properties[0].Name = "tail"
	mustFail(t, s, `knows.tail exports column "tail", already taken by the structural column`)

	s = validSchema()
	s.Edges[0].Properties = append(s.Edges[0].Properties, Property{Name: "head.creationDate", Generator: GeneratorSpec{Name: "x"}})
	mustFail(t, s, `knows.head.creationDate exports column "creationDate", already taken by property knows.creationDate`)

	// Only an edge file has tail and head columns.
	s = validSchema()
	s.Nodes[1].Properties[0].Name = "head"
	if err := s.Validate(); err != nil {
		t.Errorf("node property named head: %v", err)
	}
}

func TestEdgeAnchorSuffices(t *testing.T) {
	s := validSchema()
	s.Nodes[0].Count = 0
	s.Edges[0].Count = 50000 // scale by edges instead
	if err := s.Validate(); err != nil {
		t.Fatalf("edge-count anchor rejected: %v", err)
	}
}

func TestHeterogeneousMonopartiteCorrelationFails(t *testing.T) {
	s := validSchema()
	s.Edges[1].Correlation = &Correlation{Property: "country", Homophily: 0.5}
	mustFail(t, s, "heterogeneous")
}

func TestBipartiteCorrelationValidated(t *testing.T) {
	s := validSchema()
	s.Edges[1].Correlation = &Correlation{TailProperty: "country", HeadProperty: "topic", Homophily: 0.5}
	if err := s.Validate(); err != nil {
		t.Fatalf("bipartite correlation rejected: %v", err)
	}
	s.Edges[1].Correlation.HeadProperty = "ghost"
	mustFail(t, s, "head property")
	s.Edges[1].Correlation.HeadProperty = ""
	mustFail(t, s, "names no properties")
}

// TestEdgePropertyEndpointDeps: tail./head. deps resolve against the
// endpoint types, and the prefix wins even where a sibling edge
// property carries the whole name.
func TestEdgePropertyEndpointDeps(t *testing.T) {
	s := validSchema()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Edges[0].Properties[0].DependsOn = []string{"tail.ghost"}
	mustFail(t, s, "unknown property")

	s = validSchema()
	knows := &s.Edges[0]
	ghost := Property{Name: "tail.ghost", Kind: table.KindDate, Generator: GeneratorSpec{Name: "uniform-date"}}
	knows.Properties = append(knows.Properties, ghost)
	knows.Properties[0].DependsOn = []string{"tail.ghost"}
	mustFail(t, s, `knows.creationDate depends on unknown property "tail.ghost"`)

	for _, c := range []struct {
		dep, owner, prop string
		src              DepSource
	}{
		{"tail.x", "Person", "x", DepTail},
		{"head.x", "Person", "x", DepHead},
		{"x", "knows", "x", DepSibling},
		{"tail.", "knows", "tail.", DepSibling},
	} {
		if src, owner, prop := knows.SplitDep(c.dep); src != c.src || owner != c.owner || prop != c.prop {
			t.Errorf("SplitDep(%q) = %v, %s, %s; want %v, %s, %s", c.dep, src, owner, prop, c.src, c.owner, c.prop)
		}
	}
}
