package dsl

import (
	"strings"
	"testing"

	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// paperDSL is the running example of the paper's Figure 1 in DSL form.
const paperDSL = `
# The paper's Figure 1 running example.
graph social {
  seed = 42

  node Person {
    count = 10000
    property country : string = categorical(dict="countries")
    property sex     : string = categorical(values="M|F")
    property name    : string = dictionary() given (country, sex)
    property interest : string = zipf(dict="topics", theta="1.1")
    property creationDate : date = uniform-date(from="2010-01-01", to="2020-01-01")
  }

  node Message {
    property topic : string = categorical(dict="topics")
    property text  : string = text(min=3, max=12)
  }

  edge knows : Person *-* Person {
    structure = lfr(avgDegree=20, maxDegree=50, mu=0.1)
    correlate country homophily 0.8
    property creationDate : date = max-endpoint-date(maxDays=365) given (tail.creationDate, head.creationDate)
  }

  edge creates : Person 1-* Message {
    structure = powerlaw-out(min=1, max=20, gamma=2.0)
    property creationDate : date = uniform-date()
  }
}
`

func TestParsePaperExample(t *testing.T) {
	s, err := Parse(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "social" || s.Seed != 42 {
		t.Errorf("name/seed = %s/%d", s.Name, s.Seed)
	}
	p := s.NodeType("Person")
	if p == nil || p.Count != 10000 || len(p.Properties) != 5 {
		t.Fatalf("Person parsed wrong: %+v", p)
	}
	name := p.Property("name")
	if name == nil || len(name.DependsOn) != 2 || name.DependsOn[0] != "country" {
		t.Errorf("name deps = %+v", name)
	}
	if p.Property("creationDate").Kind != table.KindDate {
		t.Error("creationDate kind wrong")
	}
	if p.Property("country").Generator.Params["dict"] != "countries" {
		t.Error("country generator params wrong")
	}
	k := s.EdgeType("knows")
	if k == nil || k.Cardinality != schema.ManyToMany || k.Tail != "Person" || k.Head != "Person" {
		t.Fatalf("knows parsed wrong: %+v", k)
	}
	if k.Structure.Name != "lfr" || k.Structure.Params["avgDegree"] != "20" {
		t.Errorf("knows structure = %+v", k.Structure)
	}
	if k.Correlation == nil || k.Correlation.Property != "country" || k.Correlation.Homophily != 0.8 {
		t.Errorf("knows correlation = %+v", k.Correlation)
	}
	if len(k.Properties) != 1 || k.Properties[0].DependsOn[0] != "tail.creationDate" {
		t.Errorf("knows properties = %+v", k.Properties)
	}
	c := s.EdgeType("creates")
	if c == nil || c.Cardinality != schema.OneToMany || c.Head != "Message" {
		t.Fatalf("creates parsed wrong: %+v", c)
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Parse(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	printed := Print(s)
	s2, err := Parse(printed)
	if err != nil {
		t.Fatalf("re-parse failed: %v\nsource:\n%s", err, printed)
	}
	if Print(s2) != printed {
		t.Errorf("round trip unstable:\n%s\nvs\n%s", printed, Print(s2))
	}
}

func TestParseBipartiteCorrelation(t *testing.T) {
	src := `
graph shop {
  node User { count = 100
    property segment : string = categorical(values="a|b")
  }
  node Product {
    property category : string = categorical(values="x|y")
  }
  edge lists : Vendor 1-* Product { structure = powerlaw-out() }
  node Vendor { count = 5 }
  edge buys : User *-* Product {
    structure = zipf-attachment()
    correlate tail.segment with head.category homophily 0.6
  }
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := s.EdgeType("buys").Correlation
	if c.TailProperty != "segment" || c.HeadProperty != "category" || c.Homophily != 0.6 {
		t.Errorf("bipartite correlation = %+v", c)
	}
}

func TestParseEdgeCount(t *testing.T) {
	src := `
graph g {
  node A { property x : int = uniform-int() }
  edge e : A *-* A { count = 5000 structure = rmat() }
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.EdgeType("e").Count != 5000 {
		t.Errorf("edge count = %d", s.EdgeType("e").Count)
	}
}

func TestComments(t *testing.T) {
	src := `
// top comment
graph g { # inline
  node A { count = 5 } // trailing
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if s.NodeType("A").Count != 5 {
		t.Error("comment handling broke parsing")
	}
}

func parseErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := Parse(src)
	if err == nil {
		t.Fatalf("expected error containing %q, got nil", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}

func TestParseErrors(t *testing.T) {
	parseErr(t, `node A {}`, `expected "graph"`)
	parseErr(t, `graph g`, "expected '{'")
	parseErr(t, `graph g { bogus }`, "expected 'node'")
	parseErr(t, `graph g { node A { count = -3 } }`, "positive integer")
	parseErr(t, `graph g { node A { count = x } }`, "positive integer")
	parseErr(t, `graph g { seed = abc }`, "unsigned integer")
	parseErr(t, `graph g { node A { property p } }`, "expected ':'")
	parseErr(t, `graph g { node A { property p : blob = u() } }`, "unknown property type")
	parseErr(t, `graph g { edge e : A 2-2 B {} }`, "unknown cardinality")
	parseErr(t, `graph g { node A { count = 1 property p : int = u(a=1, a=2) } }`, "duplicate parameter")
	parseErr(t, `graph g { node A { count = 1 } edge e : A *-* A { structure = x() correlate c homophily z } }`, "not a number")
	parseErr(t, `graph g {`, "unexpected end of file")
	parseErr(t, `graph g { node A { count = 1 } } trailing`, "trailing input")
	parseErr(t, `graph "g" {}`, "expected identifier")
}

func TestLexerErrors(t *testing.T) {
	if _, err := lexAll(`"unterminated`); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := lexAll("a ; b"); err == nil {
		t.Error("stray character should fail")
	}
	if _, err := lexAll("\"multi\nline\""); err == nil {
		t.Error("newline in string should fail")
	}
}

func TestLexerPositions(t *testing.T) {
	toks, err := lexAll("graph g {\n  seed = 1\n}")
	if err != nil {
		t.Fatal(err)
	}
	// "seed" is on line 2 column 3.
	var seedTok *token
	for i := range toks {
		if toks[i].text == "seed" {
			seedTok = &toks[i]
		}
	}
	if seedTok == nil || seedTok.line != 2 || seedTok.col != 3 {
		t.Errorf("seed position = %+v", seedTok)
	}
}

func TestSemanticValidationRuns(t *testing.T) {
	// Parses fine syntactically, but edge refers to unknown type: Parse
	// checks syntax only, and schema validation must reject it.
	s, err := Parse(`
graph g {
  node A { count = 1 }
  edge e : A *-* Ghost { structure = rmat() }
}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("Validate = %v, want an error containing %q", err, "undeclared")
	}
}

func TestQuotedAndBareParamsEquivalent(t *testing.T) {
	a, err := Parse(`graph g { node A { count = 1 property p : int = uniform-int(lo=5, hi="9") } }`)
	if err != nil {
		t.Fatal(err)
	}
	p := a.NodeType("A").Property("p")
	if p.Generator.Params["lo"] != "5" || p.Generator.Params["hi"] != "9" {
		t.Errorf("params = %+v", p.Generator.Params)
	}
}

func TestDuplicateCorrelationRejected(t *testing.T) {
	parseErr(t, `
graph g {
  node A { count = 1 property c : string = categorical(values="x") }
  edge e : A *-* A {
    structure = rmat()
    correlate c homophily 0.5
    correlate c homophily 0.6
  }
}`, "already has a correlation")
}

func TestParsePassesAndFused(t *testing.T) {
	src := `
graph g {
  node A { count = 10 property c : string = categorical(values="x|y") }
  edge e : A *-* A {
    structure = lfr()
    correlate c homophily 0.7 passes 3
  }
}
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c := s.EdgeType("e").Correlation
	if c.Passes != 3 || c.Fused {
		t.Errorf("correlation = %+v", c)
	}
	// Round trip keeps passes.
	s2, err := Parse(Print(s))
	if err != nil {
		t.Fatal(err)
	}
	if s2.EdgeType("e").Correlation.Passes != 3 {
		t.Error("passes lost in round trip")
	}
	parseErr(t, `
graph g {
  node A { count = 10 property c : string = categorical(values="x") }
  edge e : A *-* A { structure = lfr() correlate c homophily 0.7 passes -1 }
}`, "non-negative")
}
