package core

import (
	"slices"
	"strings"
	"testing"

	"datasynth/internal/dsl"
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

// TestValidateSchemaRejectsPassesOnTailHead: refinement passes exist for
// the monopartite matcher only, so `passes` on a tail/head correlation —
// bipartite or fused — is a validation error naming the edge, not a
// schema that validates and then runs zero refinement.
func TestValidateSchemaRejectsPassesOnTailHead(t *testing.T) {
	for _, src := range []string{
		fusedDSL,
		strings.NewReplacer("1-* Message", "*-* Message", "Message {", "Message {\n    count = 500",
			"powerlaw-out(min=2, max=6, gamma=2.0)", "zipf-attachment(min=1, max=5, gamma=2.0, theta=1.1)",
			"homophily 0.9 fused", "homophily 0.9").Replace(fusedDSL),
	} {
		s, err := dsl.Parse(src)
		if err != nil {
			t.Fatalf("the schema must parse without its passes clause: %v\n%s", err, src)
		}
		s.Edges[0].Correlation.Passes = 2
		err = ValidateSchema(s)
		if err == nil || !strings.Contains(err.Error(), `edge "posts"`) || !strings.Contains(err.Error(), "2 refinement passes") {
			t.Errorf("ValidateSchema = %v, want an error naming edge \"posts\" and its 2 refinement passes\n%s", err, src)
		}
		if _, err := New(s).Generate(); err == nil {
			t.Error("Generate accepted passes on a tail/head correlation")
		}
		// The DSL front door (-validate, admission, PUT /v1/scenarios all
		// parse first) refuses the clause itself.
		if _, err := dsl.Parse(strings.Replace(src, "homophily 0.9", "homophily 0.9 passes 2", 1)); err == nil || !strings.Contains(err.Error(), `edge "posts"`) {
			t.Errorf("dsl.Parse with passes 2 = %v, want an error naming edge \"posts\"", err)
		}
	}
	s := refinedQuickstartSchema()
	if err := ValidateSchema(s); err != nil {
		t.Errorf("passes on a monopartite correlation: %v", err)
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
    structure = erdos-renyi(p=0.1)
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
		if props[0].String(i) != node[0].String(et.Tail[i]) || props[1].Int(i) != node[1].Int(et.Head[i]) || props[2].Float(i) != node[2].Float(et.Tail[i]) {
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
    structure = erdos-renyi(p=0.1)
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
		labels, values, err := labelsFor(pt)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(labels, wantLabels) || !slices.Equal(values, wantValues) {
			t.Errorf("%s: labels %v over %v, want %v over %v", name, labels, values, wantLabels, wantValues)
		}
	}
}
