package depgraph

import (
	"strings"
	"testing"

	"datasynth/internal/schema"
	"datasynth/internal/table"
)

// paperSchema is the Figure 1 running example: Person/Message nodes,
// knows (*→*, correlated) and creates (1→*) edges, with Message's count
// inferred from creates.
func paperSchema() *schema.Schema {
	return &schema.Schema{
		Name: "social",
		Seed: 7,
		Nodes: []schema.NodeType{
			{
				Name:  "Person",
				Count: 1000,
				Properties: []schema.Property{
					{Name: "country", Kind: table.KindString, Generator: schema.GeneratorSpec{Name: "categorical", Params: map[string]string{"dict": "countries"}}},
					{Name: "sex", Kind: table.KindString, Generator: schema.GeneratorSpec{Name: "categorical", Params: map[string]string{"dict": "sexes"}}},
					{Name: "name", Kind: table.KindString, Generator: schema.GeneratorSpec{Name: "dictionary"}, DependsOn: []string{"country", "sex"}},
					{Name: "creationDate", Kind: table.KindDate, Generator: schema.GeneratorSpec{Name: "uniform-date"}},
				},
			},
			{
				Name: "Message",
				Properties: []schema.Property{
					{Name: "topic", Kind: table.KindString, Generator: schema.GeneratorSpec{Name: "categorical", Params: map[string]string{"dict": "topics"}}},
				},
			},
		},
		Edges: []schema.EdgeType{
			{
				Name: "knows", Tail: "Person", Head: "Person",
				Cardinality: schema.ManyToMany,
				Structure:   schema.GeneratorSpec{Name: "lfr"},
				Correlation: &schema.Correlation{Property: "country", Homophily: 0.8},
				Properties: []schema.Property{
					{Name: "creationDate", Kind: table.KindDate, Generator: schema.GeneratorSpec{Name: "max-endpoint-date"}, DependsOn: []string{"tail.creationDate", "head.creationDate"}},
				},
			},
			{
				Name: "creates", Tail: "Person", Head: "Message",
				Cardinality: schema.OneToMany,
				Structure:   schema.GeneratorSpec{Name: "powerlaw-out"},
			},
		},
	}
}

func pos(t *testing.T, plan *Plan, id string) int {
	t.Helper()
	for i, task := range plan.Tasks {
		if task.ID() == id {
			return i
		}
	}
	t.Fatalf("task %s not in plan %v", id, ids(plan))
	return -1
}

func ids(p *Plan) []string {
	out := make([]string, len(p.Tasks))
	for i, t := range p.Tasks {
		out[i] = t.ID()
	}
	return out
}

func TestAnalyzePaperExample(t *testing.T) {
	plan, err := Analyze(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	// All tasks present: 4 Person props + 1 Message prop + 2 structures
	// + 2 matches + 1 edge prop = 10.
	if len(plan.Tasks) != 10 {
		t.Fatalf("plan has %d tasks: %v", len(plan.Tasks), ids(plan))
	}
	// name after country and sex.
	if pos(t, plan, "P:Person.name") < pos(t, plan, "P:Person.country") {
		t.Error("name generated before country")
	}
	if pos(t, plan, "P:Person.name") < pos(t, plan, "P:Person.sex") {
		t.Error("name generated before sex")
	}
	// Message.topic after creates structure (count inference).
	if pos(t, plan, "P:Message.topic") < pos(t, plan, "S:creates") {
		t.Error("Message property before creates structure")
	}
	// Match after structure and after the correlated property.
	if pos(t, plan, "M:knows") < pos(t, plan, "S:knows") {
		t.Error("match before structure")
	}
	if pos(t, plan, "M:knows") < pos(t, plan, "P:Person.country") {
		t.Error("match before correlated property")
	}
	// Edge property after match and endpoint property.
	if pos(t, plan, "EP:knows.creationDate") < pos(t, plan, "M:knows") {
		t.Error("edge property before match")
	}
	if pos(t, plan, "EP:knows.creationDate") < pos(t, plan, "P:Person.creationDate") {
		t.Error("edge property before endpoint property")
	}
}

func TestCountSources(t *testing.T) {
	plan, err := Analyze(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if src := plan.Counts["Person"]; src.Kind != SourceExplicit {
		t.Errorf("Person source = %v", src)
	}
	if src := plan.Counts["Message"]; src.Kind != SourceEdgeHead || src.Edge != "creates" {
		t.Errorf("Message source = %+v, want head of creates", src)
	}
}

func TestCountFromEdgeCount(t *testing.T) {
	// Scale by the number of creates edges: Person sized via
	// getNumNodes, Message still from the edge table.
	s := paperSchema()
	s.Nodes[0].Count = 0
	s.Edges[1].Count = 50000
	plan, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if src := plan.Counts["Person"]; src.Kind != SourceEdgeCount || src.Edge != "creates" {
		t.Errorf("Person source = %+v, want edge-count via creates", src)
	}
	if src := plan.Counts["Message"]; src.Kind != SourceEdgeHead {
		t.Errorf("Message source = %+v", src)
	}
}

func TestUnresolvableCount(t *testing.T) {
	s := paperSchema()
	// Orphan type with no count and no incoming 1→* edge.
	s.Nodes = append(s.Nodes, schema.NodeType{Name: "Ghost"})
	_, err := Analyze(s)
	if err == nil || !strings.Contains(err.Error(), "cannot infer") {
		t.Fatalf("err = %v, want cannot-infer", err)
	}
}

func TestPropertyCycleDetected(t *testing.T) {
	s := paperSchema()
	// country <-> sex cycle.
	s.Nodes[0].Properties[0].DependsOn = []string{"sex"}
	s.Nodes[0].Properties[1].DependsOn = []string{"country"}
	_, err := Analyze(s)
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("err = %v, want cycle", err)
	}
}

func TestInvalidSchemaRejected(t *testing.T) {
	s := paperSchema()
	s.Edges[0].Tail = "Nope"
	if _, err := Analyze(s); err == nil {
		t.Fatal("invalid schema should fail analysis")
	}
}

func TestPlanDeterministic(t *testing.T) {
	a, err := Analyze(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(ids(a), ",") != strings.Join(ids(b), ",") {
		t.Fatalf("plans differ:\n%v\n%v", ids(a), ids(b))
	}
}

func TestTaskIDs(t *testing.T) {
	cases := []struct {
		task Task
		id   string
	}{
		{Task{Kind: TaskProperty, Type: "T", Prop: "p"}, "P:T.p"},
		{Task{Kind: TaskStructure, Type: "e"}, "S:e"},
		{Task{Kind: TaskMatch, Type: "e"}, "M:e"},
		{Task{Kind: TaskEdgeProperty, Type: "e", Prop: "p"}, "EP:e.p"},
	}
	for _, c := range cases {
		if c.task.ID() != c.id {
			t.Errorf("ID = %s, want %s", c.task.ID(), c.id)
		}
	}
	if TaskProperty.String() != "property" || TaskMatch.String() != "match" {
		t.Error("TaskKind strings wrong")
	}
}

func TestBipartiteStructureNeedsHeadCount(t *testing.T) {
	// A *→* edge between two types, head count inferred from another
	// edge: structure must come after that edge's structure.
	s := &schema.Schema{
		Name: "shop",
		Nodes: []schema.NodeType{
			{Name: "User", Count: 100},
			{Name: "Product"}, // inferred from lists
			{Name: "Vendor", Count: 10},
		},
		Edges: []schema.EdgeType{
			{Name: "lists", Tail: "Vendor", Head: "Product", Cardinality: schema.OneToMany,
				Structure: schema.GeneratorSpec{Name: "powerlaw-out"}},
			{Name: "buys", Tail: "User", Head: "Product", Cardinality: schema.ManyToMany,
				Structure: schema.GeneratorSpec{Name: "zipf-attachment"}},
		},
	}
	plan, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if pos(t, plan, "S:buys") < pos(t, plan, "S:lists") {
		t.Error("buys structure before lists (head domain unknown)")
	}
}

func TestChainedInference(t *testing.T) {
	// Person -> creates -> Message -> replies(1→*) -> Reply: two hops of
	// count inference.
	s := paperSchema()
	s.Nodes = append(s.Nodes, schema.NodeType{
		Name: "Reply",
		Properties: []schema.Property{
			{Name: "text", Kind: table.KindString, Generator: schema.GeneratorSpec{Name: "text"}},
		},
	})
	s.Edges = append(s.Edges, schema.EdgeType{
		Name: "replies", Tail: "Message", Head: "Reply",
		Cardinality: schema.OneToMany,
		Structure:   schema.GeneratorSpec{Name: "powerlaw-out"},
	})
	plan, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	if pos(t, plan, "S:replies") < pos(t, plan, "S:creates") {
		t.Error("replies structure before creates (Message count unknown)")
	}
	if pos(t, plan, "P:Reply.text") < pos(t, plan, "S:replies") {
		t.Error("Reply property before replies structure")
	}
	if src := plan.Counts["Reply"]; src.Kind != SourceEdgeHead || src.Edge != "replies" {
		t.Errorf("Reply source = %+v", src)
	}
}

// TestDepsExposed: the plan must carry the task DAG itself, not just a
// topological order, with edges for every dependency the executor
// relies on.
func TestDepsExposed(t *testing.T) {
	plan, err := Analyze(paperSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Deps) != len(plan.Tasks) {
		t.Fatalf("Deps has %d entries for %d tasks", len(plan.Deps), len(plan.Tasks))
	}
	hasDep := func(task, on string) bool {
		ti := pos(t, plan, task)
		oi := pos(t, plan, on)
		for _, d := range plan.Deps[ti] {
			if d == oi {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct{ task, on string }{
		{"P:Person.name", "P:Person.country"},              // conditioned property
		{"P:Person.name", "P:Person.sex"},                  // conditioned property
		{"M:knows", "S:knows"},                             // match after structure
		{"M:knows", "P:Person.country"},                    // match after correlated property
		{"P:Message.topic", "S:creates"},                   // count inferred through 1→* head
		{"M:creates", "S:creates"},                         // match after structure
		{"EP:knows.creationDate", "M:knows"},               // edge property after match
		{"EP:knows.creationDate", "P:Person.creationDate"}, // endpoint dep
	} {
		if !hasDep(tc.task, tc.on) {
			t.Errorf("missing dependency %s -> %s", tc.on, tc.task)
		}
	}
	// Deps must be consistent with the topological order: every
	// dependency index precedes the dependent.
	for i, deps := range plan.Deps {
		seen := map[int]bool{}
		for _, d := range deps {
			if d >= i {
				t.Errorf("task %s depends on later task %s", plan.Tasks[i].ID(), plan.Tasks[d].ID())
			}
			if seen[d] {
				t.Errorf("task %s lists dependency %s twice", plan.Tasks[i].ID(), plan.Tasks[d].ID())
			}
			seen[d] = true
		}
	}
}

// TestPrefixedDepReadsEndpoint: an edge property given "tail.a" waits
// for the tail's node property a, even beside a sibling edge property
// literally named tail.a.
func TestPrefixedDepReadsEndpoint(t *testing.T) {
	intProp := func(name string, deps ...string) schema.Property {
		return schema.Property{Name: name, Kind: table.KindInt, Generator: schema.GeneratorSpec{Name: "uniform-int"}, DependsOn: deps}
	}
	s := &schema.Schema{
		Name:  "g",
		Nodes: []schema.NodeType{{Name: "P", Count: 200, Properties: []schema.Property{intProp("a")}}},
		Edges: []schema.EdgeType{{
			Name: "e", Tail: "P", Head: "P", Cardinality: schema.ManyToMany,
			Structure:  schema.GeneratorSpec{Name: "erdos-renyi"},
			Properties: []schema.Property{intProp("tail.a"), intProp("b", "tail.a")},
		}},
	}
	plan, err := Analyze(s)
	if err != nil {
		t.Fatal(err)
	}
	var deps []string
	for _, d := range plan.Deps[pos(t, plan, "EP:e.b")] {
		deps = append(deps, plan.Tasks[d].ID())
	}
	if want := []string{"P:P.a", "M:e"}; strings.Join(deps, " ") != strings.Join(want, " ") {
		t.Errorf("EP:e.b depends on %v, want %v", deps, want)
	}
}
