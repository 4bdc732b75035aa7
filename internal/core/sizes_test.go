package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datasynth/internal/dsl"
)

// TestEstimatedSizes: the admission estimate resolves counts the schema
// never declares — the Message count through the 1→* creates edge, both
// edge counts through the generators' closed forms — and lands within a
// factor of two of what generation actually produces.
func TestEstimatedSizes(t *testing.T) {
	s, err := dsl.Parse(paperDSL)
	if err != nil {
		t.Fatal(err)
	}
	estNodes, estEdges, err := EstimatedSizes(s)
	if err != nil {
		t.Fatal(err)
	}
	if estNodes <= 2000 {
		t.Errorf("estimated nodes = %d, want > 2000 (inferred Message count missing)", estNodes)
	}
	if estEdges <= 0 {
		t.Fatalf("estimated edges = %d, want > 0 (no edge count is declared)", estEdges)
	}
	d, err := New(s).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var nodes, edges int64
	for _, n := range d.NodeCounts {
		nodes += n
	}
	for _, et := range d.Edges {
		edges += et.Len()
	}
	if estNodes > 2*nodes || nodes > 2*estNodes {
		t.Errorf("estimated %d nodes, generated %d — off by more than 2x", estNodes, nodes)
	}
	if estEdges > 2*edges || edges > 2*estEdges {
		t.Errorf("estimated %d edges, generated %d — off by more than 2x", estEdges, edges)
	}
}

// TestEstimatedSizesPinned pins the admission estimate of the core test
// schemas and of the three benchmark templates at their full sizes, so
// a rewrite of EstimatedSizes must keep every (nodes, edges) pair. The
// templates are read from bench/schemas and rendered the way the
// benchmark harness renders them.
func TestEstimatedSizesPinned(t *testing.T) {
	bench := func(file string, params ...string) string {
		raw, err := os.ReadFile(filepath.Join("..", "..", "bench", "schemas", file+".dsl.tmpl"))
		if err != nil {
			t.Fatal(err)
		}
		return strings.NewReplacer(append([]string{"$SEED", "1"}, params...)...).Replace(string(raw))
	}
	for _, c := range []struct {
		name         string
		src          string
		nodes, edges int64
	}{
		{"paper", paperDSL, 5779, 13779},
		{"social", socialDSL, 8669, 23669},
		{"recommender", recommenderDSL, 3400, 9106},
		{"fused", fusedDSL, 3950, 2950},
		{"cascade", cascadeDSL, 3000, 0},
		{"prefix-twin", prefixTwinDSL, 200, 1600},
		{"bench social", bench("social", "$PERSONS", "300000"), 976197, 3676197},
		{"bench web", bench("web", "$PAGES", "262144"), 262144, 4194304},
		{"bench recommender", bench("recommender", "$USERS", "300000", "$PRODUCTS", "30000"), 330000, 910630},
	} {
		s, err := dsl.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		nodes, edges, err := EstimatedSizes(s)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if nodes != c.nodes || edges != c.edges {
			t.Errorf("%s: estimated (%d nodes, %d edges), want (%d, %d)", c.name, nodes, edges, c.nodes, c.edges)
		}
	}
}
