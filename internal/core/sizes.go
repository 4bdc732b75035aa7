package core

import (
	"maps"
	"slices"

	"datasynth/internal/depgraph"
	"datasynth/internal/schema"
	"datasynth/internal/sgen"
)

// EstimatedSizes derives best-effort node and edge totals for a schema
// without generating anything, resolving the same count-inference
// chains the engine executes: explicit counts, tails sized from an
// explicit edge count via getNumNodes, and 1→* heads sized from the
// feeding edge's estimated edge count. Inferred edge counts come from
// the generators' EdgeCountEstimator closed forms (RMAT's edge factor,
// LFR's average degree, a 1→* generator's mean out-degree, …).
//
// The result is a lower bound: a contribution that cannot be estimated
// — an unresolvable chain, a generator without an estimator — counts
// as zero rather than failing the whole estimate. The generation
// service uses this at admission to reject oversized jobs before any
// work; the post-generation dataset check stays authoritative.
func EstimatedSizes(s *schema.Schema) (nodes, edges int64, err error) {
	e := New(s)
	plan, err := depgraph.Analyze(s)
	if err != nil {
		return 0, 0, err
	}
	resolved := map[string]int64{}

	// estimateEdge sizes one edge type; ok is false while the tail count
	// is unresolved or the generator offers no estimate.
	estimateEdge := func(edge *schema.EdgeType) (int64, bool) {
		if edge.Count > 0 {
			return edge.Count, true
		}
		nTail, ok := resolved[edge.Tail]
		if !ok {
			return 0, false
		}
		mono, bip, err := e.structureGen(edge)
		if err != nil {
			return 0, false
		}
		var g any = bip
		if mono != nil {
			g = mono
		}
		est, ok := g.(sgen.EdgeCountEstimator)
		if !ok {
			return 0, false
		}
		if m := est.EstimatedEdges(nTail); m > 0 {
			return m, true
		}
		return 0, false
	}

	// Count inference is a DAG (depgraph rejects cycles), so iterating
	// to a fixpoint resolves every chain that can be resolved: each pass
	// settles at least one more link or nothing at all. The fixpoint
	// visits counts in sorted name order so the estimate — and any
	// estimator state it builds — is independent of map iteration order.
	countNames := slices.Sorted(maps.Keys(plan.Counts))
	for changed := true; changed; {
		changed = false
		for _, name := range countNames {
			src := plan.Counts[name]
			if _, done := resolved[name]; done {
				continue
			}
			switch src.Kind {
			case depgraph.SourceExplicit:
				resolved[name] = s.NodeType(name).Count
				changed = true
			case depgraph.SourceEdgeCount:
				if n, err := e.tailCountFromEdgeCount(s.EdgeType(src.Edge)); err == nil && n > 0 {
					resolved[name] = n
					changed = true
				}
			case depgraph.SourceEdgeHead:
				// 1→* heads are dense [0, m): the head count is the edge
				// count of the feeding edge.
				if m, ok := estimateEdge(s.EdgeType(src.Edge)); ok {
					resolved[name] = m
					changed = true
				}
			}
		}
	}
	for i := range s.Nodes {
		nodes += resolved[s.Nodes[i].Name]
	}
	for i := range s.Edges {
		if m, ok := estimateEdge(&s.Edges[i]); ok {
			edges += m
		}
	}
	return nodes, edges, nil
}
