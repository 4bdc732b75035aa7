package core

import (
	"datasynth/internal/depgraph"
	"datasynth/internal/schema"
	"datasynth/internal/sgen"
)

// EstimatedSizes derives best-effort node and edge totals for a schema
// without generating anything. It walks the plan's tasks in order, the
// way the engine resolves counts: explicit node counts and tails sized
// from an explicit edge count via getNumNodes first, then at each
// structure task the edge count — explicit, or the generator's
// EdgeCountEstimator closed form (RMAT's edge factor, LFR's average
// degree, a 1→* generator's mean out-degree, …) at the tail count —
// which also sizes the head when that edge is the head's 1→* source.
// The plan puts the structure task that sizes a tail before every
// structure task that reads it.
//
// The result is a lower bound: a contribution that cannot be estimated
// — an unsized tail, a generator without an estimator — counts as zero
// rather than failing the whole estimate. The generation service uses
// this at admission to reject oversized jobs before any work; the
// post-generation dataset check stays authoritative.
func EstimatedSizes(s *schema.Schema) (nodes, edges int64, err error) {
	plan, err := depgraph.Analyze(s)
	if err != nil {
		return 0, 0, err
	}
	e := New(s)
	counts := make(map[string]int64, len(s.Nodes))
	for i := range s.Nodes {
		name := s.Nodes[i].Name
		switch src := plan.Counts[name]; src.Kind {
		case depgraph.SourceExplicit:
			counts[name] = s.Nodes[i].Count
		case depgraph.SourceEdgeCount:
			if n, err := e.tailCountFromEdgeCount(s.EdgeType(src.Edge)); err == nil && n > 0 {
				counts[name] = n
			}
		}
	}
	// estimate is the generator's edge count for the tail's count; 0
	// when the tail is unsized or the generator offers no estimate.
	estimate := func(edge *schema.EdgeType) int64 {
		nTail, ok := counts[edge.Tail]
		if !ok {
			return 0
		}
		mono, bip, err := e.structureGen(edge)
		if err != nil {
			return 0
		}
		var g any = bip
		if mono != nil {
			g = mono
		}
		if est, ok := g.(sgen.EdgeCountEstimator); ok {
			return max(est.EstimatedEdges(nTail), 0)
		}
		return 0
	}
	for _, t := range plan.Tasks {
		if t.Kind != depgraph.TaskStructure {
			continue
		}
		edge := s.EdgeType(t.Type)
		m := edge.Count
		if m <= 0 {
			m = estimate(edge)
		}
		edges += m
		// 1→* heads are dense [0, m): the head count is the edge count
		// of the feeding edge.
		if src := plan.Counts[edge.Head]; src.Kind == depgraph.SourceEdgeHead && src.Edge == edge.Name && m > 0 {
			counts[edge.Head] = m
		}
	}
	for i := range s.Nodes {
		nodes += counts[s.Nodes[i].Name]
	}
	return nodes, edges, nil
}
