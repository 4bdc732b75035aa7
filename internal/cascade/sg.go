package cascade

import (
	"fmt"

	"datasynth/internal/table"
)

// SG adapts the cascade generator to the structure-generator interface
// (sgen.Generator, matched structurally): Run(n) returns the replyOf
// edge table of a forest over n nodes. With Tail == Head and 1→*
// cardinality this plugs cascades straight into the engine, e.g.
//
//	edge replyOf : Message 1-* Message { structure = cascade(...) }
type SG struct {
	Gen *Generator
	// LastForest exposes the forest of the most recent Run for callers
	// that need the tree layout (propagation, depth statistics).
	LastForest *Forest
}

// Name implements sgen.Generator.
func (s *SG) Name() string { return "cascade" }

// Validate implements sgen.Generator.
func (s *SG) Validate() error { return s.Gen.Validate() }

// Run implements sgen.Generator.
func (s *SG) Run(n int64) (*table.EdgeTable, error) {
	f, err := s.Gen.Run(n)
	if err != nil {
		return nil, err
	}
	s.LastForest = f
	return f.EdgeTable("cascade"), nil
}

// NumNodesForEdges implements sgen.Generator: a forest over n nodes
// has n − #trees edges; with mean tree size s̄ that is n·(1 − 1/s̄).
func (s *SG) NumNodesForEdges(numEdges int64) (int64, error) {
	if numEdges <= 0 {
		return 0, fmt.Errorf("cascade: numEdges must be positive, got %d", numEdges)
	}
	mean := float64(s.Gen.TreeSizeMin+s.Gen.TreeSizeMax) / 2
	if mean <= 1 {
		return 0, fmt.Errorf("cascade: mean tree size must exceed 1 to have edges")
	}
	frac := 1 - 1/mean
	n := int64(float64(numEdges)/frac) + 1
	return n, nil
}
