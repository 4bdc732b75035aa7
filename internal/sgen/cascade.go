package sgen

import (
	"fmt"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// This file implements the paper's future-work tree structures:
// "Other specific graph structures such as trees, which appear in
// message cascades in social networks, might require also special
// strategies." A cascade is a reply tree: every non-root node has
// exactly one parent, so the replyOf edge type is 1→* from child to
// parent and the structure is cycle-free by construction, e.g.
//
//	edge replyOf : Message 1-* Message { structure = cascade(...) }
//
// Nodes are numbered so that a parent always precedes its children and
// each tree is a contiguous id range starting at its root, so a caller
// that propagates values down the trees (reply dates, thread topics)
// does it in one forward sweep; examples/forum shows how.

// Cascade grows reply trees with attachment inside each tree: a new
// reply attaches to an existing message of the same cascade, either
// uniformly or to the latest one — the standard model for
// discussion-thread shapes.
type Cascade struct {
	// TreeSizeMin/Max and Gamma define the power-law cascade size
	// distribution P(size) ∝ size^-Gamma on [TreeSizeMin, TreeSizeMax].
	TreeSizeMin, TreeSizeMax int
	Gamma                    float64
	// PreferRecent is the probability that a reply attaches to the
	// latest message of its tree (0 = uniform over the cascade, 1 =
	// always the latest, producing path-like threads).
	PreferRecent float64
	Seed         uint64
}

// NewCascade returns a cascade generator with discussion-forum
// defaults: sizes 1-100 with exponent 2, mild recency bias.
func NewCascade(seed uint64) *Cascade {
	return &Cascade{TreeSizeMin: 1, TreeSizeMax: 100, Gamma: 2.0, PreferRecent: 0.3, Seed: seed}
}

// Name implements Generator.
func (g *Cascade) Name() string { return "cascade" }

// Validate implements Generator.
func (g *Cascade) Validate() error {
	if g.TreeSizeMin < 1 || g.TreeSizeMax < g.TreeSizeMin {
		return fmt.Errorf("cascade: tree size bounds [%d,%d] invalid", g.TreeSizeMin, g.TreeSizeMax)
	}
	if !(g.Gamma > 0) {
		return fmt.Errorf("cascade: gamma must be positive, got %v", g.Gamma)
	}
	if !(g.PreferRecent >= 0 && g.PreferRecent <= 1) {
		return fmt.Errorf("cascade: PreferRecent %v outside [0,1]", g.PreferRecent)
	}
	return nil
}

// Run implements Generator: it grows cascades until they cover n nodes
// (the last tree is truncated to fit) and returns one edge per
// non-root node, tail = child, head = parent, in child order.
func (g *Cascade) Run(n int64) (*table.EdgeTable, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cascade: need n > 0, got %d", n)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	sizeDist, err := xrand.NewPowerLawInt(g.TreeSizeMin, g.TreeSizeMax, g.Gamma)
	if err != nil {
		return nil, err
	}
	sizes := xrand.NewStream(g.Seed).DeriveStream("sizes")
	attach := xrand.NewStream(g.Seed).DeriveStream("attach")

	et := table.NewEdgeTable("cascade", n)
	var next, draw int64
	for treeIdx := int64(0); next < n; treeIdx++ {
		size := int64(sizeDist.Sample(sizes, treeIdx))
		if next+size > n {
			size = n - next
		}
		root := next
		for v := root + 1; v < root+size; v++ {
			parent := v - 1 // reply to the latest message in the tree
			if !(attach.Float64(draw) < g.PreferRecent) {
				parent = root + attach.Intn(draw+1<<40, v-root)
			}
			draw++
			et.Add(v, parent)
		}
		next = root + size
	}
	return et, nil
}

// NumNodesForEdges implements Generator: a forest over n nodes has
// n − #trees edges; with mean tree size s̄ that is n·(1 − 1/s̄).
func (g *Cascade) NumNodesForEdges(numEdges int64) (int64, error) {
	if numEdges <= 0 {
		return 0, fmt.Errorf("cascade: numEdges must be positive, got %d", numEdges)
	}
	mean := float64(g.TreeSizeMin+g.TreeSizeMax) / 2
	if mean <= 1 {
		return 0, fmt.Errorf("cascade: mean tree size must exceed 1 to have edges")
	}
	frac := 1 - 1/mean
	n := int64(float64(numEdges)/frac) + 1
	return n, nil
}
