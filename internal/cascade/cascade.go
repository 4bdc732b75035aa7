// Package cascade implements the paper's future-work tree structures:
// "Other specific graph structures such as trees, which appear in
// message cascades in social networks, might require also special
// strategies. In this case, information propagates through the
// cascade, which could be modeled using a vertex-centric approach that
// propagates the information through the cascade iteratively."
//
// A Forest is a set of reply trees (cascades): every non-root node has
// exactly one parent, so the replyOf edge type is 1→* from child to
// parent and the structure is cycle-free by construction. The package
// also provides the vertex-centric Propagate engine that pushes
// property values down the cascades level by level — e.g. reply dates
// that strictly increase along every root-to-leaf path.
package cascade

import (
	"fmt"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Forest is a set of reply trees over nodes 0..N-1. Parent[v] is the
// parent of v, or -1 for roots. Nodes are ordered so that parents
// always precede children (topological by construction), which makes
// downward propagation a single forward sweep.
type Forest struct {
	Parent []int64
	Roots  []int64
	Depth  []int64 // depth of every node (root = 0)
}

// Generator grows cascades with preferential attachment within each
// tree: a new reply attaches to an existing message of the same
// cascade, either uniformly or biased toward recent/popular nodes —
// the standard model for discussion-thread shapes.
type Generator struct {
	// TreeSizeMin/Max and Gamma define the power-law cascade size
	// distribution P(size) ∝ size^-Gamma on [TreeSizeMin, TreeSizeMax].
	TreeSizeMin, TreeSizeMax int
	Gamma                    float64
	// PreferRecent biases attachment toward the most recent messages
	// with probability PreferRecent (0 = uniform over the cascade,
	// 1 = always reply to the latest message, producing path-like
	// threads).
	PreferRecent float64
	Seed         uint64
}

// NewGenerator returns a cascade generator with discussion-forum
// defaults: sizes 1-100 with exponent 2, mild recency bias.
func NewGenerator(seed uint64) *Generator {
	return &Generator{TreeSizeMin: 1, TreeSizeMax: 100, Gamma: 2.0, PreferRecent: 0.3, Seed: seed}
}

// Validate checks the parameters, whatever n Run is given.
func (g *Generator) Validate() error {
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

// Run grows cascades until they cover at least n nodes (the last tree
// is truncated to exactly n) and returns the forest.
func (g *Generator) Run(n int64) (*Forest, error) {
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

	f := &Forest{
		Parent: make([]int64, n),
		Depth:  make([]int64, n),
	}
	var next int64
	var draw int64
	for treeIdx := int64(0); next < n; treeIdx++ {
		size := int64(sizeDist.Sample(sizes, treeIdx))
		if next+size > n {
			size = n - next
		}
		root := next
		f.Parent[root] = -1
		f.Depth[root] = 0
		f.Roots = append(f.Roots, root)
		next++
		for c := int64(1); c < size; c++ {
			v := next
			var parent int64
			if attach.Float64(draw) < g.PreferRecent {
				parent = v - 1 // reply to the latest message in the tree
			} else {
				parent = root + attach.Intn(draw+1<<40, v-root)
			}
			draw++
			f.Parent[v] = parent
			f.Depth[v] = f.Depth[parent] + 1
			next++
		}
	}
	return f, nil
}

// N returns the number of nodes.
func (f *Forest) N() int64 { return int64(len(f.Parent)) }

// EdgeTable converts the forest to a replyOf edge table: one edge per
// non-root node, tail = child, head = parent.
func (f *Forest) EdgeTable(name string) *table.EdgeTable {
	et := table.NewEdgeTable(name, f.N())
	for v := int64(0); v < f.N(); v++ {
		if f.Parent[v] >= 0 {
			et.Add(v, f.Parent[v])
		}
	}
	return et
}

// Validate checks the forest invariants: parents precede children,
// depths are consistent, and every tree is rooted.
func (f *Forest) Validate() error {
	rootSet := map[int64]bool{}
	for _, r := range f.Roots {
		rootSet[r] = true
	}
	for v := int64(0); v < f.N(); v++ {
		p := f.Parent[v]
		if p == -1 {
			if !rootSet[v] {
				return fmt.Errorf("cascade: node %d is parentless but not a root", v)
			}
			if f.Depth[v] != 0 {
				return fmt.Errorf("cascade: root %d has depth %d", v, f.Depth[v])
			}
			continue
		}
		if p < 0 || p >= f.N() {
			return fmt.Errorf("cascade: node %d has parent %d out of range", v, p)
		}
		if p >= v {
			return fmt.Errorf("cascade: node %d has parent %d not preceding it", v, p)
		}
		if f.Depth[v] != f.Depth[p]+1 {
			return fmt.Errorf("cascade: node %d depth %d inconsistent with parent depth %d", v, f.Depth[v], f.Depth[p])
		}
	}
	return nil
}

// MaxDepth returns the deepest level.
func (f *Forest) MaxDepth() int64 {
	var max int64
	for _, d := range f.Depth {
		if d > max {
			max = d
		}
	}
	return max
}

// TreeSizes returns the size of each cascade in root order.
func (f *Forest) TreeSizes() []int64 {
	if len(f.Roots) == 0 {
		return nil
	}
	sizes := make([]int64, len(f.Roots))
	for i := range f.Roots {
		end := f.N()
		if i+1 < len(f.Roots) {
			end = f.Roots[i+1]
		}
		sizes[i] = end - f.Roots[i]
	}
	return sizes
}

// PropagateInt64 is the vertex-centric propagation engine for int64
// values (dates, counters): roots receive init(root), every child
// receives step(parent value, child id). Because parents precede
// children, one forward sweep settles the whole forest — this is the
// "vertex-centric approach that propagates the information through the
// cascade iteratively" of the paper, specialised to the forest's
// topological layout.
func (f *Forest) PropagateInt64(init func(root int64) int64, step func(parentValue int64, child int64) int64) []int64 {
	out := make([]int64, f.N())
	for v := int64(0); v < f.N(); v++ {
		if f.Parent[v] == -1 {
			out[v] = init(v)
		} else {
			out[v] = step(out[f.Parent[v]], v)
		}
	}
	return out
}

// PropagateString is PropagateInt64 for string values (e.g. a thread
// topic inherited, with mutation, from the parent).
func (f *Forest) PropagateString(init func(root int64) string, step func(parentValue string, child int64) string) []string {
	out := make([]string, f.N())
	for v := int64(0); v < f.N(); v++ {
		if f.Parent[v] == -1 {
			out[v] = init(v)
		} else {
			out[v] = step(out[f.Parent[v]], v)
		}
	}
	return out
}

// ReplyDates is the canonical propagation: the root posts at a date
// drawn from [from, to] and every reply lands 1..maxLagDays later than
// its parent, so dates strictly increase along every path.
func (f *Forest) ReplyDates(from, to int64, maxLagDays int64, seed uint64) ([]int64, error) {
	if to < from {
		return nil, fmt.Errorf("cascade: date range empty")
	}
	if maxLagDays < 1 {
		return nil, fmt.Errorf("cascade: maxLagDays must be >= 1")
	}
	s := xrand.NewStream(seed).DeriveStream("reply-dates")
	dates := f.PropagateInt64(
		func(root int64) int64 {
			return from + s.Intn(root, to-from+1)
		},
		func(parent int64, child int64) int64 {
			return parent + 1 + s.Intn(child+1<<40, maxLagDays)
		},
	)
	return dates, nil
}
