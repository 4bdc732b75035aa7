package sgen

import (
	"fmt"
	"math"
	"sort"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// This file implements the classic baseline generators any
// benchmarking framework is expected to ship: Erdős–Rényi G(n,m),
// Barabási–Albert preferential attachment, and Watts–Strogatz small
// world. They round out the paper's "let the user choose between
// existing structure generators" design point.

// ErdosRenyi generates G(n, m): m uniform edges without duplicates or
// self-loops.
type ErdosRenyi struct {
	// EdgesPerNode scales m with n when Run is called: m = n·EdgesPerNode.
	EdgesPerNode float64
	Seed         uint64
}

// NewErdosRenyi returns a G(n,m) generator with m = n·edgesPerNode.
func NewErdosRenyi(edgesPerNode float64, seed uint64) *ErdosRenyi {
	return &ErdosRenyi{EdgesPerNode: edgesPerNode, Seed: seed}
}

// Name implements Generator.
func (g *ErdosRenyi) Name() string { return "erdos-renyi" }

// Validate implements Generator.
func (g *ErdosRenyi) Validate() error {
	if !(g.EdgesPerNode > 0) {
		return fmt.Errorf("sgen: Erdős–Rényi needs positive edges per node, got %v", g.EdgesPerNode)
	}
	return nil
}

// Run implements Generator.
func (g *ErdosRenyi) Run(n int64) (*table.EdgeTable, error) {
	if n <= 1 {
		return nil, fmt.Errorf("sgen: Erdős–Rényi needs n > 1, got %d", n)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := int64(float64(n) * g.EdgesPerNode)
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	et := table.NewEdgeTable("erdos-renyi", m)
	s := xrand.NewStream(g.Seed)
	seen := make(edgeSet, m)
	var i int64
	for et.Len() < m {
		a := s.Intn(2*i, n)
		b := s.Intn(2*i+1, n)
		i++
		if seen.add(a, b) {
			et.Add(min(a, b), max(a, b))
		}
	}
	return et, nil
}

// EstimatedEdges implements EdgeCountEstimator: m = n·EdgesPerNode,
// capped at the densest simple graph.
func (g *ErdosRenyi) EstimatedEdges(n int64) int64 {
	if n <= 1 || g.EdgesPerNode <= 0 {
		return 0
	}
	m := int64(float64(n) * g.EdgesPerNode)
	if maxM := n * (n - 1) / 2; m > maxM {
		m = maxM
	}
	return m
}

// NumNodesForEdges implements Generator.
func (g *ErdosRenyi) NumNodesForEdges(numEdges int64) (int64, error) {
	if g.EdgesPerNode <= 0 {
		return 0, fmt.Errorf("sgen: Erdős–Rényi needs positive edges per node")
	}
	return searchNodesForEdges(numEdges, func(n int64) float64 {
		return float64(n) * g.EdgesPerNode
	})
}

// BarabasiAlbert generates a preferential-attachment graph: each new
// node attaches M edges to existing nodes with probability proportional
// to their current degree, yielding a power-law degree distribution.
type BarabasiAlbert struct {
	M    int // edges per new node
	Seed uint64
}

// NewBarabasiAlbert returns a BA generator attaching m edges per node.
func NewBarabasiAlbert(m int, seed uint64) *BarabasiAlbert {
	return &BarabasiAlbert{M: m, Seed: seed}
}

// Name implements Generator.
func (g *BarabasiAlbert) Name() string { return "barabasi-albert" }

// Validate implements Generator.
func (g *BarabasiAlbert) Validate() error {
	if g.M < 1 {
		return fmt.Errorf("sgen: Barabási–Albert needs M >= 1, got %d", g.M)
	}
	return nil
}

// Run implements Generator.
func (g *BarabasiAlbert) Run(n int64) (*table.EdgeTable, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if n <= int64(g.M) {
		return nil, fmt.Errorf("sgen: Barabási–Albert needs n > M, got n=%d M=%d", n, g.M)
	}
	q := xrand.NewSeq(g.Seed)
	m := int64(g.M)
	et := table.NewEdgeTable("barabasi-albert", (n-m)*m)
	// endpointList holds both endpoints of every edge; sampling a
	// uniform element of it is sampling proportional to degree.
	endpoints := make([]int64, 0, 2*(n-m)*m)
	// Seed clique over the first M+1 nodes.
	for a := int64(0); a <= m; a++ {
		for b := a + 1; b <= m; b++ {
			et.Add(a, b)
			endpoints = append(endpoints, a, b)
		}
	}
	for v := m + 1; v < n; v++ {
		chosen := make(map[int64]struct{}, g.M)
		for len(chosen) < g.M {
			var target int64
			if q.Float64() < 0.05 || len(endpoints) == 0 {
				target = q.Intn(v) // uniform escape hatch keeps graph connected
			} else {
				target = endpoints[q.Intn(int64(len(endpoints)))]
			}
			if target == v {
				continue
			}
			chosen[target] = struct{}{}
		}
		// The emission order of v's targets feeds both the edge table
		// bytes and the endpoints list that later nodes sample from, so
		// it must not depend on map iteration order.
		targets := make([]int64, 0, len(chosen))
		for t := range chosen {
			targets = append(targets, t)
		}
		sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
		for _, t := range targets {
			et.Add(v, t)
			endpoints = append(endpoints, v, t)
		}
	}
	return et, nil
}

// EstimatedEdges implements EdgeCountEstimator: m ≈ n·M.
func (g *BarabasiAlbert) EstimatedEdges(n int64) int64 {
	if n <= int64(g.M) || g.M < 1 {
		return 0
	}
	return (n - int64(g.M)) * int64(g.M)
}

// NumNodesForEdges implements Generator: m ≈ n·M.
func (g *BarabasiAlbert) NumNodesForEdges(numEdges int64) (int64, error) {
	if g.M < 1 {
		return 0, fmt.Errorf("sgen: Barabási–Albert needs M >= 1")
	}
	n := numEdges/int64(g.M) + int64(g.M) + 1
	if n <= int64(g.M) {
		n = int64(g.M) + 2
	}
	return n, nil
}

// WattsStrogatz generates a small-world ring lattice with K neighbours
// per side and rewiring probability Beta.
type WattsStrogatz struct {
	K    int     // each node connects to K nearest neighbours on each side
	Beta float64 // rewiring probability
	Seed uint64
}

// NewWattsStrogatz returns a WS generator.
func NewWattsStrogatz(k int, beta float64, seed uint64) *WattsStrogatz {
	return &WattsStrogatz{K: k, Beta: beta, Seed: seed}
}

// Name implements Generator.
func (g *WattsStrogatz) Name() string { return "watts-strogatz" }

// Validate implements Generator.
func (g *WattsStrogatz) Validate() error {
	if g.K < 1 {
		return fmt.Errorf("sgen: Watts–Strogatz needs K >= 1, got %d", g.K)
	}
	if !(g.Beta >= 0 && g.Beta <= 1) {
		return fmt.Errorf("sgen: Watts–Strogatz beta %v outside [0,1]", g.Beta)
	}
	return nil
}

// Run implements Generator.
func (g *WattsStrogatz) Run(n int64) (*table.EdgeTable, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if n < int64(2*g.K+1) {
		return nil, fmt.Errorf("sgen: Watts–Strogatz needs n >= 2K+1, got %d", n)
	}
	q := xrand.NewSeq(g.Seed)
	et := table.NewEdgeTable("watts-strogatz", n*int64(g.K))
	seen := make(edgeSet, n*int64(g.K))
	for v := int64(0); v < n; v++ {
		for k := 1; k <= g.K; k++ {
			target := (v + int64(k)) % n
			if q.Float64() < g.Beta {
				// Rewire to a uniform node, retrying on collisions.
				for tries := 0; tries < 16; tries++ {
					cand := q.Intn(n)
					if seen.add(v, cand) {
						et.Add(v, cand)
						target = -1
						break
					}
				}
				if target == -1 {
					continue
				}
			}
			if seen.add(v, target) {
				et.Add(v, target)
			}
		}
	}
	return et, nil
}

// EstimatedEdges implements EdgeCountEstimator: m ≈ n·K.
func (g *WattsStrogatz) EstimatedEdges(n int64) int64 {
	if g.K < 1 || n < int64(2*g.K+1) {
		return 0
	}
	return n * int64(g.K)
}

// NumNodesForEdges implements Generator: m ≈ n·K.
func (g *WattsStrogatz) NumNodesForEdges(numEdges int64) (int64, error) {
	if g.K < 1 {
		return 0, fmt.Errorf("sgen: Watts–Strogatz needs K >= 1")
	}
	n := int64(math.Ceil(float64(numEdges) / float64(g.K)))
	if min := int64(2*g.K + 1); n < min {
		n = min
	}
	return n, nil
}
