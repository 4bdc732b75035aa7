// Package graph provides a compact undirected-graph representation and
// the structural metrics the paper's Section 2 lists as characteristics
// a generator must reproduce: degree distribution, clustering
// coefficient, connected components, diameter, assortativity and
// community quality (modularity).
//
// The package is a substrate: the matcher reads its CSR (the streamed
// one when it does not refine), structure generators are validated
// against it in tests, and the Table 1 capability harness measures
// generated graphs with it. Every build allocates its graph's own
// arrays; nothing is pooled, so a Graph never aliases another.
package graph

import (
	"fmt"

	"datasynth/internal/table"
)

// Graph is an undirected graph in CSR (compressed sparse row) form.
// Self-loops are allowed (they contribute one neighbour entry) and
// parallel edges are preserved as built.
//
// Node ids are below table.MaxNodes, so an adjacency entry is a uint32:
// 4 bytes per entry plus 8 bytes per node for the offsets.
//
// A streamed graph (FromEdgesStreamed, FromBipartiteEdges with a rank)
// holds each non-loop edge once, at its later-streamed endpoint: a
// node's list is what a streaming partitioner can read when the node
// arrives, and its Degree counts only that. M is the edge count as built
// either way. The metrics in this package want the full CSR.
type Graph struct {
	n      int64
	offs   []int64  // len n+1
	adj    []uint32 // len = sum of degrees
	mEdges int64    // number of edges as built (each undirected edge once)
}

// FromEdgeTable builds an undirected CSR graph over n nodes from an
// edge table. Each table row (t, h) becomes an undirected edge {t, h};
// an endpoint outside [0, n) or ragged columns fail the build.
func FromEdgeTable(et *table.EdgeTable, n int64) (*Graph, error) {
	return FromEdges(et.Tail, et.Head, n)
}

// FromEdges builds an undirected CSR graph over n nodes from parallel
// endpoint slices. The graph owns freshly allocated buffers.
func FromEdges(tail, head []uint32, n int64) (*Graph, error) {
	return build(tail, head, n, n, 0, nil)
}

// FromEdgesStreamed builds the streamed CSR of an edge list for a
// stream order: rank[v] is v's position in the stream (any
// order-preserving numbering of it, one entry per node, all distinct).
// Each non-loop edge is kept once, in the list of whichever endpoint
// streams later; self-loops are dropped. A node's list is its full list
// filtered to the neighbours streamed before it, in edge-list order. A
// nil rank keeps both endpoints, as FromEdges does.
func FromEdgesStreamed(tail, head []uint32, n int64, rank []uint32) (*Graph, error) {
	return build(tail, head, n, n, 0, rank)
}

// FromBipartiteEdges builds the undirected graph of a bipartite edge
// list over nTail+nHead nodes: tail t keeps its id, head h becomes node
// nTail+h. As in every graph built here, a node's neighbours are in
// edge-list order. A nil rank keeps both endpoints; a rank over the
// nTail+nHead ids streams the graph as FromEdgesStreamed does.
func FromBipartiteEdges(tail, head []uint32, nTail, nHead int64, rank []uint32) (*Graph, error) {
	return build(tail, head, nTail, nHead, nTail, rank)
}

// build lays out the CSR for tails in [0, nTail) and heads in
// [0, nHead), heads shifted by headShift in the node id space, each edge
// in the lists holders names. Its counting pass is the one range check
// an edge gets.
func build(tail, head []uint32, nTail, nHead, headShift int64, rank []uint32) (*Graph, error) {
	if len(tail) != len(head) {
		return nil, fmt.Errorf("graph: ragged edge list (%d tails, %d heads)", len(tail), len(head))
	}
	n := max(nTail, headShift+nHead)
	if n > table.MaxNodes {
		return nil, fmt.Errorf("graph: %d nodes exceed the CSR's limit of %d", n, int64(table.MaxNodes))
	}
	if rank != nil && int64(len(rank)) != n {
		return nil, fmt.Errorf("graph: stream rank has %d entries for %d nodes", len(rank), n)
	}
	// offs[v+1] counts v's list length, then the prefix sum makes offs[v]
	// the start of v's list, which the fill advances as v's cursor.
	offs := make([]int64, n+1)
	// count and fill are functions of their own: inside build, with its
	// error paths, their loops ran out of registers and spilled.
	if i := count(offs, tail, head, nTail, nHead, headShift, rank); i >= 0 {
		return nil, fmt.Errorf("graph: edge %d (%d,%d) outside [0,%d)×[0,%d)", i, tail[i], head[i], nTail, nHead)
	}
	for v := int64(0); v < n; v++ {
		offs[v+1] += offs[v]
	}
	adj := make([]uint32, offs[n])
	fill(adj, offs, tail, head, headShift, rank)
	// Each cursor stopped at the next node's start: shift them back.
	copy(offs[1:], offs[:n])
	offs[0] = 0
	return &Graph{n: n, offs: offs, adj: adj, mEdges: int64(len(tail))}, nil
}

// count adds each edge to offs[v+1] for every list v that holds it. It
// stops at the first edge with an endpoint outside [0, nTail)×[0, nHead)
// and returns its index, or -1 when there is none.
func count(offs []int64, tail, head []uint32, nTail, nHead, headShift int64, rank []uint32) int {
	head = head[:len(tail)]
	for i, t := range tail {
		h := int64(head[i])
		if int64(t) >= nTail || h >= nHead {
			return i
		}
		v, u, k := holders(int64(t), h+headShift, rank)
		if k > 0 {
			offs[v+1]++
		}
		if k > 1 {
			offs[u+1]++
		}
	}
	return -1
}

// fill writes each edge into the lists that hold it, advancing each
// list's cursor offs[v].
func fill(adj []uint32, offs []int64, tail, head []uint32, headShift int64, rank []uint32) {
	head = head[:len(tail)]
	for i, t := range tail {
		v, u, k := holders(int64(t), int64(head[i])+headShift, rank)
		if k > 0 {
			adj[offs[v]] = uint32(u)
			offs[v]++
		}
		if k > 1 {
			adj[offs[u]] = uint32(v)
			offs[u]++
		}
	}
}

// holders names the lists that hold the edge {t, h}: with k ≥ 1 v's
// list holds u, with k = 2 u's list holds v as well. Without a rank that
// is both endpoints, a self-loop once; with one it is the later-streamed
// endpoint alone, and a self-loop, streamed with itself, is in no list.
func holders(t, h int64, rank []uint32) (v, u int64, k int) {
	if rank == nil {
		if h == t {
			return t, h, 1
		}
		return t, h, 2
	}
	rt, rh := rank[t], rank[h]
	if rt == rh {
		return t, h, 0
	}
	// Which endpoint streams later is a coin flip per edge: swap without
	// a branch (SETcc, not a jump), which saved about a fifth of the
	// streamed build over a mispredicted one.
	var later int64
	if rh > rt {
		later = 1
	}
	swap := (t ^ h) & -later
	return t ^ swap, h ^ swap, 1
}

// N returns the number of nodes.
func (g *Graph) N() int64 { return g.n }

// M returns the number of undirected edges as built.
func (g *Graph) M() int64 { return g.mEdges }

// Degree returns the degree of v (self-loops count once).
func (g *Graph) Degree(v int64) int64 { return g.offs[v+1] - g.offs[v] }

// Neighbors returns the adjacency slice of v, in edge-list order.
// Callers must not modify it.
func (g *Graph) Neighbors(v int64) []uint32 { return g.adj[g.offs[v]:g.offs[v+1]] }

// AvgDegree returns the mean degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return float64(len(g.adj)) / float64(g.n)
}

// MaxDegree returns the maximum degree.
func (g *Graph) MaxDegree() int64 {
	var max int64
	for v := int64(0); v < g.n; v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// ConnectedComponents labels nodes with component ids (0-based, in
// discovery order) and returns (labels, componentCount).
func (g *Graph) ConnectedComponents() ([]int64, int64) {
	labels := make([]int64, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var comp int64
	stack := make([]int64, 0, 1024)
	for s := int64(0); s < g.n; s++ {
		if labels[s] != -1 {
			continue
		}
		stack = append(stack[:0], s)
		labels[s] = comp
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range g.Neighbors(v) {
				if labels[u] == -1 {
					labels[u] = comp
					stack = append(stack, int64(u))
				}
			}
		}
		comp++
	}
	return labels, comp
}

// LargestComponentFraction returns |largest component| / n.
func (g *Graph) LargestComponentFraction() float64 {
	if g.n == 0 {
		return 0
	}
	labels, k := g.ConnectedComponents()
	sizes := make([]int64, k)
	for _, l := range labels {
		sizes[l]++
	}
	var max int64
	for _, s := range sizes {
		if s > max {
			max = s
		}
	}
	return float64(max) / float64(g.n)
}

// BFSDistances returns hop distances from src (-1 for unreachable).
func (g *Graph) BFSDistances(src int64) []int64 {
	dist := make([]int64, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int64{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, int64(u))
			}
		}
	}
	return dist
}

// ApproxDiameter estimates the diameter by double-sweep BFS from
// `samples` pseudo-random start nodes; it is a lower bound, the usual
// approach on large graphs.
func (g *Graph) ApproxDiameter(samples int, seed uint64) int64 {
	if g.n == 0 {
		return 0
	}
	var best int64
	s := seed
	for i := 0; i < samples; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		start := int64(s % uint64(g.n))
		far, _ := farthest(g.BFSDistances(start))
		d2 := g.BFSDistances(far)
		_, ecc := farthest(d2)
		if ecc > best {
			best = ecc
		}
	}
	return best
}

func farthest(dist []int64) (node, d int64) {
	node, d = 0, 0
	for v, dv := range dist {
		if dv > d {
			node, d = int64(v), dv
		}
	}
	return
}
