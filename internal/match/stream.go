package match

import (
	"fmt"

	"datasynth/internal/graph"
	"datasynth/internal/table"
)

// unassigned marks a node not yet placed in a group. A group is below
// k, and k ≤ rows ≤ table.MaxNodes < unassigned.
const unassigned = ^uint32(0)

// checkSizes checks that order has n entries and the capacities cover
// n nodes.
func checkSizes(order []uint32, n int64, capacities []int64) error {
	if int64(len(order)) != n {
		return fmt.Errorf("match: order has %d entries for %d nodes", len(order), n)
	}
	var total int64
	for _, q := range capacities {
		total += q
	}
	if total < n {
		return fmt.Errorf("match: total capacity %d below node count %d", total, n)
	}
	return nil
}

// streamOrder returns the stream order of a run over n nodes — order
// itself, or RandomOrder(n, seed) when nil — and its rank: rank[v] is
// v's position in the stream. It is the one check every streaming
// partitioner's inputs get: the order must be a permutation of [0, n),
// with the rank as the seen marker, and the capacities must cover n.
// The rank orients the CSR a run without refinement reads
// (graph.FromEdgesStreamed).
func streamOrder(order []uint32, n int64, seed uint64, capacities []int64) ([]uint32, []uint32, error) {
	if n > table.MaxNodes {
		return nil, nil, fmt.Errorf("match: %d nodes exceed the limit of %d", n, int64(table.MaxNodes))
	}
	if order == nil {
		order = RandomOrder(n, seed)
	}
	if err := checkSizes(order, n, capacities); err != nil {
		return nil, nil, err
	}
	// A position is below n ≤ table.MaxNodes, so no rank is unassigned.
	rank := make([]uint32, n)
	for i := range rank {
		rank[i] = unassigned
	}
	for i, v := range order {
		if int64(v) >= n || rank[v] != unassigned {
			return nil, nil, fmt.Errorf("match: order is not a permutation (node %d)", v)
		}
		rank[v] = uint32(i)
	}
	return order, rank, nil
}

// stream is the kernel every streaming partitioner in this package runs
// on: the graph, the assignment being built, and the per-node scratch
// that carries a node's neighbour-group counts from the gather to the
// variant's commit callback. A commit reads cnt and touched, decides
// v's group, writes assign[v] and zeroes the cnt entries it was handed;
// that is all a variant supplies.
type stream struct {
	g      *graph.Graph
	assign []uint32 // group per node, unassigned until placed

	cnt     []int64 // v's placed neighbours per group; non-zero only at touched
	touched []int   // groups with cnt > 0, in the order v's neighbour list first reaches them
}

// newStream returns a stream over g into k groups. Its group array is
// assign, g.N() entries the caller no longer reads: the rank of the
// run's order, dead once the order is checked and the CSR built.
func newStream(g *graph.Graph, k int, assign []uint32) *stream {
	s := &stream{
		g:       g,
		assign:  assign,
		cnt:     make([]int64, k),
		touched: make([]int, 0, k),
	}
	for i := range s.assign {
		s.assign[i] = unassigned
	}
	return s
}

// gather counts v's neighbours per group under the current assignment,
// skipping self-loops and neighbours not placed yet.
func (s *stream) gather(v int64) {
	assign, cnt, touched := s.assign, s.cnt, s.touched[:0]
	for _, u := range s.g.Neighbors(v) {
		if int64(u) == v {
			continue
		}
		if a := assign[u]; a != unassigned {
			if cnt[a] == 0 {
				touched = append(touched, int(a))
			}
			cnt[a]++
		}
	}
	s.touched = touched
}

// run streams order through commit: gather a node's counts, commit it,
// next node. Serial by definition: SBM-Part is a streaming partitioner,
// each node is placed against the state the previous node left.
func (s *stream) run(order []uint32, commit func(v int64) error) error {
	for _, v := range order {
		s.gather(int64(v))
		if err := commit(int64(v)); err != nil {
			return err
		}
	}
	return nil
}
