package match

import (
	"fmt"
	"math"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Bipartite SBM-Part: the paper notes that "a small variation of
// SBM-Part can also be applied to bi-partite graphs, since the SBM can
// model this type of graphs as well. If the bi-partite graph is between
// two different node types, the input would contain two PTs instead of
// one." This file holds that variation's inputs and outputs, for edge
// types such as Person—creates—Message where both endpoint types carry
// a correlated property; the partitioner itself is SBMPart's.

// BipartiteTarget is a joint distribution P(X,Y) where X is the tail
// property value (kT categories) and Y the head value (kH categories):
// the probability that a uniformly random edge carries values (X, Y).
// Unlike stats.Joint it is not symmetric.
type BipartiteTarget struct {
	KT, KH int
	P      []float64 // row-major kT×kH
}

// NewBipartiteTarget allocates a zero target.
func NewBipartiteTarget(kt, kh int) *BipartiteTarget {
	return &BipartiteTarget{KT: kt, KH: kh, P: make([]float64, kt*kh)}
}

// At returns P(X=a, Y=b).
func (t *BipartiteTarget) At(a, b int) float64 { return t.P[a*t.KH+b] }

// Set assigns P(X=a, Y=b).
func (t *BipartiteTarget) Set(a, b int, p float64) { t.P[a*t.KH+b] = p }

// Normalize rescales the mass to 1.
func (t *BipartiteTarget) Normalize() {
	var sum float64
	for _, p := range t.P {
		sum += p
	}
	if sum == 0 {
		return
	}
	for i := range t.P {
		t.P[i] /= sum
	}
}

// Validate checks the target is a proper distribution.
func (t *BipartiteTarget) Validate() error {
	var sum float64
	for i, p := range t.P {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("match: bipartite target cell %d = %v invalid", i, p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("match: bipartite target mass %v, want 1", sum)
	}
	return nil
}

// EmpiricalBipartite measures P(X,Y) from an edge table and endpoint
// labellings.
func EmpiricalBipartite(et *table.EdgeTable, tailLabels, headLabels []int64, kt, kh int) (*BipartiteTarget, error) {
	j := NewBipartiteTarget(kt, kh)
	m := et.Len()
	if m == 0 {
		return j, nil
	}
	w := 1 / float64(m)
	for e := int64(0); e < m; e++ {
		t, h := et.Tail[e], et.Head[e]
		if int(t) >= len(tailLabels) || int(h) >= len(headLabels) {
			return nil, fmt.Errorf("match: edge %d endpoints outside labellings", e)
		}
		lt, lh := tailLabels[t], headLabels[h]
		if lt < 0 || lt >= int64(kt) || lh < 0 || lh >= int64(kh) {
			return nil, fmt.Errorf("match: edge %d labels (%d,%d) out of range", e, lt, lh)
		}
		j.P[lt*int64(kh)+lh] += w
	}
	return j, nil
}

// BipartiteResult reports a completed bipartite matching.
type BipartiteResult struct {
	TailAssign, HeadAssign   []uint32
	TailMapping, HeadMapping []uint32
	// Observed equals EmpiricalBipartite over the edge table and the
	// two assignments, bit for bit.
	Observed *BipartiteTarget
	StepTimes
}

// MatchBipartite partitions both endpoint domains of a bipartite edge
// table so that the observed P'(X,Y) approaches the target.
// tailRowLabels/headRowLabels are the two PTs reduced to value indices;
// their frequencies set the group capacities. opt.Order, when set,
// streams the combined id space: tails as they are, heads offset by
// nTail. opt.Passes is ignored: the bipartite stream has no refinement.
// An endpoint outside [0, nTail)×[0, nHead) fails the graph build.
func MatchBipartite(et *table.EdgeTable, nTail, nHead int64, tailRowLabels, headRowLabels []int64, target *BipartiteTarget, opt Options) (*BipartiteResult, error) {
	if err := target.Validate(); err != nil {
		return nil, err
	}
	kt, kh := target.KT, target.KH
	capT, err := stats.Frequencies(tailRowLabels, kt)
	if err != nil {
		return nil, fmt.Errorf("match: tail labels: %w", err)
	}
	capH, err := stats.Frequencies(headRowLabels, kh)
	if err != nil {
		return nil, fmt.Errorf("match: head labels: %w", err)
	}
	if int64(len(tailRowLabels)) < nTail {
		return nil, fmt.Errorf("match: %d tail rows for %d tail nodes", len(tailRowLabels), nTail)
	}
	if int64(len(headRowLabels)) < nHead {
		return nil, fmt.Errorf("match: %d head rows for %d head nodes", len(headRowLabels), nHead)
	}

	// The bipartite SBM as a monopartite one (see the package comment):
	// nodes are tails then heads, groups tail values then head values,
	// and the target has mass only between the two.
	block := stats.NewJoint(kt + kh)
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			block.Set(a, kt+b, target.At(a, b))
		}
	}
	part := &SBMPart{
		K: kt + kh, Target: block, Capacities: append(capT, capH...),
		Balance: opt.Balance, Seed: opt.Seed,
		tails: nTail, tailGroups: kt,
	}
	// The stream has no refinement, so, as in MatchProperty without
	// passes, the order comes first and the CSR holds each edge once, at
	// its later-streamed endpoint, in the edge table's order.
	var times StepTimes
	mark := time.Now()
	order, rank, err := streamOrder(opt.Order, nTail+nHead, opt.Seed, part.Capacities)
	if err != nil {
		return nil, err
	}
	times.OrderTime = lap(&mark)
	g, err := graph.FromBipartiteEdges(et.Tail, et.Head, nTail, nHead, rank)
	if err != nil {
		return nil, err
	}
	times.CSRTime = lap(&mark)
	r, err := part.partition(g, order, 0)
	if err != nil {
		return nil, err
	}
	times.PartitionTime = lap(&mark)
	assignT, assignH := r.assign[:nTail:nTail], r.assign[nTail:]
	for i := range assignH {
		assignH[i] -= uint32(kt)
	}

	seedT := xrand.NewStream(opt.Seed).DeriveStream("bip-tail").Seed()
	seedH := xrand.NewStream(opt.Seed).DeriveStream("bip-head").Seed()
	mapT, err := BuildMapping(assignT, tailRowLabels, kt, seedT)
	if err != nil {
		return nil, err
	}
	mapH, err := BuildMapping(assignH, headRowLabels, kh, seedH)
	if err != nil {
		return nil, err
	}
	times.MappingTime = lap(&mark)
	// The joint is the carried matrix's tail×head block: tails and heads
	// never share a node, so no edge is a self-loop, and each cell is
	// read as MatchProperty reads it (sbmRun.observed).
	obs := NewBipartiteTarget(kt, kh)
	if m := et.Len(); m > 0 {
		w := 1 / float64(m)
		for a := 0; a < kt; a++ {
			for b := 0; b < kh; b++ {
				obs.P[a*kh+b] = accumulate(w, int64(r.cur[a*part.K+kt+b]))
			}
		}
	}
	times.JointTime = lap(&mark)
	return &BipartiteResult{
		TailAssign: assignT, HeadAssign: assignH,
		TailMapping: mapT, HeadMapping: mapH,
		Observed: obs, StepTimes: times,
	}, nil
}
