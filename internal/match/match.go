// Package match implements DataSynth's property-to-node matching — the
// paper's central contribution (Section 4.2, "Graph Matching").
//
// The problem: given a Property Table p whose rows carry one of k
// values, a generated graph structure g, and a user-supplied joint
// probability distribution P(X,Y) over the values at the endpoints of a
// random edge, find a mapping f from structure-node ids to property-row
// ids such that the observed P'(X,Y) after applying f is as close as
// possible to P(X,Y).
//
// Following the paper, the problem is recast through the Stochastic
// Block Model as streaming graph partitioning: classify the nodes of g
// into k groups with sizes Q = {q_0,…,q_{k-1}} (the value frequencies
// in p) such that the inter-group edge counts approach the target
// matrix W derived from P(X,Y). The solver, SBM-Part, is a variation of
// the LDG streaming partitioner: a node arrives with its edges and is
// placed into the group t minimising the Frobenius distance
// ||W_t − W||²_F, balanced by the remaining capacity (1 − s_t/q_t).
//
// # One stream kernel
//
// Every streaming partitioner here — SBM-Part's first pass and its
// re-streaming refinement passes, over one domain or two, and the LDG
// ground-truth partitioner — is the same loop: for each node of the
// stream, count its placed neighbours per group, then decide. stream (stream.go) owns
// that loop once: gather is the neighbour count, run the one driver
// (gather, commit, next node — the stream is sequential by definition,
// each placement reads what the previous one wrote). A variant supplies
// only the commit callback, which reads the counts, picks a group and
// updates its own ledgers: sbmRun.placeFirst (the target scaled to the
// edges placed so far, placeByFrobenius, placeUnconstrained for
// neighbour-less nodes), sbmRun.refine (vacate → place → re-add
// against the carried joint matrix), or LDG's neighbour-majority rule.
//
// Placement scores are floating-point sums over a node's touched
// groups, so the order of that list — groups as the neighbour list
// first reaches them — is part of the result; stream_test.go pins the
// assignments of every variant by hash.
//
// # One match front end
//
// MatchProperty and MatchBipartite differ only in what they hand the
// partitioner and read back: capacities from one PT or two before, one
// mapping or two after. The steps between — check the options, draw and
// check the stream order, build the CSR, partition — are one function,
// SBMPart.match, so refinement passes work on a two-domain target as on
// a one-domain one.
//
// A run without refinement reads each neighbourhood once, when its node
// arrives, and gather counts only the neighbours already placed — in
// the first pass exactly those streamed earlier. So a match without
// passes builds a streamed CSR (graph.FromEdgesStreamed,
// graph.FromBipartiteEdges with a rank): each edge once, at its
// later-streamed endpoint, each list the full list filtered to the
// earlier neighbours in edge-list order, self-loops dropped. gather
// walks that list unchanged and every entry passes its checks, in the
// order the full list would have passed them, so cnt and touched — and
// with them every float sum, placement and output byte — are the full
// CSR's, at half its adjacency. Refinement re-reads whole
// neighbourhoods and keeps the full CSR.
//
// # Node-indexed state is 4 bytes
//
// table.MaxNodes bounds every node count, so each node-indexed slice on
// the match path holds uint32: the stream order (RandomOrder,
// DegreeDescOrder, Options.Order), the group array (a group is below
// k ≤ rows ≤ 2^32−1, so ^uint32(0) is free to mark a node not yet
// placed), Result.Assign and BipartiteResult's assignments and
// mappings, BuildMapping's row buckets and RandomMatch. A match checks
// its order once, with the rank a streamed CSR is oriented by as the
// seen marker. Property-row labels stay []int64.
//
// No collection runs inside a match task, so every buffer it allocates
// lands on top of what is live, and a buffer that dies mid-task is only
// reclaimed after it. A match therefore reuses its dead node-indexed
// buffers instead of allocating more of the same size: the rank, dead
// once the order is checked and the CSR built, becomes the group array,
// and an order the match drew itself (Options.Order nil), dead after the
// first pass, becomes BuildMapping's row buckets, refining or not. A
// caller's Options.Order is only read, never written; BuildMapping
// itself allocates its buckets.
//
// The observed joint is read, not recounted. Once a pass has placed
// every node, the partitioner's carried matrix holds each unordered
// group pair's exact non-loop edge count, and one sequential pass over
// the edge table adds the self-loops. stats.EmpiricalJoint adds the same
// w = 1/m to a cell once per edge that reaches it, so w added c times to
// zero is its value to the last bit (TestObservedMatchesRecount).
//
// # Bipartite is a block joint
//
// The paper: "a small variation of SBM-Part can also be applied to
// bi-partite graphs, since the SBM can model this type of graphs as
// well." A bipartite SBM over kT tail values and kH head values is an
// SBM over kT+kH groups whose target has mass only in the off-diagonal
// blocks: P({a, kT+b}) = P(X=a, Y=b). That block joint is the target
// itself — a two-domain stats.Joint, Tails = kT — so there is one joint
// type for every correlation. MatchBipartite builds one graph over
// tails followed by heads and runs the monopartite partitioner on the
// target as given, refinement passes included, with each side's nodes
// restricted to its own group range, and reads the observed joint as
// MatchProperty does — there is no second implementation.
// FusedOneToMany takes the same target.
package match

import (
	"fmt"
	"math"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/stats"
	"datasynth/internal/xrand"
)

// SBMPart is the paper's streaming property-to-node partitioner.
type SBMPart struct {
	// K is the number of distinct property values (groups).
	K int
	// Target is the desired joint distribution P(X,Y); it must be a
	// proper distribution over K values.
	Target *stats.Joint
	// Capacities holds q_t, the number of property rows carrying value
	// t; group t accepts at most Capacities[t] nodes.
	Capacities []int64
	// Seed drives the placement of nodes that arrive with no already-
	// placed neighbours: they are assigned pseudo-randomly, weighted by
	// remaining capacity, so no group soaks up all early-stream nodes.
	Seed uint64

	// PassTimes records the wall time of every streaming pass of the
	// most recent run: index 0 is the initial stream, each later entry
	// one refinement pass. Callers plumb it into timing reports so the
	// cost of refinement is visible end to end.
	PassTimes []time.Duration

	// Bipartite runs (MatchBipartite): nodes below tails pick among the
	// target's tail values, all other nodes among its head values, in
	// every pass. Zero for a monopartite run, where every node picks
	// among all K groups.
	tails int64
}

// NewSBMPart returns an SBM-Part instance.
func NewSBMPart(target *stats.Joint, capacities []int64) (*SBMPart, error) {
	if target == nil {
		return nil, fmt.Errorf("match: nil target distribution")
	}
	if len(capacities) != target.K {
		return nil, fmt.Errorf("match: %d capacities for %d values", len(capacities), target.K)
	}
	if err := target.Validate(); err != nil {
		return nil, fmt.Errorf("match: invalid target: %w", err)
	}
	if target.Tails > 0 {
		return nil, fmt.Errorf("match: a two-domain target needs MatchBipartite")
	}
	for t, q := range capacities {
		if q < 0 {
			return nil, fmt.Errorf("match: negative capacity for group %d", t)
		}
	}
	return &SBMPart{K: target.K, Target: target, Capacities: capacities}, nil
}

// partition streams the nodes of g in the given order, then replays
// the stream extra times, and returns the finished run: its assign is
// the group of every node and its cur the joint matrix of that
// assignment. The caller has checked that order is a permutation of
// [0, g.N()) and that the capacities cover g.N() (streamOrder), and
// hands over assign, g.N() entries it no longer reads, as the group
// array. The first pass is the last to read order.
//
// Placement of node v in the first pass:
//  1. Count v's already-placed neighbours per group: cnt[j]; the node
//     contributes cv = Σ_j cnt[j] new edges.
//  2. For each feasible group t (s_t < q_t) compute the change in
//     ||W_cur − W(s)||²_F caused by adding cnt[j] edges to cells (t,j),
//     where W(s) = (m_placed + cv)·P is the running proportional target:
//     Δ_t = Σ_j cnt[j]·(2·(W_cur[t][j] − W(s)[t][j]) + cnt[j]).
//     Scaling the target with the edges placed so far keeps the
//     comparison in probability space, the space P(X,Y) is defined in
//     (the paper's footnote 1 uses absolute counts merely "for
//     convenience"); against the final m·P the largest-deficit diagonal
//     cell would attract early-stream nodes regardless of their
//     neighbourhoods.
//  3. Convert to a gain G_t = maxΔ − Δ_t and pick
//     argmax_t G_t·(1 − s_t/q_t)   (the LDG balancing rule).
//     Ties break toward the group with the most remaining capacity.
//
// A node with no placed neighbours leaves the Frobenius norm unchanged
// for every t, so it is placed pseudo-randomly weighted by remaining
// capacity.
//
// The extra passes refine. The paper defers "optimization strategies"
// to future work; the standard one for streaming partitioners
// (restreamed LDG, Nishimura & Ugander KDD'13) is to replay the
// stream. Each pass starts with fresh capacity quotas — otherwise every
// group is exactly full after pass one and no node could ever move —
// and refines in place: the assignment holds a node's new group once
// the pass has reached it and its previous-pass group until then, so
// every node (in particular the early-stream nodes that pass one placed
// almost blind) is scored with a full-neighbourhood view. Refinement
// passes iterate hubs first (degree descending): high-degree nodes
// carry the most matrix mass, and re-anchoring them before the long
// tail is what converts the full-information pass into a net win —
// with the original random order, refinement oscillates and *degrades*
// (measured in TestProbe-style sweeps: 0.29 → 0.35 L1 random vs 0.29 →
// 0.08 degree-ordered on LFR(5k,16)). Per-pass complexity stays
// O(Σ deg(v) + n·k).
func (p *SBMPart) partition(g *graph.Graph, order, assign []uint32, extra int) (*sbmRun, error) {
	k := p.K
	r := &sbmRun{
		stream: newStream(g, k, assign), part: p,
		targetP: make([]float64, k*k), cur: make([]float64, k*k),
		used: make([]int64, k), deltas: make([]float64, k),
		edges: float64(g.M()),
	}
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			w := p.Target.At(a, b)
			r.targetP[a*k+b], r.targetP[b*k+a] = w, w
		}
	}
	// The two stream labels predate the shared partitioner; existing
	// seeds keep their placements only if each keeps its own.
	label := "sbm-unconstrained"
	if p.Target.Tails > 0 {
		label = "bip-unconstrained"
	}
	r.rnd = xrand.NewStream(p.Seed).DeriveStream(label)

	start := time.Now()
	if err := r.run(order, r.placeFirst); err != nil {
		return nil, err
	}
	p.PassTimes = append(p.PassTimes[:0], time.Since(start))
	if extra == 0 {
		return r, nil
	}
	refineOrder := DegreeDescOrder(g)
	for pass := 0; pass < extra; pass++ {
		start = time.Now()
		clear(r.used)
		if err := r.run(refineOrder, r.refine); err != nil {
			return nil, err
		}
		p.PassTimes = append(p.PassTimes, time.Since(start))
	}
	return r, nil
}

// sbmRun is one SBM-Part run: the stream kernel plus the ledgers its
// two commit callbacks, placeFirst and refine, keep.
type sbmRun struct {
	*stream
	part *SBMPart
	// targetP and cur are dense k×k and symmetric (both (i,j) and (j,i)
	// stored, so a row scan is contiguous): the target probabilities,
	// scaled to an edge count at each placement, and the inter-group
	// edge counts of the nodes placed so far. Once a pass has placed
	// every node, cur is the joint matrix of assign — each non-loop edge
	// counted once, mirrored off-diagonal — and it stays so from pass to
	// pass without ever being recounted: every entry is an integer-valued
	// float64 far below 2^53, so a refinement's vacate/re-add updates are
	// exact (TestCarriedJointMatrixMatchesRecount).
	targetP, cur []float64
	// used is the quota ledger s_t of the current pass.
	used   []int64
	placed float64 // edges the first pass has counted into cur so far
	edges  float64 // m, the scale of the refinement target
	rnd    xrand.Stream
	deltas []float64 // placeByFrobenius scratch
}

// groupRange returns the groups [lo, hi) node v may be placed in.
func (r *sbmRun) groupRange(v int64) (lo, hi int) {
	if v < r.part.tails {
		return 0, r.part.Target.Tails
	}
	return r.part.Target.Tails, r.part.K
}

// placeFirst is the first-pass commit: v is not placed yet, its placed
// neighbours are counted in cnt/touched.
func (r *sbmRun) placeFirst(v int64) error {
	lo, hi := r.groupRange(v)
	var cv float64
	for _, j := range r.touched {
		cv += float64(r.cnt[j])
	}
	var best int64
	if len(r.touched) == 0 {
		best = r.placeUnconstrained(v, lo, hi)
	} else {
		best = r.placeByFrobenius(r.placed+cv, lo, hi)
	}
	if best < 0 {
		return fmt.Errorf("match: no feasible group for node %d", v)
	}
	r.placed += cv
	r.credit(best, 1)
	r.settle(v, best)
	return nil
}

// refine is the refinement commit: v sits in its previous-pass group
// and cnt/touched count its whole neighbourhood. Vacate v's
// contributions from the joint matrix, pick the group against the
// final target, re-add the contributions under it.
func (r *sbmRun) refine(v int64) error {
	old := int64(r.assign[v])
	lo, hi := r.groupRange(v)
	r.credit(old, -1)
	// An isolated node stays where it was if quota allows, else takes
	// the first feasible group by index.
	best := old
	if len(r.touched) > 0 {
		best = r.placeByFrobenius(r.edges, lo, hi)
	} else if r.used[old] >= r.part.Capacities[old] {
		best = -1
		for t := lo; t < hi; t++ {
			if r.used[t] < r.part.Capacities[t] {
				best = int64(t)
				break
			}
		}
	}
	if best < 0 {
		return fmt.Errorf("match: refinement pass has no feasible group for node %d", v)
	}
	r.credit(best, 1)
	r.settle(v, best)
	return nil
}

// credit adds (sign = 1) or removes (sign = −1) the edges between the
// node being placed and its counted neighbours to or from group t's row
// and column of cur. The explicit float64 conversion rounds the product
// on its own, so no GOARCH fuses it into the sum (see placeByFrobenius).
func (r *sbmRun) credit(t int64, sign float64) {
	k := int64(r.part.K)
	for _, j := range r.touched {
		c := float64(sign * float64(r.cnt[j]))
		r.cur[t*k+int64(j)] += c
		if int64(j) != t {
			r.cur[int64(j)*k+t] += c
		}
	}
}

// settle records v's group and hands the count scratch back clean.
func (r *sbmRun) settle(v, t int64) {
	for _, j := range r.touched {
		r.cnt[j] = 0
	}
	r.assign[v] = uint32(t)
	r.used[t]++
}

// placeUnconstrained assigns a neighbour-less node pseudo-randomly
// among the groups [lo, hi), weighted by remaining capacity q_t − s_t.
// A deterministic argmax would funnel every early-stream node into the
// largest group, biasing the match; weighted sampling keeps expected
// fill proportional.
func (r *sbmRun) placeUnconstrained(v int64, lo, hi int) int64 {
	caps := r.part.Capacities
	var totalRem int64
	for t := lo; t < hi; t++ {
		if rem := caps[t] - r.used[t]; rem > 0 {
			totalRem += rem
		}
	}
	if totalRem <= 0 {
		return -1
	}
	pick := r.rnd.Intn(v, totalRem)
	for t := lo; t < hi; t++ {
		if rem := caps[t] - r.used[t]; rem > 0 {
			if pick < rem {
				return int64(t)
			}
			pick -= rem
		}
	}
	return -1
}

// placeByFrobenius scores every feasible group in [lo, hi) by the
// incremental change in squared Frobenius distance against the target
// scaled to scale edges, and applies the balancing rule.
func (r *sbmRun) placeByFrobenius(scale float64, lo, hi int) int64 {
	k, caps, used := r.part.K, r.part.Capacities[lo:hi], r.used[lo:hi]
	// Pass 1: compute Δ_t for every group. The loops run j-major: both
	// matrices are symmetric, so row j holds the (t, j) cells for all t
	// contiguously, turning the hot inner loop into a unit-stride
	// multiply-add over hi−lo cells — no gathers, no bounds checks.
	// The per-t accumulation still visits touched groups in the same
	// order as a t-major scan would, so the floating-point sums (and
	// with them every placement decision) are bit-identical. Each
	// product is rounded by an explicit float64 conversion before it is
	// added: the Go spec lets a compiler fuse x*y + z into one
	// instruction with a single rounding, which arm64, ppc64le, s390x
	// and riscv64 do, and only the conversion forbids it — so every
	// GOARCH places nodes as amd64 does.
	deltas := r.deltas[:hi-lo]
	clear(deltas)
	for _, j := range r.touched {
		c := float64(r.cnt[j])
		cj := r.cur[j*k+lo : j*k+hi]
		tj := r.targetP[j*k+lo : j*k+hi]
		for t, cv := range cj {
			a := cv - float64(scale*tj[t])
			deltas[t] += float64(c * (float64(2*a) + c))
		}
	}
	maxDelta := math.Inf(-1)
	for t, d := range deltas {
		if used[t] < caps[t] && d > maxDelta {
			maxDelta = d
		}
	}
	// Pass 2: the balanced gain (maxΔ − Δ_t)·(1 − s_t/q_t); ties go to
	// the emptier group.
	best := int64(-1)
	bestScore := math.Inf(-1)
	var bestRem float64
	for t, d := range deltas {
		if used[t] >= caps[t] {
			continue
		}
		rem := 1 - float64(used[t])/float64(caps[t])
		score := (maxDelta - d) * rem
		if score > bestScore || (score == bestScore && rem > bestRem) {
			bestScore, bestRem, best = score, rem, int64(lo+t)
		}
	}
	return best
}
