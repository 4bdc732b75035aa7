package match

import (
	"fmt"
	"time"

	"datasynth/internal/graph"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// This file implements the end-to-end matching operators the DataSynth
// engine calls: they turn a group assignment into the mapping function
// f from structure-node ids to property-row ids (paper: "the function f
// is built by assigning to each node of g an id out of those of p that
// have the value corresponding to the partition the node has been
// assigned").

// BuildMapping constructs f: structure node id -> property row id.
// assign[v] is v's group; rowLabels[r] is the value of property row r.
// Within each group, rows are handed out in a pseudo-random (but
// deterministic) order so that row ids carry no structural bias.
func BuildMapping(assign []uint32, rowLabels []int64, k int, seed uint64) ([]uint32, error) {
	if len(assign) > len(rowLabels) {
		return nil, fmt.Errorf("match: %d nodes but only %d property rows", len(assign), len(rowLabels))
	}
	// Bucket property rows by value: one buffer laid out by the
	// per-value counts, rows ascending inside each bucket, so that
	// bucket t is rows[start[t]:start[t+1]].
	start := make([]int, k+1)
	for r, l := range rowLabels {
		if l < 0 || l >= int64(k) {
			return nil, fmt.Errorf("match: row %d has label %d outside [0,%d)", r, l, k)
		}
		start[l+1]++
	}
	for t := 0; t < k; t++ {
		start[t+1] += start[t]
	}
	rows := make([]uint32, len(rowLabels))
	next := make([]int, k)
	copy(next, start)
	for r, l := range rowLabels {
		rows[next[l]] = uint32(r)
		next[l]++
	}
	// Shuffle each bucket deterministically.
	s := xrand.NewStream(seed)
	for t := 0; t < k; t++ {
		b := rows[start[t]:start[t+1]]
		sub := s.DeriveStream(fmt.Sprintf("bucket-%d", t))
		for i := len(b) - 1; i > 0; i-- {
			j := sub.Intn(int64(i), int64(i)+1)
			b[i], b[j] = b[j], b[i]
		}
	}
	copy(next, start)
	f := make([]uint32, len(assign))
	for v, t := range assign {
		if int64(t) >= int64(k) {
			return nil, fmt.Errorf("match: node %d unassigned", v)
		}
		if next[t] == start[t+1] {
			return nil, fmt.Errorf("match: group %d over capacity (%d rows)", t, start[t+1]-start[t])
		}
		f[v] = rows[next[t]]
		next[t]++
	}
	return f, nil
}

// Options configures MatchProperty.
type Options struct {
	// Seed drives the stream order and bucket shuffles.
	Seed uint64
	// Order is the node stream order; nil means RandomOrder(n, Seed)
	// (the paper: "We sent the nodes to SBM-Part randomly"). The
	// evaluation harness sets it because it draws its random order from
	// a seed of its own, apart from the match seed.
	Order []uint32
	// Passes adds re-streaming refinement passes (see
	// SBMPart.partition).
	Passes int
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed}
}

// StepTimes is where a match's wall time went, one field per step, so
// callers can report where a match task's critical-path time goes.
type StepTimes struct {
	// CSRTime builds the graph SBM-Part reads.
	CSRTime time.Duration
	// OrderTime draws the stream order and inverts it into its rank,
	// which checks it and orients a streamed CSR.
	OrderTime time.Duration
	// PartitionTime is the wall time spent inside SBM-Part itself (the
	// paper's timing claim).
	PartitionTime time.Duration
	// MappingTime is BuildMapping, for both domains of a bipartite match.
	MappingTime time.Duration
	// JointTime reads the observed joint from the partitioner's carried
	// joint matrix, plus, for a one-domain joint, one sequential pass
	// over the edge table for self-loops, which the matrix never counts.
	JointTime time.Duration
}

// lap returns the time since *mark and moves mark to now.
func lap(mark *time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(*mark)
	*mark = now
	return d
}

// Result reports a completed matching.
type Result struct {
	// Mapping is f: structure node id -> property row id.
	Mapping []uint32
	// Assign is the group (value) each structure node received.
	Assign []uint32
	// Observed is the empirical joint P'(X,Y) after matching: equal,
	// bit for bit, to stats.EmpiricalJoint over the edge table and
	// Assign.
	Observed *stats.Joint
	StepTimes
	// PassTimes breaks PartitionTime down per streaming pass: index 0
	// is the initial stream, each later entry one re-streaming
	// refinement pass (a single-pass match has exactly one entry).
	// Callers feed this into critical-path reports so refinement cost
	// is visible end to end.
	PassTimes []time.Duration
}

// MatchProperty runs the paper's full matching task for a monopartite
// edge type: given the structure et over n nodes, the property-row
// labels (the PT reduced to value indices), and the target P(X,Y),
// it partitions the structure with SBM-Part and builds the mapping.
// The EdgeTable is not modified; apply Result.Mapping with et.Remap to
// materialise the match.
func MatchProperty(et *table.EdgeTable, n int64, rowLabels []int64, target *stats.Joint, opt Options) (*Result, error) {
	capacities, err := stats.Frequencies(rowLabels, target.K)
	if err != nil {
		return nil, err
	}
	part, err := NewSBMPart(target, capacities)
	if err != nil {
		return nil, err
	}
	r, times, err := part.match(et, n, 0, opt)
	if err != nil {
		return nil, err
	}
	mark := time.Now()
	mapping, err := BuildMapping(r.assign, rowLabels, target.K, opt.Seed)
	if err != nil {
		return nil, err
	}
	times.MappingTime = lap(&mark)
	observed := r.observed(et)
	times.JointTime = lap(&mark)
	return &Result{Mapping: mapping, Assign: r.assign, Observed: observed, StepTimes: times, PassTimes: part.PassTimes}, nil
}

// match runs the steps every SBM-Part match shares — order, CSR and
// partition — over et's nodes: [0, nTail) for a one-domain target
// (nHead = 0), and for a two-domain one tails then heads, head h as node
// nTail+h. The order comes first, so no graph is built for an order
// that is not a permutation. A match without refinement passes reads,
// for each node, only the neighbours streamed before it, so it builds
// the CSR streamed by the order's rank, each edge once; refinement
// reads whole neighbourhoods and builds the full one.
func (p *SBMPart) match(et *table.EdgeTable, nTail, nHead int64, opt Options) (*sbmRun, StepTimes, error) {
	var times StepTimes
	if opt.Passes < 0 {
		return nil, times, fmt.Errorf("match: negative refinement passes (%d)", opt.Passes)
	}
	p.Seed = opt.Seed
	mark := time.Now()
	order, rank, err := streamOrder(opt.Order, nTail+nHead, opt.Seed, p.Capacities)
	if err != nil {
		return nil, times, err
	}
	if opt.Passes > 0 {
		rank = nil // the full CSR
	}
	times.OrderTime = lap(&mark)
	// The CSR is this job's largest scratch, dropped by the collection
	// the engine runs when the match task ends.
	var g *graph.Graph
	if p.Target.Tails > 0 {
		g, err = graph.FromBipartiteEdges(et.Tail, et.Head, nTail, nHead, rank)
	} else {
		g, err = graph.FromEdgesStreamed(et.Tail, et.Head, nTail, rank)
	}
	if err != nil {
		return nil, times, err
	}
	times.CSRTime = lap(&mark)
	r, err := p.partition(g, order, opt.Passes)
	if err != nil {
		return nil, times, err
	}
	times.PartitionTime = lap(&mark)
	return r, times, nil
}

// observed is the empirical joint of the finished run over et, of the
// target's kind, read from the carried matrix instead of recounted: an
// unordered group pair's cur cell is its exact non-loop edge count, and
// one sequential pass over et adds the self-loops, which gather skips.
// A two-domain run has no self-loops — tails and heads never share a
// node — so it skips that pass. stats.EmpiricalJoint (EmpiricalBipartite)
// adds w = 1/m to a cell once per edge that reaches it, and nothing else
// ever, so a cell reached c times holds accumulate(w, c) whatever the
// edge order — the same bits.
func (r *sbmRun) observed(et *table.EdgeTable) *stats.Joint {
	k := r.part.K
	j := stats.NewJoint(k)
	j.Tails = r.part.Target.Tails
	m := et.Len()
	if m == 0 {
		return j
	}
	loops := make([]int64, k)
	if j.Tails == 0 {
		for e, t := range et.Tail {
			if t == et.Head[e] {
				loops[r.assign[t]]++
			}
		}
	}
	w := 1 / float64(m)
	for a := 0; a < k; a++ {
		j.P[a*k+a] = accumulate(w, int64(r.cur[a*k+a])+loops[a])
		for b := a + 1; b < k; b++ {
			j.P[a*k+b] = accumulate(w, int64(r.cur[a*k+b]))
		}
	}
	return j
}

// accumulate returns w added c times to zero, one rounding per addition.
func accumulate(w float64, c int64) float64 {
	var x float64
	for range c {
		x += w
	}
	return x
}

// RandomMatch maps structure nodes to property rows uniformly at
// random — the paper's rule when an edge type has no property-structure
// correlation ("the matching is done randomly").
func RandomMatch(n int64, numRows int64, seed uint64) ([]uint32, error) {
	if numRows < n {
		return nil, fmt.Errorf("match: %d nodes but only %d property rows", n, numRows)
	}
	if numRows > table.MaxNodes {
		return nil, fmt.Errorf("match: %d property rows exceed the limit of %d", numRows, int64(table.MaxNodes))
	}
	s := xrand.NewStream(seed)
	f := make([]uint32, n)
	for v := int64(0); v < n; v++ {
		f[v] = uint32(s.Perm(v, numRows))
	}
	return f, nil
}

// RandomOrder returns a pseudo-random permutation of [0, n).
func RandomOrder(n int64, seed uint64) []uint32 {
	s := xrand.NewStream(seed).DeriveStream("stream-order")
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i, i+1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// DegreeDescOrder returns nodes by decreasing degree (hubs first) —
// the order of every refinement pass.
func DegreeDescOrder(g *graph.Graph) []uint32 {
	n := g.N()
	maxDeg := g.MaxDegree()
	// Counting sort by degree, descending; stable on node id. Nodes of
	// degree d start at start[maxDeg-d].
	start := make([]int64, maxDeg+2)
	for v := int64(0); v < n; v++ {
		start[maxDeg-g.Degree(v)+1]++
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	order := make([]uint32, n)
	for v := int64(0); v < n; v++ {
		i := maxDeg - g.Degree(v)
		order[start[i]] = uint32(v)
		start[i]++
	}
	return order
}
