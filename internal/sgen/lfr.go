package sgen

import (
	"fmt"
	"math"
	"slices"

	"datasynth/internal/par"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// LFR is the community benchmark generator of Lancichinetti, Fortunato
// and Radicchi (Phys. Rev. E 2008), the second generator in the paper's
// evaluation. It produces graphs with power-law degree and community
// size distributions and a controllable mixing parameter µ: each node
// spends a fraction (1-µ) of its degree inside its own community.
//
// The paper configures it with average degree 20, maximum degree 50,
// community sizes in [10, 50] and µ = 0.1 — the parameters of
// Lancichinetti & Fortunato's comparative analysis — which are the
// defaults here.
type LFR struct {
	AvgDegree    float64 // target mean degree (default 20)
	MaxDegree    int     // maximum degree (default 50)
	MinCommunity int     // minimum community size (default 10)
	MaxCommunity int     // maximum community size (default 50)
	Mu           float64 // mixing parameter (default 0.1)
	Tau1         float64 // degree power-law exponent (default 2)
	Tau2         float64 // community size power-law exponent (default 1)
	Seed         uint64

	// communities of the last Run, exposed for tests and for the
	// experiment harness (ground-truth labels).
	lastCommunities []uint32
	// shard count of the last Run, for RunNote.
	lastShards int
}

// NewLFR returns an LFR generator with the paper's evaluation
// parameters.
func NewLFR(seed uint64) *LFR {
	return &LFR{
		AvgDegree:    20,
		MaxDegree:    50,
		MinCommunity: 10,
		MaxCommunity: 50,
		Mu:           0.1,
		Tau1:         2,
		Tau2:         1,
		Seed:         seed,
	}
}

// Name implements Generator.
func (l *LFR) Name() string { return "lfr" }

// RunNote implements Noter: the intra-community shard count of the last
// Run, for the engine's timing report.
func (l *LFR) RunNote() string {
	if l.lastShards == 0 {
		return ""
	}
	return fmt.Sprintf("lfr %d communities", l.lastShards)
}

// Communities returns the ground-truth community label of every node
// from the most recent Run. It is the basis of LFR's use in community
// detection benchmarking (communities are "known beforehand"). Run
// keeps them at 4 bytes a node; each call widens a copy.
func (l *LFR) Communities() []int64 {
	comm := make([]int64, len(l.lastCommunities))
	for v, c := range l.lastCommunities {
		comm[v] = int64(c)
	}
	return comm
}

// Validate implements Generator. The comparisons are written so that a
// NaN parameter fails them.
func (l *LFR) Validate() error {
	switch {
	case !(l.AvgDegree > 1):
		return fmt.Errorf("sgen: LFR average degree must exceed 1, got %v", l.AvgDegree)
	case !(float64(l.MaxDegree) >= math.Floor(l.AvgDegree)):
		return fmt.Errorf("sgen: LFR max degree %d below average %v", l.MaxDegree, l.AvgDegree)
	// Degrees are held in 4 bytes, and a 32-bit int cannot read a larger
	// maxDegree at all. A smaller but still large one passes and costs
	// minDegreeFor float tables of up to MaxDegree entries: bounding that
	// is a per-job byte model's task, not this check's.
	case l.MaxDegree > math.MaxInt32:
		return fmt.Errorf("sgen: LFR max degree %d above %d", l.MaxDegree, math.MaxInt32)
	case l.MinCommunity < 2 || l.MaxCommunity < l.MinCommunity:
		return fmt.Errorf("sgen: LFR community bounds [%d,%d] invalid", l.MinCommunity, l.MaxCommunity)
	case !(l.Mu >= 0 && l.Mu <= 1):
		return fmt.Errorf("sgen: LFR mixing parameter %v outside [0,1]", l.Mu)
	case !(l.Tau1 > 1 && l.Tau2 > 0):
		return fmt.Errorf("sgen: LFR exponents tau1=%v tau2=%v invalid", l.Tau1, l.Tau2)
	}
	return nil
}

// minDegreeFor solves for the power-law lower cutoff that achieves the
// requested mean degree with exponent tau1 truncated at MaxDegree.
func (l *LFR) minDegreeFor() (int, error) {
	lo, hi := 1, l.MaxDegree
	best, bestDiff := 1, math.Inf(1)
	for d := lo; d <= hi; d++ {
		pl, err := xrand.NewPowerLawInt(d, l.MaxDegree, l.Tau1)
		if err != nil {
			return 0, err
		}
		diff := math.Abs(pl.Mean() - l.AvgDegree)
		if diff < bestDiff {
			best, bestDiff = d, diff
		}
		if pl.Mean() > l.AvgDegree {
			break // mean increases with the cutoff; past the target
		}
	}
	return best, nil
}

// Run implements Generator.
func (l *LFR) Run(n int64) (*table.EdgeTable, error) {
	if n < int64(l.MinCommunity) {
		return nil, fmt.Errorf("sgen: LFR needs n >= min community size %d, got %d", l.MinCommunity, n)
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	q := xrand.NewSeq(l.Seed)
	s, err := l.nodeState(q, n)
	if err != nil {
		return nil, err
	}
	l.lastCommunities = s.commOf

	// 5. Wire intra-community edges with a per-community configuration
	// model, then inter-community edges with a global configuration
	// model over the residual stubs. Duplicate rejection goes through a
	// batched sort-and-compact dedup (see edgeDedup) instead of a
	// per-edge hash map; the accepted edge set is identical.
	//
	// Communities are independent once sizes and memberships are fixed
	// (an intra edge has both endpoints inside one community), so each
	// community is wired as its own shard: randomness comes from a
	// per-community stream keyed off (Seed, community id) and edges land
	// in the table in community order: wired into per-community windows
	// of the table and then compacted in place. Shards can therefore run
	// on any number of goroutines with a byte-identical edge table.
	et := table.NewEdgeTable("lfr", int64(float64(n)*l.AvgDegree/2))
	if err := l.wireIntraShards(et, s.sizes, s.intra, s.memberBuf, s.memberOffs); err != nil {
		return nil, err
	}
	wireInter(q, et, s.deg, s.intra, s.commOf)
	return et, nil
}

// lfrNodes is the per-node state LFR's two wiring phases read. Every
// node-indexed slice holds 4-byte words: a degree is at most MaxDegree
// ≤ math.MaxInt32 (Validate), and node and community ids are below
// table.MaxNodes. With the placement order, which memberBuf reuses,
// that is 16 bytes a node.
type lfrNodes struct {
	deg, intra []int32  // degree and intra-community degree per node
	commOf     []uint32 // community per node
	sizes      []int    // community sizes
	// Community c's members, ascending, are
	// memberBuf[memberOffs[c]:memberOffs[c+1]].
	memberBuf  []uint32
	memberOffs []int64
}

// nodeState draws the degree sequence and the community sizes, and
// places every node in a community (steps 1–4). q is the run's sequence;
// step 4's community shuffle advances it.
func (l *LFR) nodeState(q *xrand.Seq, n int64) (*lfrNodes, error) {
	// 1. Degree sequence from a truncated power law matching AvgDegree,
	// as int32: Validate bounds MaxDegree by math.MaxInt32.
	dmin, err := l.minDegreeFor()
	if err != nil {
		return nil, err
	}
	degDist, err := xrand.NewPowerLawInt(dmin, l.MaxDegree, l.Tau1)
	if err != nil {
		return nil, err
	}
	deg := make([]int32, n)
	s := xrand.NewStream(l.Seed).DeriveStream("lfr.degrees")
	for i := int64(0); i < n; i++ {
		deg[i] = int32(degDist.Sample(s, i))
	}

	// 2. Community sizes from a truncated power law covering all nodes.
	sizeDist, err := xrand.NewPowerLawInt(l.MinCommunity, l.MaxCommunity, l.Tau2)
	if err != nil {
		return nil, err
	}
	var sizes []int
	total := int64(0)
	cs := xrand.NewStream(l.Seed).DeriveStream("lfr.sizes")
	for ci := int64(0); total < n; ci++ {
		sz := sizeDist.Sample(cs, ci)
		if rem := n - total; int64(sz) > rem {
			sz = int(rem)
			// Merge a too-small tail into the previous community.
			if sz < l.MinCommunity && len(sizes) > 0 {
				sizes[len(sizes)-1] += sz
				total += int64(sz)
				break
			}
		}
		sizes = append(sizes, sz)
		total += int64(sz)
	}

	// 3. Intra-degrees: node i keeps round((1-mu)·deg[i]) ≤ deg[i] stubs
	// inside its community.
	intra := make([]int32, n)
	for i, d := range deg {
		intra[i] = min(int32(math.Round((1-l.Mu)*float64(d))), d)
	}

	// 4. Assign nodes to communities. A node with intra-degree k needs a
	// community of size >= k+1. Process nodes in decreasing intra-degree
	// and fill communities first-fit over a shuffled order, which is the
	// standard greedy realisation of LFR's constraint. Intra-degrees are
	// bounded by MaxDegree, so a counting sort produces the
	// (intra desc, id asc) order in O(n + MaxDegree) instead of
	// O(n log n) comparisons. The order holds node ids and commOf
	// community ids, both below table.MaxNodes, as uint32.
	maxIntra := int32(0)
	for _, d := range intra {
		maxIntra = max(maxIntra, d)
	}
	bucket := make([]int64, maxIntra+2)
	for _, d := range intra {
		bucket[maxIntra-d+1]++
	}
	for b := 1; b < len(bucket); b++ {
		bucket[b] += bucket[b-1]
	}
	order := make([]uint32, n)
	for v, d := range intra { // ascending v keeps ties id-ordered
		b := maxIntra - d
		order[bucket[b]] = uint32(v)
		bucket[b]++
	}
	commOf := make([]uint32, n)
	remaining := make([]int, len(sizes))
	copy(remaining, sizes)
	commOrder := make([]int64, len(sizes))
	for i := range commOrder {
		commOrder[i] = int64(i)
	}
	q.ShuffleInt64(commOrder)
	next := 0
	for _, v := range order {
		placed := false
		for try := 0; try < len(sizes); try++ {
			c := commOrder[(next+try)%len(sizes)]
			if remaining[c] > 0 && sizes[c]-1 >= int(intra[v]) {
				commOf[v] = uint32(c)
				remaining[c]--
				next = (next + try) % len(sizes)
				placed = true
				break
			}
		}
		if !placed {
			// Fall back: any community with room; cap the intra-degree.
			for c := range remaining {
				if remaining[c] > 0 {
					commOf[v] = uint32(c)
					remaining[c]--
					if int(intra[v]) > sizes[c]-1 {
						intra[v] = int32(sizes[c] - 1)
					}
					placed = true
					break
				}
			}
		}
		if !placed {
			return nil, fmt.Errorf("sgen: LFR could not place node %d", v)
		}
	}

	// Community member lists as one CSR block instead of len(sizes)
	// independently grown slices. memberOffs[c+1] counts c's members,
	// the prefix sum makes memberOffs[c] the start of c's list, which the
	// fill advances as c's cursor, and a shift puts the starts back. The
	// placement order is dead once every node is placed, and its buffer
	// takes the lists: no collection runs inside a task, so a fresh one
	// would sit beside it until the task ends.
	memberOffs := make([]int64, len(sizes)+1)
	for _, c := range commOf {
		memberOffs[c+1]++
	}
	for c := range sizes {
		memberOffs[c+1] += memberOffs[c]
	}
	memberBuf := order
	for v, c := range commOf {
		memberBuf[memberOffs[c]] = uint32(v)
		memberOffs[c]++
	}
	copy(memberOffs[1:], memberOffs[:len(sizes)])
	memberOffs[0] = 0
	return &lfrNodes{deg: deg, intra: intra, commOf: commOf, sizes: sizes, memberBuf: memberBuf, memberOffs: memberOffs}, nil
}

// wireInter wires the inter-community edges: a global configuration
// model over every node's residual deg−intra stubs. Same-community
// pairs are additionally rejected (they would inflate µ^-1); after the
// retry budget they are dropped. Inter pairs span two communities, so
// they can never collide with an intra edge — the dedup starts from an
// empty accepted set. The stub count is known before the first stub is
// laid down, and sizes the stub buffer and the dedup's round scratch.
func wireInter(q *xrand.Seq, et *table.EdgeTable, deg, intra []int32, commOf []uint32) {
	var nInter int
	for v := range deg {
		nInter += int(deg[v] - intra[v])
	}
	stubs := make([]int64, 0, nInter)
	for v := range deg {
		for j := int32(0); j < deg[v]-intra[v]; j++ {
			stubs = append(stubs, int64(v))
		}
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	pairStubsFiltered(q, new(edgeDedup), et, stubs, 8, func(a, b int64) bool {
		return commOf[a] != commOf[b]
	})
}

// wireIntraShards wires every community's internal configuration model.
// Shard c draws from the stream (Seed, "lfr.intra", c) and is wired into
// its own window of et, rows [bound[c], bound[c+1]), under par.ForEach;
// one in-place forward pass then closes the gaps between the windows.
// The edges are stored once and land in community order, so the result
// is a pure function of the schema seed however many goroutines (up to
// GOMAXPROCS) wire the shards or in which order they finish. A shard
// that overflows its window, or panics, fails the run with ForEach's
// lowest-index error.
func (l *LFR) wireIntraShards(et *table.EdgeTable, sizes []int, intra []int32, memberBuf []uint32, memberOffs []int64) error {
	nComm := len(sizes)
	if nComm == 0 {
		return nil
	}
	intraBase := xrand.NewStream(l.Seed).DeriveStream("lfr.intra")
	l.lastShards = nComm

	// wire appends one shard's edges to sink using a reusable scratch
	// (dedup, stub buffer).
	wire := func(c int, dd *edgeDedup, sink *table.EdgeTable, stubs []int64) []int64 {
		members := memberBuf[memberOffs[c]:memberOffs[c+1]]
		size := int64(len(members))
		// Intra edges of community c can only collide with each other
		// (both endpoints lie in c), so each community dedups afresh —
		// over *local* member indices, whose tiny key universe (size²)
		// fits a direct-addressed stamp table at the default community
		// bounds. User-configured giant communities fall back to the
		// sorted-key batch dedup, whose memory scales with the edge
		// count instead of size².
		direct := size*size <= directDedupMaxUniverse
		stubs = stubs[:0]
		for li, v := range members {
			id := int64(v)
			if direct {
				id = int64(li)
			}
			k := intra[v]
			for j := int32(0); j < k; j++ {
				stubs = append(stubs, id)
			}
		}
		if len(stubs)%2 == 1 {
			stubs = stubs[:len(stubs)-1]
		}
		qc := xrand.NewSeq(intraBase.DeriveN(uint64(c)).Seed())
		if direct {
			pairStubsDirect(qc, dd, sink, stubs, members, 8)
		} else {
			dd.reset()
			pairStubsFiltered(qc, dd, sink, stubs, 8, nil)
		}
		return stubs
	}

	// Community c's window starts at bound[c]: half its stub count bounds
	// its edges. counts records the actual emissions.
	bound := make([]int64, nComm+1)
	bound[0] = et.Len()
	for c := 0; c < nComm; c++ {
		var stubCount int64
		for _, v := range memberBuf[memberOffs[c]:memberOffs[c+1]] {
			stubCount += int64(intra[v])
		}
		bound[c+1] = bound[c] + stubCount/2
	}
	et.Tail = slices.Grow(et.Tail, int(bound[nComm]-bound[0]))
	et.Head = slices.Grow(et.Head, int(bound[nComm]-bound[0]))
	counts := make([]int64, nComm)
	// Shard scratch (dedup, window view, stub buffer) passes through a
	// free list, so there are at most as many as goroutines; a sync.Pool
	// may drop one at any time, and under the race detector does so at
	// random.
	type scratch struct {
		dd    edgeDedup
		win   table.EdgeTable
		stubs []int64
	}
	free := make(chan *scratch, min(par.Procs(), nComm))
	if err := par.ForEach(nComm, func(c int) (err error) {
		var s *scratch
		select {
		case s = <-free:
		default:
			s = &scratch{win: table.EdgeTable{Name: et.Name}}
		}
		counts[c], err = wireWindow(&s.win, et, bound[c], bound[c+1], func() { s.stubs = wire(c, &s.dd, &s.win, s.stubs) })
		select {
		case free <- s:
		default:
		}
		return err
	}); err != nil {
		return err
	}
	// Close the gaps in community order: every window starts at or after
	// the rows already kept, so one forward pass moves each in place.
	n := bound[0]
	for c := 0; c < nComm; c++ {
		copy(et.Tail[n:cap(et.Tail)], et.Tail[bound[c]:bound[c]+counts[c]])
		copy(et.Head[n:cap(et.Head)], et.Head[bound[c]:bound[c]+counts[c]])
		n += counts[c]
	}
	et.Tail, et.Head = et.Tail[:n], et.Head[:n]
	return nil
}

// wireWindow points win at an empty view of et's rows [lo, hi), capped
// at hi, and runs wire, which appends to win: the appends land in et's
// storage in place, and one past hi reallocates the view instead of
// writing into the next window, which wireWindow reports as an error.
// It returns the number of edges wired.
func wireWindow(win, et *table.EdgeTable, lo, hi int64, wire func()) (int64, error) {
	win.Tail, win.Head = et.Tail[lo:lo:hi], et.Head[lo:lo:hi]
	wire()
	if win.Len() > hi-lo {
		return 0, fmt.Errorf("sgen: %s: a shard wired %d edges into a window of %d", et.Name, win.Len(), hi-lo)
	}
	return win.Len(), nil
}

// directDedupMaxUniverse bounds the stamp table to 4M entries (16 MB
// of int32): communities up to ~2048 nodes use direct addressing,
// larger ones take the sorted-key path.
const directDedupMaxUniverse = 1 << 22

// pairStubsDirect wires one community's stubs (local member indices):
// shuffle, pair adjacent entries, reject self-loops and duplicates via
// the stamp table, and re-shuffle failed pairs up to `rounds` times.
// Shuffling local indices consumes the same RNG draws as shuffling the
// global ids did, and the local→global mapping is a bijection, so the
// emitted edge sequence is unchanged.
func pairStubsDirect(q *xrand.Seq, dd *edgeDedup, et *table.EdgeTable, stubs []int64, members []uint32, rounds int) {
	size := int64(len(members))
	dd.resetDirect(int(size * size))
	pending := stubs
	for r := 0; r < rounds && len(pending) >= 2; r++ {
		q.ShuffleInt64(pending)
		w := 0
		for i := 0; i+1 < len(pending); i += 2 {
			la, lb := pending[i], pending[i+1]
			won := false
			if la != lb {
				ka, kb := la, lb
				if ka > kb {
					ka, kb = kb, ka
				}
				if !dd.seenDirect(ka*size + kb) {
					a, b := members[la], members[lb]
					if a > b {
						a, b = b, a
					}
					et.Add(int64(a), int64(b))
					won = true
				}
			}
			if !won {
				pending[w], pending[w+1] = la, lb
				w += 2
			}
		}
		pending = pending[:w]
	}
}

// pairStubsFiltered shuffles stubs (global node ids) and pairs adjacent
// entries, with an extra per-pair acceptance predicate (nil means
// accept all). Each round is resolved in batch by edgeDedup.pairRound
// with semantics identical to the former per-edge map: the first
// occurrence of an edge in stream order wins, later duplicates (and
// ok-rejected or self-loop pairs) are re-shuffled into the next round.
func pairStubsFiltered(q *xrand.Seq, dd *edgeDedup, et *table.EdgeTable, stubs []int64, rounds int, ok func(a, b int64) bool) {
	pending := stubs
	for r := 0; r < rounds && len(pending) >= 2; r++ {
		q.ShuffleInt64(pending)
		pending = dd.pairRound(et, pending, ok)
	}
}

// EstimatedEdges implements EdgeCountEstimator: m ≈ n·avgDegree/2.
func (l *LFR) EstimatedEdges(n int64) int64 {
	if n <= 0 || l.AvgDegree <= 1 {
		return 0
	}
	return int64(float64(n) * l.AvgDegree / 2)
}

// NumNodesForEdges implements Generator: m ≈ n·avgDegree/2.
func (l *LFR) NumNodesForEdges(numEdges int64) (int64, error) {
	if numEdges <= 0 {
		return 0, fmt.Errorf("sgen: numEdges must be positive, got %d", numEdges)
	}
	if l.AvgDegree <= 1 {
		return 0, fmt.Errorf("sgen: LFR average degree must exceed 1")
	}
	n := int64(math.Ceil(float64(numEdges) * 2 / l.AvgDegree))
	if n < int64(l.MinCommunity) {
		n = int64(l.MinCommunity)
	}
	return n, nil
}
