package match

import (
	"fmt"
	"sort"

	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Fused operators — the paper's future-work proposal implemented:
// "special cases of one-to-one and one-to-many edges could be
// efficiently handled by more specific and efficient operators. These
// would generate both the property values and the graph structure at
// the same time, which would boost performance allow reproducing
// strict constraints reliably."
//
// Instead of generating an anonymous structure and then streaming it
// through SBM-Part (greedy, approximate), the fused operators *choose
// the endpoints directly* from the target joint distribution. For 1→1
// and 1→* edges this is possible because every head attaches
// independently, so the joint P(X,Y) can be realised cell by cell with
// largest-remainder rounding: the observed distribution matches the
// target up to integer rounding — a strict guarantee the streaming
// matcher cannot give.

// FusedOneToMany generates a correlated 1→* edge table directly from
// the target: for quota-many edges per value pair (X=a of the tail
// property, Y=b of the head property), a tail row with value a is
// chosen (with replacement, pseudo-randomly) and a fresh head id is
// minted and recorded with value b.
//
// Inputs: tailLabels (the tail PT reduced to value indices, kt values),
// the desired edge count m, and the target joint (kt×kh). Returns the
// edge table (tail = tail row id, head = dense fresh id in [0, m)) and
// headLabels, the value index of every minted head.
func FusedOneToMany(tailLabels []int64, kt, kh int, m int64, target *BipartiteTarget, seed uint64) (*table.EdgeTable, []int64, error) {
	if m <= 0 || m > table.MaxNodes {
		return nil, nil, fmt.Errorf("match: fused 1-* needs m in [1, %d] (one fresh head id each), got %d", int64(table.MaxNodes), m)
	}
	if target.KT != kt || target.KH != kh {
		return nil, nil, fmt.Errorf("match: fused 1-* target is %dx%d, want %dx%d", target.KT, target.KH, kt, kh)
	}
	if err := target.Validate(); err != nil {
		return nil, nil, err
	}
	// Bucket tail rows by value.
	buckets := make([][]int64, kt)
	for r, l := range tailLabels {
		if l < 0 || l >= int64(kt) {
			return nil, nil, fmt.Errorf("match: tail row %d has label %d outside [0,%d)", r, l, kt)
		}
		buckets[l] = append(buckets[l], int64(r))
	}
	// Integer quotas per cell by largest remainder.
	quotas, err := roundQuotas(target.P, m)
	if err != nil {
		return nil, nil, err
	}
	for a := 0; a < kt; a++ {
		var rowQuota int64
		for b := 0; b < kh; b++ {
			rowQuota += quotas[a*kh+b]
		}
		if rowQuota > 0 && len(buckets[a]) == 0 {
			return nil, nil, fmt.Errorf("match: target needs tail value %d but no tail row has it", a)
		}
	}
	et := table.NewEdgeTable("fused-1-*", m)
	headLabels := make([]int64, 0, m)
	s := xrand.NewStream(seed).DeriveStream("fused-1-*")
	var draw int64
	var head int64
	// Emit cells in deterministic order; interleaving is unnecessary
	// because head ids are fresh and the joint is exact by construction.
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			q := quotas[a*kh+b]
			for e := int64(0); e < q; e++ {
				tail := buckets[a][s.Intn(draw, int64(len(buckets[a])))]
				draw++
				et.Add(tail, head)
				headLabels = append(headLabels, int64(b))
				head++
			}
		}
	}
	return et, headLabels, nil
}

// FusedOneToOne generates a correlated perfect matching between two
// labelled domains of equal size n: the number of (a,b) pairs equals
// the target joint scaled to n, up to rounding and the per-value
// supply of each side. Every tail and head row is used exactly once
// when supplies allow; a residual maximum of min(supply) pairs is
// matched greedily otherwise.
func FusedOneToOne(tailLabels, headLabels []int64, kt, kh int, target *BipartiteTarget, seed uint64) (*table.EdgeTable, error) {
	if len(tailLabels) != len(headLabels) {
		return nil, fmt.Errorf("match: fused 1-1 needs equal domains, got %d/%d", len(tailLabels), len(headLabels))
	}
	if err := target.Validate(); err != nil {
		return nil, err
	}
	n := int64(len(tailLabels))
	if n == 0 {
		return table.NewEdgeTable("fused-1-1", 0), nil
	}
	tailBuckets := make([][]int64, kt)
	for r, l := range tailLabels {
		if l < 0 || l >= int64(kt) {
			return nil, fmt.Errorf("match: tail row %d has label %d outside [0,%d)", r, l, kt)
		}
		tailBuckets[l] = append(tailBuckets[l], int64(r))
	}
	headBuckets := make([][]int64, kh)
	for r, l := range headLabels {
		if l < 0 || l >= int64(kh) {
			return nil, fmt.Errorf("match: head row %d has label %d outside [0,%d)", r, l, kh)
		}
		headBuckets[l] = append(headBuckets[l], int64(r))
	}
	// Shuffle buckets deterministically so pairing carries no id bias.
	s := xrand.NewStream(seed)
	shuffle := func(b []int64, label string) {
		sub := s.DeriveStream(label)
		for i := len(b) - 1; i > 0; i-- {
			j := sub.Intn(int64(i), int64(i)+1)
			b[i], b[j] = b[j], b[i]
		}
	}
	for a := range tailBuckets {
		shuffle(tailBuckets[a], fmt.Sprintf("t%d", a))
	}
	for b := range headBuckets {
		shuffle(headBuckets[b], fmt.Sprintf("h%d", b))
	}
	quotas, err := roundQuotas(target.P, n)
	if err != nil {
		return nil, err
	}
	et := table.NewEdgeTable("fused-1-1", n)
	// First pass: satisfy quotas subject to supplies.
	for a := 0; a < kt; a++ {
		for b := 0; b < kh; b++ {
			q := quotas[a*kh+b]
			for q > 0 && len(tailBuckets[a]) > 0 && len(headBuckets[b]) > 0 {
				et.Add(pop(&tailBuckets[a]), pop(&headBuckets[b]))
				q--
			}
		}
	}
	// Second pass: pair any residual rows (supply/quota mismatch).
	var residT, residH []int64
	for a := range tailBuckets {
		residT = append(residT, tailBuckets[a]...)
	}
	for b := range headBuckets {
		residH = append(residH, headBuckets[b]...)
	}
	for i := range residT {
		et.Add(residT[i], residH[i])
	}
	return et, nil
}

func pop(b *[]int64) int64 {
	v := (*b)[len(*b)-1]
	*b = (*b)[:len(*b)-1]
	return v
}

// roundQuotas converts a probability vector into integer counts that
// sum exactly to total, by largest-remainder rounding.
func roundQuotas(probs []float64, total int64) ([]int64, error) {
	quotas := make([]int64, len(probs))
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, len(probs))
	var assigned int64
	for i, p := range probs {
		if p < 0 {
			return nil, fmt.Errorf("match: negative probability at cell %d", i)
		}
		exact := p * float64(total)
		quotas[i] = int64(exact)
		fracs[i] = frac{idx: i, f: exact - float64(quotas[i])}
		assigned += quotas[i]
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].f != fracs[b].f {
			return fracs[a].f > fracs[b].f
		}
		return fracs[a].idx < fracs[b].idx
	})
	for i := 0; assigned < total && len(fracs) > 0; i++ {
		quotas[fracs[i%len(fracs)].idx]++
		assigned++
	}
	return quotas, nil
}

// FusedQuality verifies a fused result: the L1 distance between the
// target and the observed joint of (et, tailLabels, headLabels). For
// fused operators this is bounded by rounding alone — O(cells/total).
func FusedQuality(et *table.EdgeTable, tailLabels, headLabels []int64, target *BipartiteTarget) (float64, error) {
	obs, err := EmpiricalBipartite(et, tailLabels, headLabels, target.KT, target.KH)
	if err != nil {
		return 0, err
	}
	var l1 float64
	for i := range target.P {
		d := target.P[i] - obs.P[i]
		if d < 0 {
			d = -d
		}
		l1 += d
	}
	return l1, nil
}

// ensure stats import is used (joint types referenced in docs).
var _ = stats.NewJoint
