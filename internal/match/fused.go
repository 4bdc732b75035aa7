package match

import (
	"fmt"
	"sort"

	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// The fused operator — the paper's future-work proposal, implemented for
// 1→* edges:
// "special cases of one-to-one and one-to-many edges could be
// efficiently handled by more specific and efficient operators. These
// would generate both the property values and the graph structure at
// the same time, which would boost performance allow reproducing
// strict constraints reliably."
//
// Instead of generating an anonymous structure and then streaming it
// through SBM-Part (greedy, approximate), the fused operator *chooses
// the endpoints directly* from the target joint distribution. On a 1→*
// edge this is possible because every head is minted for its one edge
// and attaches independently, so the joint P(X,Y) can be realised cell
// by cell with largest-remainder rounding: the observed distribution
// matches the target up to integer rounding — a strict guarantee the
// streaming matcher cannot give. The DSL's `fused` clause is valid on
// 1→* edges only.

// FusedOneToMany generates a correlated 1→* edge table directly from
// the target: for quota-many edges per value pair (X=a of the tail
// property, Y=b of the head property), a tail row with value a is
// chosen (with replacement, pseudo-randomly) and a fresh head id is
// minted and recorded with value b.
//
// Inputs: tailLabels (the tail PT reduced to value indices, kt values),
// the desired edge count m, and the two-domain target joint (kt tail
// values, kh head values). Returns the edge table (tail = tail row id,
// head = dense fresh id in [0, m)) and headLabels, the value index of
// every minted head.
func FusedOneToMany(tailLabels []int64, kt, kh int, m int64, target *stats.Joint, seed uint64) (*table.EdgeTable, []int64, error) {
	if m <= 0 || m > table.MaxNodes {
		return nil, nil, fmt.Errorf("match: fused 1-* needs m in [1, %d] (one fresh head id each), got %d", int64(table.MaxNodes), m)
	}
	tk, hk, err := twoDomain(target)
	if err != nil {
		return nil, nil, err
	}
	if tk != kt || hk != kh {
		return nil, nil, fmt.Errorf("match: fused 1-* target is %dx%d, want %dx%d", tk, hk, kt, kh)
	}
	// Bucket tail rows by value.
	buckets := make([][]int64, kt)
	for r, l := range tailLabels {
		if l < 0 || l >= int64(kt) {
			return nil, nil, fmt.Errorf("match: tail row %d has label %d outside [0,%d)", r, l, kt)
		}
		buckets[l] = append(buckets[l], int64(r))
	}
	// Integer quotas per cell by largest remainder, over the tail×head
	// block in row-major order: row a's head values are contiguous.
	cells := make([]float64, 0, kt*kh)
	for a := 0; a < kt; a++ {
		cells = append(cells, target.P[a*target.K+kt:(a+1)*target.K]...)
	}
	quotas, err := roundQuotas(cells, m)
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
		// Rounded on its own: fused into the subtraction below, the
		// remainder — and the cell that gets the extra edge — could
		// differ by GOARCH.
		exact := float64(p * float64(total))
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
