package sgen

import (
	"fmt"
	"math"
	"sort"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// BTER is the Block Two-Level Erdős–Rényi generator of Kolda, Pinar et
// al. (SISC 2014), discussed at length in the paper's related work:
// it reproduces a target degree distribution *and* the average
// clustering coefficient per degree, producing graphs with positive
// assortativity and community structure as a side effect.
//
// Phase 1 groups nodes of (near-)equal degree d into affinity blocks of
// d+1 nodes and wires each block as a dense Erdős–Rényi graph whose
// connectivity is chosen to hit the per-degree clustering target ccFor.
// Phase 2 distributes the residual degree with a Chung–Lu model.
type BTER struct {
	// DegreeCounts[d] = desired number of nodes of degree d. Index 0
	// is ignored (degree-0 nodes have no edges).
	DegreeCounts []int64
	Seed         uint64
}

// NewBTER builds a BTER generator targeting the given degree counts.
func NewBTER(degreeCounts []int64, seed uint64) *BTER {
	return &BTER{DegreeCounts: degreeCounts, Seed: seed}
}

// NewBTERPowerLaw builds a BTER generator with a power-law target
// degree distribution over n nodes: counts(d) ∝ d^-gamma on [dmin,dmax].
func NewBTERPowerLaw(n int64, dmin, dmax int, gamma float64, seed uint64) (*BTER, error) {
	if dmin < 1 || dmax < dmin {
		return nil, fmt.Errorf("sgen: BTER degree bounds [%d,%d] invalid", dmin, dmax)
	}
	if n < int64(dmax) {
		return nil, fmt.Errorf("sgen: BTER needs n >= dmax")
	}
	if !(gamma > 0) || math.IsInf(gamma, 1) {
		return nil, fmt.Errorf("sgen: BTER needs a finite gamma > 0, got %v", gamma)
	}
	weights := make([]float64, dmax+1)
	total := 0.0
	for d := dmin; d <= dmax; d++ {
		weights[d] = math.Pow(float64(d), -gamma)
		total += weights[d]
	}
	counts := make([]int64, dmax+1)
	var assigned int64
	for d := dmin; d <= dmax; d++ {
		counts[d] = int64(math.Floor(float64(n) * weights[d] / total))
		assigned += counts[d]
	}
	counts[dmin] += n - assigned // dump rounding remainder on dmin
	return NewBTER(counts, seed), nil
}

// Name implements Generator.
func (b *BTER) Name() string { return "bter" }

// Validate implements Generator. The degree bounds and exponent of a
// power-law target are checked where the histogram is built
// (NewBTERPowerLaw).
func (b *BTER) Validate() error {
	if len(b.DegreeCounts) == 0 {
		return fmt.Errorf("sgen: BTER needs a degree distribution")
	}
	return nil
}

// ccFor is the mean local clustering coefficient BTER and Darwini aim
// for at degree d: 0.95 for the lowest degrees, decaying by a factor
// e^-0.05 a degree.
func ccFor(d int) float64 {
	return 0.95 * math.Exp(-float64(d-1)*0.05)
}

// Run implements Generator. n rescales the configured degree counts
// proportionally so the output has exactly n nodes.
func (b *BTER) Run(n int64) (*table.EdgeTable, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sgen: BTER needs n > 0, got %d", n)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	counts, err := b.rescaledCounts(n)
	if err != nil {
		return nil, err
	}
	// Build the node list sorted by degree ascending; record target
	// degree per node.
	deg := make([]int, 0, n)
	for d := 1; d < len(counts); d++ {
		for c := int64(0); c < counts[d]; c++ {
			deg = append(deg, d)
		}
	}
	a := newAffinity("bter", xrand.NewSeq(b.Seed), nil, deg)

	// Phase 1: affinity blocks. Nodes are already grouped by degree;
	// consecutive runs of d+1 nodes with degree >= 2 form a block wired
	// as ER with connectivity rho = cc(d)^(1/3) (Kolda et al.'s
	// calibration: triangles in ER(rho) give cc ≈ rho^3). A degree-1
	// node is a block of its own: no pair, so no draw, and its whole
	// degree is left for phase 2.
	for v := 0; v < len(deg); {
		size, rho := 1, 0.0
		if d := deg[v]; d >= 2 {
			size, rho = min(d+1, len(deg)-v), min(math.Cbrt(ccFor(d)), 1)
		}
		a.block(v, size, rho)
		v += size
	}
	// Phase 2: Chung–Lu over the residual degrees.
	a.chungLu()
	return a.et, nil
}

// affinity holds the two phases BTER and Darwini share over a layout
// of positions: node[p] is the node at position p (nil is the
// identity) and deg[p] its target degree. block wires a run of
// positions as an Erdős–Rényi block and leaves each its residual
// degree; chungLu then pairs endpoints drawn in proportion to the
// residuals. Every draw comes from q in call order.
type affinity struct {
	q      *xrand.Seq
	node   []int64
	deg    []int
	excess []float64 // residual degree per position
	seen   edgeSet
	et     *table.EdgeTable
}

func newAffinity(name string, q *xrand.Seq, node []int64, deg []int) *affinity {
	return &affinity{q: q, node: node, deg: deg, excess: make([]float64, len(deg)),
		seen: edgeSet{}, et: table.NewEdgeTable(name, 0)}
}

// id is the node at position p.
func (a *affinity) id(p int) int64 {
	if a.node == nil {
		return int64(p)
	}
	return a.node[p]
}

// block wires positions [lo, lo+size) as ER(rho), one draw per pair in
// order, and sets each position's residual degree to its target less
// the rho·(size-1) block edges it expects.
func (a *affinity) block(lo, size int, rho float64) {
	for i := lo; i < lo+size; i++ {
		for j := i + 1; j < lo+size; j++ {
			if a.q.Float64() < rho && a.seen.add(a.id(i), a.id(j)) {
				a.et.Add(a.id(i), a.id(j))
			}
		}
	}
	expectedIn := float64(rho * float64(size-1)) // rounded: no fused multiply-subtract below
	for i := lo; i < lo+size; i++ {
		a.excess[i] = max(float64(a.deg[i])-expectedIn, 0)
	}
}

// chungLu adds half the total residual degree in edges, both ends drawn
// in proportion to the residuals, within ten tries per edge wanted.
func (a *affinity) chungLu() {
	cum := make([]float64, len(a.excess))
	acc := 0.0
	for i, e := range a.excess {
		acc += e
		cum[i] = acc
	}
	if !(acc > 1) {
		return
	}
	targetEdges := int64(acc / 2)
	attempts := targetEdges * 10
	sample := func() int64 {
		return a.id(sort.SearchFloat64s(cum, a.q.Float64()*acc))
	}
	for e, tries := int64(0), int64(0); e < targetEdges && tries < attempts; tries++ {
		u, v := sample(), sample()
		if a.seen.add(u, v) {
			a.et.Add(u, v)
			e++
		}
	}
}

// rescaledCounts scales DegreeCounts to sum to n.
func (b *BTER) rescaledCounts(n int64) ([]int64, error) {
	var total int64
	for d := 1; d < len(b.DegreeCounts); d++ {
		if b.DegreeCounts[d] < 0 {
			return nil, fmt.Errorf("sgen: negative degree count at %d", d)
		}
		total += b.DegreeCounts[d]
	}
	if total == 0 {
		return nil, fmt.Errorf("sgen: BTER degree distribution is empty")
	}
	counts := make([]int64, len(b.DegreeCounts))
	var assigned int64
	firstPos := 0
	for d := 1; d < len(b.DegreeCounts); d++ {
		counts[d] = b.DegreeCounts[d] * n / total
		assigned += counts[d]
		if firstPos == 0 && b.DegreeCounts[d] > 0 {
			firstPos = d
		}
	}
	counts[firstPos] += n - assigned
	return counts, nil
}

// NumNodesForEdges implements Generator by inverting the expected edge
// count m(n) ≈ n·avgdeg/2.
func (b *BTER) NumNodesForEdges(numEdges int64) (int64, error) {
	var total, weighted int64
	for d := 1; d < len(b.DegreeCounts); d++ {
		total += b.DegreeCounts[d]
		weighted += int64(d) * b.DegreeCounts[d]
	}
	if total == 0 || weighted == 0 {
		return 0, fmt.Errorf("sgen: BTER degree distribution is empty")
	}
	avg := float64(weighted) / float64(total)
	return searchNodesForEdges(numEdges, func(n int64) float64 {
		return float64(n) * avg / 2
	})
}
