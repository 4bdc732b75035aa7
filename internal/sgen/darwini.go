package sgen

import (
	"fmt"
	"math"
	"sort"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Darwini (Edunov et al., arXiv:1610.00664) extends BTER: where BTER
// targets the *average* clustering coefficient per degree, Darwini
// reproduces the clustering coefficient *distribution* per degree
// (ccdd) by first assigning every node an individual target triangle
// count and then grouping nodes into buckets of similar demand.
//
// This implementation follows that two-phase design:
//
//  1. Every node draws a target local clustering coefficient from the
//     per-degree distribution (here: a Beta-like two-point mixture
//     around the configured mean, matching the paper's observation
//     that real ccd distributions are wide), converted into a target
//     triangle budget t(v) = cc·d(v)·(d(v)-1)/2.
//  2. Nodes are packed into buckets with similar budgets; each bucket
//     is wired as an Erdős–Rényi block dense enough to meet the median
//     budget (triangles in ER(p) blocks concentrate around p³ per
//     wedge). Residual degree is satisfied with a Chung–Lu phase.
//
// Both wiring phases are BTER's own: Darwini lays its budget-sorted
// nodes out as positions and runs them through the affinity kernel
// BTER uses, so only the bucketing and each bucket's rho differ.
type Darwini struct {
	DegreeCounts []int64 // target degree histogram (index = degree)
	// CCSpread in [0,1] widens the per-node clustering distribution:
	// each node's target is ccFor(d)·(1±CCSpread) at random — the "ccdd"
	// refinement over BTER.
	CCSpread float64
	Seed     uint64
}

// NewDarwiniPowerLaw builds a Darwini generator with a power-law
// degree target over n nodes.
func NewDarwiniPowerLaw(n int64, dmin, dmax int, gamma float64, seed uint64) (*Darwini, error) {
	b, err := NewBTERPowerLaw(n, dmin, dmax, gamma, seed)
	if err != nil {
		return nil, err
	}
	return &Darwini{
		DegreeCounts: b.DegreeCounts,
		CCSpread:     0.5,
		Seed:         seed,
	}, nil
}

// Name implements Generator.
func (d *Darwini) Name() string { return "darwini" }

// Validate implements Generator.
func (d *Darwini) Validate() error {
	if len(d.DegreeCounts) == 0 {
		return fmt.Errorf("sgen: Darwini needs a degree distribution")
	}
	if !(d.CCSpread >= 0 && d.CCSpread <= 1) {
		return fmt.Errorf("sgen: Darwini CCSpread %v outside [0,1]", d.CCSpread)
	}
	return nil
}

// Run implements Generator.
func (d *Darwini) Run(n int64) (*table.EdgeTable, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sgen: Darwini needs n > 0, got %d", n)
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	bter := &BTER{DegreeCounts: d.DegreeCounts}
	counts, err := bter.rescaledCounts(n)
	if err != nil {
		return nil, err
	}
	q := xrand.NewSeq(d.Seed)

	// Phase 0: per-node degree and individual clustering target.
	type nodeDemand struct {
		id     int64
		deg    int
		budget float64 // target triangle count
	}
	demands := make([]nodeDemand, 0, n)
	var id int64
	for deg := 1; deg < len(counts); deg++ {
		for c := int64(0); c < counts[deg]; c++ {
			cc := ccFor(deg)
			// Two-point spread around the mean: ccdd wider than BTER's
			// single value per degree.
			if d.CCSpread > 0 {
				if q.Float64() < 0.5 {
					cc *= 1 + d.CCSpread
				} else {
					cc *= 1 - d.CCSpread
				}
				if cc > 1 {
					cc = 1
				}
			}
			demands = append(demands, nodeDemand{
				id:     id,
				deg:    deg,
				budget: cc * float64(deg) * float64(deg-1) / 2,
			})
			id++
		}
	}

	// Phase 1: sort by triangle budget and pack buckets of similar
	// demand (Darwini's grouping refinement). A bucket's size comes from
	// the degree of its first node, the one with the lowest budget.
	sort.Slice(demands, func(a, b int) bool {
		if demands[a].budget != demands[b].budget {
			return demands[a].budget < demands[b].budget
		}
		return demands[a].id < demands[b].id
	})
	node, deg := make([]int64, len(demands)), make([]int, len(demands))
	for p, dm := range demands {
		node[p], deg[p] = dm.id, dm.deg
	}
	a := newAffinity("darwini", q, node, deg)
	for pos := 0; pos < len(demands); {
		// Bucket size: the first node's degree + 1, clipped to the
		// remaining nodes. Every degree is at least 1, so a bucket holds
		// at least 2 nodes until the last one.
		size := min(demands[pos].deg+1, len(demands)-pos)
		// Connectivity to hit the median budget: budget ≈ rho³ wedges.
		med := demands[pos+size/2]
		wedges := float64(med.deg) * float64(med.deg-1) / 2
		rho := 0.0
		if wedges > 0 {
			rho = min(math.Cbrt(med.budget/wedges), 1)
		}
		a.block(pos, size, rho)
		pos += size
	}
	// Phase 2: Chung–Lu over the residual degrees.
	a.chungLu()
	return a.et, nil
}

// NumNodesForEdges implements Generator.
func (d *Darwini) NumNodesForEdges(numEdges int64) (int64, error) {
	b := &BTER{DegreeCounts: d.DegreeCounts}
	return b.NumNodesForEdges(numEdges)
}
