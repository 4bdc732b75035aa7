package match

import (
	"fmt"
	"math"

	"datasynth/internal/graph"
)

// LDG is the Linear Deterministic Greedy streaming partitioner of
// Stanton and Kliot (KDD'12) that SBM-Part derives from. A node arrives
// with its edges and is placed in the partition holding most of its
// already-seen neighbours, weighted by the remaining capacity factor
// (1 − s_t/c_t).
//
// In this repository LDG builds the ground truth of the paper's
// evaluation: the value groups on LFR/RMAT graphs whose joint SBM-Part
// is then asked to reproduce (Section 4.2).
type LDG struct {
	Capacities []int64
}

// NewLDG builds an LDG partitioner with per-partition capacities.
func NewLDG(capacities []int64) (*LDG, error) {
	if len(capacities) == 0 {
		return nil, fmt.Errorf("match: LDG needs at least one partition")
	}
	for i, c := range capacities {
		if c <= 0 {
			return nil, fmt.Errorf("match: LDG partition %d has non-positive capacity %d", i, c)
		}
	}
	return &LDG{Capacities: capacities}, nil
}

// Partition streams the nodes of g in the given order (nil:
// RandomOrder(g.N(), 0)) and returns each node's partition. Total
// capacity must cover g.N().
func (l *LDG) Partition(g *graph.Graph, order []uint32) ([]uint32, error) {
	order, rank, err := streamOrder(order, g.N(), 0, l.Capacities)
	if err != nil {
		return nil, err
	}
	k := len(l.Capacities)
	s := newStream(g, k, rank)
	used := make([]int64, k)
	err = s.run(order, func(v int64) error {
		best := int64(-1)
		bestScore := math.Inf(-1)
		var bestRem float64
		for t := 0; t < k; t++ {
			if used[t] >= l.Capacities[t] {
				continue
			}
			rem := 1 - float64(used[t])/float64(l.Capacities[t])
			score := float64(s.cnt[t]) * rem
			if score > bestScore || (score == bestScore && rem > bestRem) {
				bestScore = score
				bestRem = rem
				best = int64(t)
			}
		}
		if best < 0 {
			return fmt.Errorf("match: no feasible partition for node %d", v)
		}
		s.assign[v] = uint32(best)
		used[best]++
		for _, j := range s.touched {
			s.cnt[j] = 0
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s.assign, nil
}
