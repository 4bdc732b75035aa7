package sgen

import (
	"fmt"

	"datasynth/internal/table"
)

// RMAT is the recursive-matrix generator of Chakrabarti, Zhan and
// Faloutsos (SDM'04), the generator behind Graph500 and one of the two
// used in the paper's evaluation ("we have used the default
// parameters"). Each edge picks one of the four adjacency-matrix
// quadrants with probabilities (A, B, C, D) at each of `scale`
// recursion levels.
//
// Defaults follow Graph500: (A,B,C,D) = (0.57, 0.19, 0.19, 0.05) and
// edgefactor 16, so a scale-s graph has n = 2^s nodes and m = 16·n
// edges before deduplication.
//
// Generation is sharded (see rmat_shard.go): edge draws are produced
// in rounds of fixed-size shards, each shard on its own derived RNG
// stream, and duplicates are rejected by a batched radix
// sort-and-compact pass. The edge table is a pure function of the seed
// and the parameters.
type RMAT struct {
	A, B, C, D float64
	EdgeFactor int64
	Seed       uint64
	// Noise perturbs the quadrant probabilities per level (SSCA-style
	// smoothing) to avoid degenerate staircase effects; 0 disables it.
	Noise float64
	// KeepDuplicates keeps parallel edges and self-loops as generated.
	// Graph500 keeps them; the paper's matching experiments are
	// insensitive to them. Default false removes exact duplicates.
	KeepDuplicates bool

	// stats of the last Run, for RunNote.
	lastStats rmatStats
}

// NewRMAT returns an RMAT generator with Graph500 default parameters.
func NewRMAT(seed uint64) *RMAT {
	return &RMAT{A: 0.57, B: 0.19, C: 0.19, D: 0.05, EdgeFactor: 16, Seed: seed}
}

// Name implements Generator.
func (r *RMAT) Name() string { return "rmat" }

// Validate implements Generator: the quadrant probabilities, the edge
// factor and the noise amplitude (past 1 a perturbed probability could
// turn negative).
func (r *RMAT) Validate() error {
	if sum := r.A + r.B + r.C + r.D; !(sum >= 0.999 && sum <= 1.001) {
		return fmt.Errorf("sgen: RMAT probabilities sum to %v, want 1", sum)
	}
	for _, p := range []float64{r.A, r.B, r.C, r.D} {
		if p < 0 {
			return fmt.Errorf("sgen: RMAT probabilities must be non-negative")
		}
	}
	if r.EdgeFactor <= 0 {
		return fmt.Errorf("sgen: RMAT edge factor must be positive, got %d", r.EdgeFactor)
	}
	if !(r.Noise >= 0 && r.Noise <= 1) {
		return fmt.Errorf("sgen: RMAT noise %v outside [0,1]", r.Noise)
	}
	return nil
}

// scaleFor returns the smallest scale s with 2^s >= n.
func scaleFor(n int64) uint {
	s := uint(0)
	for int64(1)<<s < n {
		s++
	}
	return s
}

// Run implements Generator. n is rounded up to the next power of two
// internally (ids stay < n; candidate edges landing outside [0,n) are
// rejected and redrawn in the next refill round), so callers may pass
// any positive n.
func (r *RMAT) Run(n int64) (*table.EdgeTable, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sgen: RMAT needs n > 0, got %d", n)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if scaleFor(n) > 31 {
		// Dedup keys pack two ids into one uint64 (32 bits each).
		return nil, fmt.Errorf("sgen: RMAT supports n up to 2^31, got %d", n)
	}
	return r.runSharded(n)
}

// EstimatedEdges implements EdgeCountEstimator: m = EdgeFactor·n
// exactly (Run loops until the target count is reached).
func (r *RMAT) EstimatedEdges(n int64) int64 {
	if n <= 0 || r.EdgeFactor <= 0 {
		return 0
	}
	return r.EdgeFactor * n
}

// NumNodesForEdges implements Generator: n = numEdges / edgefactor,
// rounded up to a power of two as Graph500 scales are.
func (r *RMAT) NumNodesForEdges(numEdges int64) (int64, error) {
	if numEdges <= 0 {
		return 0, fmt.Errorf("sgen: numEdges must be positive, got %d", numEdges)
	}
	if r.EdgeFactor <= 0 {
		return 0, fmt.Errorf("sgen: RMAT edge factor must be positive")
	}
	n := (numEdges + r.EdgeFactor - 1) / r.EdgeFactor
	return int64(1) << scaleFor(n), nil
}
