// Package stats implements the distribution machinery the paper's
// evaluation is expressed in: empirical joint probability distributions
// P(X,Y) over the property values at edge endpoints, the
// sorted-pair CDF plots of Figures 3 and 4, and distances between
// expected and observed distributions.
package stats

import (
	"fmt"
	"math"
	"sort"

	"datasynth/internal/table"
)

// Joint is a joint probability distribution over pairs of categorical
// values in [0, K): the block joint SBM-Part partitions against. P(i,j)
// carries the unordered pair probability with i <= j.
//
// A one-domain joint (Tails == 0) correlates one property with itself:
// values are the property's values. A two-domain joint correlates a
// tail property with a head property: groups [0, Tails) are the tail
// values, [Tails, K) the head values, P(X=a, Y=b) sits at {a, Tails+b},
// and the two within-domain blocks hold no mass.
type Joint struct {
	K int
	// Tails is the number of tail values of a two-domain joint, 0 for a
	// one-domain one.
	Tails int
	// P[i*K+j] for i <= j holds the probability of observing the
	// unordered value pair {i, j} on a uniformly random edge.
	P []float64
}

// NewJoint returns a zero joint distribution over k values.
func NewJoint(k int) *Joint {
	return &Joint{K: k, P: make([]float64, k*k)}
}

// At returns P({i,j}).
func (j *Joint) At(a, b int) float64 {
	if a > b {
		a, b = b, a
	}
	return j.P[a*j.K+b]
}

// Set assigns P({a,b}) = p.
func (j *Joint) Set(a, b int, p float64) {
	if a > b {
		a, b = b, a
	}
	j.P[a*j.K+b] = p
}

// Add increments P({a,b}).
func (j *Joint) Add(a, b int, p float64) {
	if a > b {
		a, b = b, a
	}
	j.P[a*j.K+b] += p
}

// Total returns the probability mass (1 for a proper distribution).
func (j *Joint) Total() float64 {
	var t float64
	for a := 0; a < j.K; a++ {
		for b := a; b < j.K; b++ {
			t += j.P[a*j.K+b]
		}
	}
	return t
}

// Normalize rescales the mass to 1. No-op on an all-zero distribution.
func (j *Joint) Normalize() {
	t := j.Total()
	if t == 0 {
		return
	}
	for i := range j.P {
		j.P[i] /= t
	}
}

// Validate checks that the distribution is proper and, for a
// two-domain joint, that both domains have values and every pair with
// mass joins a tail value to a head value.
func (j *Joint) Validate() error {
	if j.Tails < 0 || j.Tails > 0 && j.Tails >= j.K {
		return fmt.Errorf("stats: %d tail values in a joint over %d", j.Tails, j.K)
	}
	for a := 0; a < j.K; a++ {
		for b := a; b < j.K; b++ {
			p := j.P[a*j.K+b]
			if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
				return fmt.Errorf("stats: P(%d,%d) = %v invalid", a, b, p)
			}
			if p != 0 && j.Tails > 0 && (b < j.Tails || a >= j.Tails) {
				return fmt.Errorf("stats: P(%d,%d) = %v joins two values of one domain", a, b, p)
			}
		}
	}
	if t := j.Total(); math.Abs(t-1) > 1e-6 {
		return fmt.Errorf("stats: joint mass %v, want 1", t)
	}
	return nil
}

// EmpiricalJoint measures P(X,Y) from an edge table and a node
// labelling: the probability of observing the unordered label pair on a
// uniformly random edge. This is step 3 of the paper's evaluation
// protocol ("we computed our joint probability distribution P(X,Y)
// empirically").
func EmpiricalJoint(et *table.EdgeTable, labels []int64, k int) (*Joint, error) {
	j := NewJoint(k)
	m := et.Len()
	if m == 0 {
		return j, nil
	}
	w := 1 / float64(m)
	for e := int64(0); e < m; e++ {
		t, h := et.Tail[e], et.Head[e]
		if int(t) >= len(labels) || int(h) >= len(labels) {
			return nil, fmt.Errorf("stats: edge %d endpoint outside labelling", e)
		}
		lt, lh := labels[t], labels[h]
		if lt < 0 || lt >= int64(k) || lh < 0 || lh >= int64(k) {
			return nil, fmt.Errorf("stats: edge %d labels (%d,%d) outside [0,%d)", e, lt, lh, k)
		}
		j.Add(int(lt), int(lh), w)
	}
	return j, nil
}

// PairProb is one unordered value pair with its probability.
type PairProb struct {
	A, B int
	P    float64
}

// SortedPairs returns all unordered pairs sorted by decreasing
// probability (ties broken by pair index for determinism) — the x-axis
// ordering of the paper's figures: "the x axis corresponds to the
// different pairs of values <i,j>, and are sorted by decreasing
// probability in the expected CDF".
func (j *Joint) SortedPairs() []PairProb {
	out := make([]PairProb, 0, j.K*(j.K+1)/2)
	for a := 0; a < j.K; a++ {
		for b := a; b < j.K; b++ {
			out = append(out, PairProb{A: a, B: b, P: j.P[a*j.K+b]})
		}
	}
	sort.SliceStable(out, func(x, y int) bool {
		if out[x].P != out[y].P {
			return out[x].P > out[y].P
		}
		if out[x].A != out[y].A {
			return out[x].A < out[y].A
		}
		return out[x].B < out[y].B
	})
	return out
}

// CDFPair compares an expected and an observed joint distribution the
// way Figures 3 and 4 do: pairs are ordered by decreasing *expected*
// probability and both distributions are accumulated along that shared
// order.
type CDFPair struct {
	Pairs    []PairProb // the shared order (expected probabilities)
	Expected []float64  // expected CDF
	Observed []float64  // observed CDF along the same pair order
}

// NewCDFPair builds the paired CDFs. Both joints must have the same k.
func NewCDFPair(expected, observed *Joint) (*CDFPair, error) {
	if expected.K != observed.K {
		return nil, fmt.Errorf("stats: joint sizes differ (%d vs %d)", expected.K, observed.K)
	}
	pairs := expected.SortedPairs()
	exp := make([]float64, len(pairs))
	obs := make([]float64, len(pairs))
	var ce, co float64
	for i, p := range pairs {
		ce += p.P
		co += observed.At(p.A, p.B)
		exp[i] = ce
		obs[i] = co
	}
	return &CDFPair{Pairs: pairs, Expected: exp, Observed: obs}, nil
}

// KS returns the Kolmogorov–Smirnov statistic between the two CDFs:
// max |expected - observed| along the shared pair order.
func (c *CDFPair) KS() float64 {
	var ks float64
	for i := range c.Expected {
		if d := math.Abs(c.Expected[i] - c.Observed[i]); d > ks {
			ks = d
		}
	}
	return ks
}

// L1 returns the total variation-style L1 distance between the two
// PMFs: Σ |p_e - p_o| over pairs (0 = identical, 2 = disjoint).
func L1(expected, observed *Joint) (float64, error) {
	if expected.K != observed.K {
		return 0, fmt.Errorf("stats: joint sizes differ (%d vs %d)", expected.K, observed.K)
	}
	var d float64
	for a := 0; a < expected.K; a++ {
		for b := a; b < expected.K; b++ {
			d += math.Abs(expected.At(a, b) - observed.At(a, b))
		}
	}
	return d, nil
}

// JensenShannon returns the Jensen–Shannon divergence (base-2, in
// [0,1]) between the two joint PMFs.
func JensenShannon(expected, observed *Joint) (float64, error) {
	if expected.K != observed.K {
		return 0, fmt.Errorf("stats: joint sizes differ (%d vs %d)", expected.K, observed.K)
	}
	var js float64
	for a := 0; a < expected.K; a++ {
		for b := a; b < expected.K; b++ {
			p := expected.At(a, b)
			q := observed.At(a, b)
			m := (p + q) / 2
			// Each term is rounded before the sum (no fused multiply-add).
			if p > 0 {
				js += float64(p / 2 * math.Log2(p/m))
			}
			if q > 0 {
				js += float64(q / 2 * math.Log2(q/m))
			}
		}
	}
	return js, nil
}
