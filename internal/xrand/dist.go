package xrand

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

// This file implements the distribution samplers used by property and
// structure generators. All samplers are driven by a (Stream, index)
// pair, so sampling the same index always yields the same value — the
// invariant behind DataSynth's in-place regeneration.

// Discrete is a finite discrete distribution sampled by inverse
// transform over the cumulative weights. It is the workhorse behind
// categorical property generators and the paper's
// "Inverse Transform Sampling" remark in Section 4.1.
//
// # Guide table
//
// SampleU(u) is defined as the first index i with cum[i] >= u. A
// binary search finds it in log2(n) dependent, unpredictable probes —
// fifteen over zipf-attachment's 30 000-entry CDF, on every edge.
// NewDiscrete therefore also builds a guide table (Chen & Asau's
// indexed search): the unit interval is cut into G equal buckets and
// guide[b] holds that same first index for the bucket edge b/G. A draw
// u in bucket b = ⌊u·G⌋ satisfies b/G <= u < (b+1)/G, and the defining
// index is monotone in u, so the answer lies in [guide[b], guide[b+1]]
// and the binary search runs over that range alone. With G >= 4n at
// least three draws in four land in a bucket no cum[i] falls into and
// need no probe at all, which is what makes the guide pay even at two
// categories (4 ns against 7.5 for the full search; 6.7 against 59 at
// 30 000 — BenchmarkDiscreteSampleU).
//
// The result cannot differ from the full search's. G is a power of two,
// so u·G and b/G are exact in floating point (a scaling of the
// exponent): the bucket is the one u really lies in, and guide[b] was
// computed against the exact edge. Inside the range the same comparison
// cum[i] < u decides. FuzzDiscreteGuide holds the two searches together
// at every cum[i], every bucket edge and their floating-point
// neighbours.
type Discrete struct {
	cum []float64 // cumulative probabilities, cum[len-1] == 1
	// guide[b], b in [0, G], is the first index with cum[i] >= b/G.
	guide   []uint32
	buckets float64 // G, as the factor that turns u into a bucket
}

// guideMaxBuckets bounds the guide table at 512 KB however large the
// support: past it a bucket holds several entries and the search inside
// it takes a probe or two more, which is still log2(G) fewer than
// without.
const guideMaxBuckets = 1 << 17

// NewDiscrete builds a discrete distribution from non-negative weights.
// Weights need not be normalised. At least one weight must be positive.
func NewDiscrete(weights []float64) (*Discrete, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("xrand: discrete distribution needs at least one weight")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("xrand: weight %d is invalid (%v)", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("xrand: discrete distribution needs positive total weight")
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1
	d := &Discrete{cum: cum}
	if uint64(len(cum)) <= math.MaxUint32 { // guide entries are uint32
		d.buildGuide()
	}
	return d, nil
}

// buildGuide fills the guide table in one sweep over cum: the first
// index reaching b/G only moves right as b grows.
func (d *Discrete) buildGuide() {
	g := min(1<<bits.Len(uint(4*len(d.cum)-1)), guideMaxBuckets) // power of two >= 4n
	d.guide = make([]uint32, g+1)
	d.buckets = float64(g)
	i := 0
	for b := range d.guide {
		// cum's last entry is 1 >= b/G, so i stays in range.
		for edge := float64(b) / d.buckets; d.cum[i] < edge; {
			i++
		}
		d.guide[b] = uint32(i)
	}
}

// N returns the number of categories.
func (d *Discrete) N() int { return len(d.cum) }

// Sample returns the category for the index-th draw of stream s.
func (d *Discrete) Sample(s Stream, i int64) int {
	return d.SampleU(s.Float64(i))
}

// SampleU inverts the CDF at u in [0,1): the first category whose
// cumulative probability reaches u. The search is sort.SearchFloat64s
// without the call per probe, over the range the guide table leaves
// (see Discrete) — this sits under every categorical draw. A u outside
// [0,1) has no bucket and gets the full search, as does a support too
// large for a guide.
func (d *Discrete) SampleU(u float64) int {
	lo, hi := 0, len(d.cum)
	if d.guide != nil && u >= 0 && u < 1 {
		b := int(u * d.buckets)
		lo, hi = int(d.guide[b]), int(d.guide[b+1])
	}
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); d.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Prob returns the probability of category k.
func (d *Discrete) Prob(k int) float64 {
	if k == 0 {
		return d.cum[0]
	}
	return d.cum[k] - d.cum[k-1]
}

// PowerLawInt samples integers in [min, max] from a truncated discrete
// power law P(k) ∝ k^(-gamma). LFR uses it for both degree sequences
// and community sizes, cascade for tree sizes and the bipartite
// generators for out-degrees. From min = 1 it is also the Zipf law over
// n ranks: zipf-attachment's head popularity and the zipf categorical's
// weights take rank k-1 from value k.
type PowerLawInt struct {
	min int
	d   *Discrete
}

// NewPowerLawInt builds the distribution. Requires 1 <= min <= max and
// gamma > 0.
func NewPowerLawInt(min, max int, gamma float64) (*PowerLawInt, error) {
	if min < 1 || max < min {
		return nil, fmt.Errorf("xrand: power law needs 1 <= min <= max, got [%d,%d]", min, max)
	}
	if gamma <= 0 || math.IsNaN(gamma) {
		return nil, fmt.Errorf("xrand: power law needs gamma > 0, got %v", gamma)
	}
	w := make([]float64, max-min+1)
	for k := range w {
		w[k] = math.Pow(float64(min+k), -gamma)
	}
	d, err := NewDiscrete(w)
	if err != nil {
		return nil, err
	}
	return &PowerLawInt{min: min, d: d}, nil
}

// Sample draws the i-th value in [min, max].
func (p *PowerLawInt) Sample(s Stream, i int64) int {
	return p.min + p.d.Sample(s, i)
}

// Prob returns P(k) for k in [min, max].
func (p *PowerLawInt) Prob(k int) float64 { return p.d.Prob(k - p.min) }

// Mean returns the expectation of the distribution.
func (p *PowerLawInt) Mean() float64 {
	m := 0.0
	for k := 0; k < p.d.N(); k++ {
		m += float64(float64(p.min+k) * p.d.Prob(k))
	}
	return m
}

// GroupSizes implements the paper's ground-truth group sizing rule
// (Section 4.2, evaluation): the i-th of k groups over n nodes has size
//
//	n · max(geo(p, i), 1/k) / Σ_j max(geo(p, j), 1/k)
//
// with geo(p, i) = (1-p)^i · p the geometric PMF, p in (0, 1]. It
// returns exact integer sizes summing to n (largest-remainder rounding).
func GroupSizes(n int64, k int, p float64) ([]int64, error) {
	if n <= 0 || k <= 0 {
		return nil, fmt.Errorf("xrand: group sizes need n > 0 and k > 0, got n=%d k=%d", n, k)
	}
	if k > int(n) {
		return nil, fmt.Errorf("xrand: more groups (%d) than nodes (%d)", k, n)
	}
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("xrand: group sizes need p in (0,1], got %v", p)
	}
	raw := make([]float64, k)
	total := 0.0
	floor := 1.0 / float64(k)
	for i := 0; i < k; i++ {
		raw[i] = math.Max(math.Pow(1-p, float64(i))*p, floor)
		total += raw[i]
	}
	sizes := make([]int64, k)
	fracs := make([]struct {
		idx  int
		frac float64
	}, k)
	var assigned int64
	for i := 0; i < k; i++ {
		exact := float64(n) * raw[i] / total
		sizes[i] = int64(math.Floor(exact))
		fracs[i].idx = i
		fracs[i].frac = exact - float64(sizes[i])
		assigned += sizes[i]
	}
	sort.Slice(fracs, func(a, b int) bool {
		if fracs[a].frac != fracs[b].frac {
			return fracs[a].frac > fracs[b].frac
		}
		return fracs[a].idx < fracs[b].idx
	})
	for i := 0; assigned < n; i++ {
		sizes[fracs[i%k].idx]++
		assigned++
	}
	// Guarantee non-empty groups so every property value occurs.
	for i := 0; i < k; i++ {
		if sizes[i] == 0 {
			// Steal from the largest group.
			maxJ := 0
			for j := 1; j < k; j++ {
				if sizes[j] > sizes[maxJ] {
					maxJ = j
				}
			}
			sizes[maxJ]--
			sizes[i]++
		}
	}
	return sizes, nil
}
