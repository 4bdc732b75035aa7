package graph

import (
	"math"
	"sort"
)

// This file implements the structural metrics from the paper's
// Section 2 requirement list beyond plain degrees: clustering
// coefficients, assortativity, and modularity of a labelling.

// LocalClustering returns the local clustering coefficient of v:
// the fraction of pairs of distinct neighbours that are themselves
// connected. Nodes with degree < 2 have coefficient 0. Parallel edges
// and self-loops are ignored for the purpose of this metric.
func (g *Graph) LocalClustering(v int64) float64 {
	neigh := distinctNeighbors(g, v)
	k := len(neigh)
	if k < 2 {
		return 0
	}
	set := make(map[uint32]struct{}, k)
	for _, u := range neigh {
		set[u] = struct{}{}
	}
	links := 0
	for _, u := range neigh {
		for _, w := range g.Neighbors(int64(u)) {
			if w == u || int64(w) == v {
				continue
			}
			if _, ok := set[w]; ok {
				links++
			}
		}
	}
	// Each triangle edge counted twice (u->w and w->u across iterations),
	// but parallel edges in u's list may over-count; dedupe per u.
	return float64(links) / float64(k*(k-1))
}

func distinctNeighbors(g *Graph, v int64) []uint32 {
	raw := g.Neighbors(v)
	out := make([]uint32, 0, len(raw))
	seen := make(map[uint32]struct{}, len(raw))
	for _, u := range raw {
		if int64(u) == v {
			continue
		}
		if _, ok := seen[u]; ok {
			continue
		}
		seen[u] = struct{}{}
		out = append(out, u)
	}
	return out
}

// AvgClustering returns the average local clustering coefficient over
// all nodes, or over a pseudo-random sample of `sample` nodes if
// sample > 0 and sample < n (the standard approach at scale).
func (g *Graph) AvgClustering(sample int64, seed uint64) float64 {
	if g.n == 0 {
		return 0
	}
	if sample <= 0 || sample >= g.n {
		sum := 0.0
		for v := int64(0); v < g.n; v++ {
			sum += g.LocalClustering(v)
		}
		return sum / float64(g.n)
	}
	sum := 0.0
	s := seed
	for i := int64(0); i < sample; i++ {
		s = s*6364136223846793005 + 1442695040888963407
		sum += g.LocalClustering(int64(s % uint64(g.n)))
	}
	return sum / float64(sample)
}

// ClusteringPerDegree returns the average local clustering coefficient
// per degree — the statistic BTER is parameterised by (ccd). Index d
// holds the average over nodes of degree d; degrees with no nodes hold
// NaN.
func (g *Graph) ClusteringPerDegree() []float64 {
	maxDeg := g.MaxDegree()
	sums := make([]float64, maxDeg+1)
	counts := make([]int64, maxDeg+1)
	for v := int64(0); v < g.n; v++ {
		d := g.Degree(v)
		sums[d] += g.LocalClustering(v)
		counts[d]++
	}
	out := make([]float64, maxDeg+1)
	for d := range out {
		if counts[d] == 0 {
			out[d] = math.NaN()
		} else {
			out[d] = sums[d] / float64(counts[d])
		}
	}
	return out
}

// DegreeAssortativity returns the Pearson correlation of the degrees at
// the two ends of each edge (Newman's assortativity coefficient).
// Returns NaN for degenerate graphs (no edges or zero variance).
func (g *Graph) DegreeAssortativity() float64 {
	var sx, sy, sxx, syy, sxy float64
	var m float64
	for v := int64(0); v < g.n; v++ {
		dv := float64(g.Degree(v))
		for _, u := range g.Neighbors(v) {
			// Each undirected edge appears twice (v->u and u->v), which
			// symmetrises the correlation as required.
			du := float64(g.Degree(int64(u)))
			sx += dv
			sy += du
			sxx += dv * dv
			syy += du * du
			sxy += dv * du
			m++
		}
	}
	if m == 0 {
		return math.NaN()
	}
	cov := sxy/m - (sx/m)*(sy/m)
	vx := sxx/m - (sx/m)*(sx/m)
	vy := syy/m - (sy/m)*(sy/m)
	if vx <= 0 || vy <= 0 {
		return math.NaN()
	}
	return cov / math.Sqrt(vx*vy)
}

// Modularity computes Newman modularity Q of a node labelling: the
// fraction of intra-label edge endpoints minus the expectation under
// the configuration model. Labels must be in [0, k).
func (g *Graph) Modularity(labels []int64) float64 {
	if int64(len(labels)) != g.n {
		panic("graph: labels length mismatch")
	}
	var k int64
	for _, l := range labels {
		if l+1 > k {
			k = l + 1
		}
	}
	intra := make([]float64, k)  // intra-community edge-endpoint halves
	degSum := make([]float64, k) // total degree per community
	var twoM float64
	for v := int64(0); v < g.n; v++ {
		lv := labels[v]
		for _, u := range g.Neighbors(v) {
			twoM++
			degSum[lv]++
			if labels[u] == lv {
				intra[lv]++
			}
		}
	}
	if twoM == 0 {
		return 0
	}
	q := 0.0
	for c := int64(0); c < k; c++ {
		q += intra[c]/twoM - (degSum[c]/twoM)*(degSum[c]/twoM)
	}
	return q
}

// MixingFraction returns the fraction of edge endpoints whose other end
// carries a different label — the empirical counterpart of LFR's mixing
// parameter µ.
func (g *Graph) MixingFraction(labels []int64) float64 {
	if int64(len(labels)) != g.n {
		panic("graph: labels length mismatch")
	}
	var inter, total float64
	for v := int64(0); v < g.n; v++ {
		for _, u := range g.Neighbors(v) {
			total++
			if labels[u] != labels[v] {
				inter++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return inter / total
}

// PowerLawAlphaMLE fits the exponent of a discrete power law to the
// degree sequence using the standard MLE approximation
// alpha = 1 + n / Σ ln(d_i / (dmin - 0.5)) over degrees >= dmin.
// Used by tests to confirm RMAT/BA produce heavy-tailed degrees.
func (g *Graph) PowerLawAlphaMLE(dmin int64) float64 {
	if dmin < 1 {
		dmin = 1
	}
	var n float64
	var sum float64
	for v := int64(0); v < g.n; v++ {
		d := g.Degree(v)
		if d >= dmin {
			n++
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
		}
	}
	if n == 0 || sum == 0 {
		return math.NaN()
	}
	return 1 + n/sum
}

// GiniDegree returns the Gini coefficient of the degree sequence, a
// scale-free-ness proxy: ~0 for regular graphs, large (>0.4) for
// heavy-tailed ones.
func (g *Graph) GiniDegree() float64 {
	if g.n == 0 {
		return 0
	}
	deg := make([]float64, g.n)
	for v := int64(0); v < g.n; v++ {
		deg[v] = float64(g.Degree(v))
	}
	sort.Float64s(deg)
	var cum, total float64
	for i, d := range deg {
		cum += d * float64(i+1)
		total += d
	}
	if total == 0 {
		return 0
	}
	n := float64(g.n)
	return (2*cum)/(n*total) - (n+1)/n
}
