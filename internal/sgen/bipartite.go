package sgen

import (
	"fmt"
	"math"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// This file implements the bipartite structure generators needed for
// edge types between two different node types, such as the running
// example's `creates` (Person 1→* Message). The paper's cardinality
// requirement distinguishes 1→1, 1→* and *→* edges; each maps to a
// generator here.

// PowerLawOut generates a 1→* edge type: each tail node t gets
// out-degree drawn from a truncated power law, and each edge points to
// a *fresh* head node — exactly the `creates` pattern, where every
// Message is created by exactly one Person. The head-domain size is
// therefore the edge count, which is how DataSynth's dependency
// analysis infers the number of Messages (paper Section 4.2).
type PowerLawOut struct {
	MinOut, MaxOut int
	Gamma          float64
	Seed           uint64
}

// NewPowerLawOut returns a 1→* generator with out-degrees in
// [minOut, maxOut] following P(d) ∝ d^-gamma.
func NewPowerLawOut(minOut, maxOut int, gamma float64, seed uint64) *PowerLawOut {
	return &PowerLawOut{MinOut: minOut, MaxOut: maxOut, Gamma: gamma, Seed: seed}
}

// Name implements BipartiteGenerator.
func (g *PowerLawOut) Name() string { return "powerlaw-out" }

// Validate implements BipartiteGenerator.
func (g *PowerLawOut) Validate() error {
	return validOutDegrees("powerlaw-out", g.MinOut, g.MaxOut, g.Gamma)
}

// RunBipartite implements BipartiteGenerator. nHead is ignored (the
// generator mints one head per edge); a run that would mint more than
// table.MaxNodes heads fails rather than wrap an id.
func (g *PowerLawOut) RunBipartite(nTail, nHead int64) (*table.EdgeTable, error) {
	if nTail <= 0 {
		return nil, fmt.Errorf("sgen: powerlaw-out needs nTail > 0, got %d", nTail)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	dist, err := xrand.NewPowerLawInt(max(1, g.MinOut), g.MaxOut, g.Gamma)
	if err != nil {
		return nil, err
	}
	s := xrand.NewStream(g.Seed)
	et := table.NewEdgeTable("powerlaw-out", nTail*int64(dist.Mean()))
	var head int64
	for t := int64(0); t < nTail; t++ {
		d := dist.Sample(s, t)
		if g.MinOut <= 0 {
			// Allow zero out-degree by shifting: sample in [1,max] then
			// subtract the shift probabilistically — approximated by
			// letting MinOut=0 mean "d-1".
			d--
		}
		for j := 0; j < d; j++ {
			if head == table.MaxNodes {
				return nil, fmt.Errorf("sgen: powerlaw-out mints more than %d heads from %d tails", int64(table.MaxNodes), nTail)
			}
			et.Add(t, head)
			head++
		}
	}
	return et, nil
}

// EstimatedEdges implements EdgeCountEstimator: m ≈ nTail·mean(d).
func (g *PowerLawOut) EstimatedEdges(nTail int64) int64 {
	dist, err := xrand.NewPowerLawInt(max(1, g.MinOut), g.MaxOut, g.Gamma)
	if err != nil {
		return 0
	}
	mean := dist.Mean()
	if g.MinOut <= 0 {
		mean--
	}
	if mean <= 0 || nTail < 1 {
		return 0
	}
	return int64(float64(nTail) * mean)
}

// NumTailsForEdges implements BipartiteGenerator.
func (g *PowerLawOut) NumTailsForEdges(numEdges int64) (int64, error) {
	dist, err := xrand.NewPowerLawInt(max(1, g.MinOut), g.MaxOut, g.Gamma)
	if err != nil {
		return 0, err
	}
	mean := dist.Mean()
	if g.MinOut <= 0 {
		mean--
	}
	if mean <= 0 {
		return 0, fmt.Errorf("sgen: powerlaw-out mean out-degree is zero")
	}
	return searchNodesForEdges(numEdges, func(n int64) float64 {
		return float64(n) * mean
	})
}

// ZipfAttachment generates a *→* bipartite edge type between two fixed
// domains: each tail draws out-degree from a power law and attaches to
// head nodes with Zipf-distributed popularity — the classic
// user–product interaction shape (few blockbuster products).
type ZipfAttachment struct {
	MinOut, MaxOut int
	GammaOut       float64 // tail out-degree exponent
	ThetaIn        float64 // head popularity Zipf exponent
	Seed           uint64

	// stats of the last RunBipartite, for RunNote.
	lastStats zipfStats
}

// zipfStats is one RunBipartite's telemetry, surfaced via RunNote.
type zipfStats struct {
	draws, dups, ranks int64
}

// NewZipfAttachment returns a *→* generator.
func NewZipfAttachment(minOut, maxOut int, gammaOut, thetaIn float64, seed uint64) *ZipfAttachment {
	return &ZipfAttachment{MinOut: minOut, MaxOut: maxOut, GammaOut: gammaOut, ThetaIn: thetaIn, Seed: seed}
}

// Name implements BipartiteGenerator.
func (g *ZipfAttachment) Name() string { return "zipf-attachment" }

// Validate implements BipartiteGenerator.
func (g *ZipfAttachment) Validate() error {
	if err := validOutDegrees("zipf-attachment", g.MinOut, g.MaxOut, g.GammaOut); err != nil {
		return err
	}
	if !(g.ThetaIn > 0) {
		return fmt.Errorf("sgen: zipf-attachment needs theta > 0, got %v", g.ThetaIn)
	}
	return nil
}

// RunNote implements Noter: how many head draws the last run made, how
// many of them repeated a head the tail already had, and how many
// popularity ranks were looked up in the permutation at all.
func (g *ZipfAttachment) RunNote() string {
	st := g.lastStats
	if st.draws == 0 {
		return ""
	}
	return fmt.Sprintf("zipf-attachment %d draws, %d duplicate, %d ranks memoised", st.draws, st.dups, st.ranks)
}

// zipfMaxSupport caps the popularity distribution's support to keep its
// CDF, and the rank memo beside it, cheap: 2^20 ranks are 8 MB each.
const zipfMaxSupport = 1 << 20

// RunBipartite implements BipartiteGenerator. nHead must be positive.
//
// Draw d of the run (counted over all tails) takes its popularity rank
// from stream "head" at index d and maps it to a head id through the
// "perm" stream's fixed permutation, so rank 0 isn't always head 0. The
// permutation is a four-round Feistel walk and the Zipf head sends
// almost every draw to the same few thousand ranks, so each rank is
// walked once and remembered. A tail holds at most MaxOut heads, all of
// them at the end of the table: a repeated head is found by scanning
// those, not by a set per tail.
func (g *ZipfAttachment) RunBipartite(nTail, nHead int64) (*table.EdgeTable, error) {
	if nTail <= 0 || nHead <= 0 {
		return nil, fmt.Errorf("sgen: zipf-attachment needs positive domains, got %d/%d", nTail, nHead)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	outDist, err := xrand.NewPowerLawInt(max(1, g.MinOut), g.MaxOut, g.GammaOut)
	if err != nil {
		return nil, err
	}
	zipf, err := xrand.NewPowerLawInt(1, int(min(nHead, zipfMaxSupport)), g.ThetaIn)
	if err != nil {
		return nil, err
	}
	sOut := xrand.NewStream(g.Seed).DeriveStream("out")
	sHead := xrand.NewStream(g.Seed).DeriveStream("head")
	sPerm := xrand.NewStream(g.Seed).DeriveStream("perm")
	// headOf[rank] is the rank's head id plus one; 0 marks a rank not
	// walked yet.
	headOf := make([]int64, min(nHead, zipfMaxSupport))
	et := table.NewEdgeTable("zipf-attachment", g.EstimatedEdges(nTail))
	var st zipfStats
	for t := int64(0); t < nTail; t++ {
		d := outDist.Sample(sOut, t)
		mine := len(et.Head)
	draws:
		for j := 0; j < d; j++ {
			rank := zipf.Sample(sHead, st.draws) - 1
			st.draws++
			h := headOf[rank] - 1
			if h < 0 {
				h = sPerm.Perm(int64(rank), nHead)
				headOf[rank] = h + 1
				st.ranks++
			}
			for _, have := range et.Head[mine:] {
				if int64(have) == h {
					st.dups++
					continue draws
				}
			}
			et.Add(t, h)
		}
	}
	g.lastStats = st
	return et, nil
}

// EstimatedEdges implements EdgeCountEstimator: m ≲ nTail·mean(d)
// (an upper bound — duplicate attachments are dropped).
func (g *ZipfAttachment) EstimatedEdges(nTail int64) int64 {
	outDist, err := xrand.NewPowerLawInt(max(1, g.MinOut), g.MaxOut, g.GammaOut)
	if err != nil || nTail < 1 {
		return 0
	}
	return int64(float64(nTail) * outDist.Mean())
}

// NumTailsForEdges implements BipartiteGenerator.
func (g *ZipfAttachment) NumTailsForEdges(numEdges int64) (int64, error) {
	outDist, err := xrand.NewPowerLawInt(max(1, g.MinOut), g.MaxOut, g.GammaOut)
	if err != nil {
		return 0, err
	}
	return searchNodesForEdges(numEdges, func(n int64) float64 {
		return float64(n) * outDist.Mean()
	})
}

// OneToOne generates a 1→1 edge type: a pseudo-random perfect matching
// between equal-sized domains.
type OneToOne struct {
	Seed uint64
}

// Name implements BipartiteGenerator.
func (g *OneToOne) Name() string { return "one-to-one" }

// Validate implements BipartiteGenerator: there is nothing to set.
func (g *OneToOne) Validate() error { return nil }

// RunBipartite implements BipartiteGenerator; nHead < 0 means
// nHead = nTail.
func (g *OneToOne) RunBipartite(nTail, nHead int64) (*table.EdgeTable, error) {
	if nTail <= 0 {
		return nil, fmt.Errorf("sgen: one-to-one needs nTail > 0, got %d", nTail)
	}
	if nHead < 0 {
		nHead = nTail
	}
	if nHead != nTail {
		return nil, fmt.Errorf("sgen: one-to-one needs equal domains, got %d/%d", nTail, nHead)
	}
	s := xrand.NewStream(g.Seed)
	et := table.NewEdgeTable("one-to-one", nTail)
	for t := int64(0); t < nTail; t++ {
		et.Add(t, s.Perm(t, nTail))
	}
	return et, nil
}

// EstimatedEdges implements EdgeCountEstimator: m = nTail exactly.
func (g *OneToOne) EstimatedEdges(nTail int64) int64 {
	if nTail < 1 {
		return 0
	}
	return nTail
}

// NumTailsForEdges implements BipartiteGenerator: one edge per tail.
func (g *OneToOne) NumTailsForEdges(numEdges int64) (int64, error) {
	if numEdges <= 0 {
		return 0, fmt.Errorf("sgen: numEdges must be positive")
	}
	return numEdges, nil
}

// UniformBipartite generates a *→* edge type with a fixed expected
// out-degree and uniformly chosen heads (a bipartite Erdős–Rényi).
type UniformBipartite struct {
	AvgOut float64
	Seed   uint64
}

// Name implements BipartiteGenerator.
func (g *UniformBipartite) Name() string { return "uniform-bipartite" }

// Validate implements BipartiteGenerator.
func (g *UniformBipartite) Validate() error {
	if !(g.AvgOut > 0) {
		return fmt.Errorf("sgen: uniform-bipartite needs positive average out-degree, got %v", g.AvgOut)
	}
	return nil
}

// RunBipartite implements BipartiteGenerator.
func (g *UniformBipartite) RunBipartite(nTail, nHead int64) (*table.EdgeTable, error) {
	if nTail <= 0 || nHead <= 0 {
		return nil, fmt.Errorf("sgen: uniform-bipartite needs positive domains")
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	m := int64(math.Round(float64(nTail) * g.AvgOut))
	s := xrand.NewStream(g.Seed)
	et := table.NewEdgeTable("uniform-bipartite", m)
	for e := int64(0); e < m; e++ {
		et.Add(s.Intn(2*e, nTail), s.Intn(2*e+1, nHead))
	}
	return et, nil
}

// EstimatedEdges implements EdgeCountEstimator: m = round(nTail·AvgOut).
func (g *UniformBipartite) EstimatedEdges(nTail int64) int64 {
	if g.AvgOut <= 0 || nTail < 1 {
		return 0
	}
	return int64(math.Round(float64(nTail) * g.AvgOut))
}

// NumTailsForEdges implements BipartiteGenerator.
func (g *UniformBipartite) NumTailsForEdges(numEdges int64) (int64, error) {
	if g.AvgOut <= 0 {
		return 0, fmt.Errorf("sgen: uniform-bipartite needs positive average out-degree")
	}
	return searchNodesForEdges(numEdges, func(n int64) float64 {
		return float64(n) * g.AvgOut
	})
}

// validOutDegrees checks the truncated power-law out-degree parameters
// PowerLawOut and ZipfAttachment share (a MinOut below 1 samples from 1).
func validOutDegrees(gen string, minOut, maxOut int, gamma float64) error {
	if lo := max(1, minOut); maxOut < lo {
		return fmt.Errorf("sgen: %s needs min <= max, got [%d,%d]", gen, lo, maxOut)
	}
	if !(gamma > 0) {
		return fmt.Errorf("sgen: %s needs gamma > 0, got %v", gen, gamma)
	}
	return nil
}
