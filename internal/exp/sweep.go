package exp

import (
	"fmt"
	"io"

	"datasynth/internal/graph"
	"datasynth/internal/match"
	"datasynth/internal/par"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/xrand"
)

// Structure-sensitivity sweep: the paper's future work asks for
// "understanding which is the relation between the graph structure and
// the provided joint probability distribution (i.e. in which
// situations the algorithm performs well and which does not)". This
// experiment varies LFR's mixing parameter µ — the knob that erodes
// community structure — and measures matching fidelity at fixed size
// and k, with the target joint derived from an LDG ground truth on the
// same graph (the paper's protocol).
//
// Measured answer (see EXPERIMENTS.md): fidelity *improves* as µ grows.
// The driver is not graph structure per se but how informative the
// target joint is: at high µ the LDG ground truth is nearly random, so
// the target approaches the independence joint, which any
// capacity-respecting assignment realises; at low µ the target is
// sharply structured and every cold-start misplacement costs mass.
// The hard regime is therefore a *structured target on a graph whose
// topology resists it* — which is exactly why RMAT panels (hub-heavy,
// weak blocks) fit worse than LFR panels in Figure 3.

// MuPoint is one row of the sweep.
type MuPoint struct {
	Mu float64
	L1 float64
	KS float64
}

// RunMuSweep measures matching fidelity across mixing parameters.
// Points are independent (each derives its randomness from seed and
// its index), so they fan out like figure panels do (par.ForEach); the
// measured fidelity numbers are identical at any GOMAXPROCS.
func RunMuSweep(n int64, k int, mus []float64, seed uint64) ([]MuPoint, error) {
	out := make([]MuPoint, len(mus))
	err := par.ForEach(len(mus), func(i int) error {
		pt, err := runMuPoint(n, k, mus[i], seed, i)
		if err != nil {
			return err
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// runMuPoint measures one sweep point.
func runMuPoint(n int64, k int, muParam float64, seed uint64, idx int) (MuPoint, error) {
	lfr := sgen.NewLFR(seed + uint64(idx))
	lfr.Mu = muParam
	et, err := lfr.Run(n)
	if err != nil {
		return MuPoint{}, fmt.Errorf("exp: mu=%v: %w", muParam, err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		return MuPoint{}, err
	}
	sizes, err := xrand.GroupSizes(n, k, 0.4)
	if err != nil {
		return MuPoint{}, err
	}
	ldg, err := match.NewLDG(sizes)
	if err != nil {
		return MuPoint{}, err
	}
	truth, err := ldg.Partition(g, match.RandomOrder(n, seed^1))
	if err != nil {
		return MuPoint{}, err
	}
	expected, err := stats.EmpiricalJoint(et, truth, k)
	if err != nil {
		return MuPoint{}, err
	}
	part, err := match.NewSBMPart(expected, sizes)
	if err != nil {
		return MuPoint{}, err
	}
	part.Seed = seed ^ 3
	assign, err := part.Partition(g, match.RandomOrder(n, seed^2))
	if err != nil {
		return MuPoint{}, err
	}
	observed, err := stats.EmpiricalJoint(et, assign, k)
	if err != nil {
		return MuPoint{}, err
	}
	l1, err := stats.L1(expected, observed)
	if err != nil {
		return MuPoint{}, err
	}
	cdf, err := stats.NewCDFPair(expected, observed)
	if err != nil {
		return MuPoint{}, err
	}
	return MuPoint{Mu: muParam, L1: l1, KS: cdf.KS()}, nil
}

// WriteMuSweep renders the sweep as TSV.
func WriteMuSweep(w io.Writer, pts []MuPoint) error {
	if _, err := fmt.Fprintln(w, "mu\tL1\tKS"); err != nil {
		return err
	}
	for _, p := range pts {
		if _, err := fmt.Fprintf(w, "%.2f\t%.4f\t%.4f\n", p.Mu, p.L1, p.KS); err != nil {
			return err
		}
	}
	return nil
}
