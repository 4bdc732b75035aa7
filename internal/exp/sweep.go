package exp

import (
	"fmt"
	"io"

	"datasynth/internal/par"
	"datasynth/internal/sgen"
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
// Measured answer (TestMuSweepShape; TestMuSweepPinned holds the
// table): fidelity *improves* as µ grows. The driver is not graph
// structure per se but how informative the target joint is: at high µ
// the LDG ground truth is nearly random, so the target approaches the
// independence joint, which any capacity-respecting assignment
// realises; at low µ the target is sharply structured and every
// cold-start misplacement costs mass.
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

// runMuPoint measures one sweep point: an LFR graph at seed+idx with
// mixing muParam, through the panel protocol at seed.
func runMuPoint(n int64, k int, muParam float64, seed uint64, idx int) (MuPoint, error) {
	lfr := sgen.NewLFR(seed + uint64(idx))
	lfr.Mu = muParam
	et, err := lfr.Run(n)
	if err != nil {
		return MuPoint{}, fmt.Errorf("exp: mu=%v: %w", muParam, err)
	}
	r, err := protocol(Panel{Generator: LFR, Size: n, K: k, Seed: seed}, et, n)
	if err != nil {
		return MuPoint{}, err
	}
	return MuPoint{Mu: muParam, L1: r.L1, KS: r.KS}, nil
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
