package exp

import (
	"fmt"
	"io"
	"time"

	"datasynth/internal/match"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/xrand"
)

// Bipartite variation of the evaluation protocol. The paper notes that
// "a small variation of SBM-Part can also be applied to bi-partite
// graphs"; this panel measures that variation the same way Figures 3
// and 4 measure the monopartite matcher:
//
//  1. Generate a *→* bipartite edge table (Zipf attachment: power-law
//     tail out-degrees, Zipf head popularity).
//  2. Label both domains with geometric ground-truth value blocks and
//     measure the empirical joint P(X,Y) — the target.
//  3. Stream both domains through MatchBipartite with property tables
//     of the same value frequencies.
//  4. Compare the observed joint against the target (L1).

// BipartiteResult holds one bipartite panel's measurements.
type BipartiteResult struct {
	Panel        Panel
	NTail, NHead int64
	Edges        int64
	KT, KH       int
	L1           float64
	GenTime      time.Duration
	MatchTime    time.Duration // the bipartite SBM-Part stream
}

// RunBipartitePanel executes the bipartite protocol for one panel:
// Size is the tail-domain size (heads are half of it), K the number of
// tail property values (heads carry max(2, K/2) values, so the two
// sides genuinely differ).
func RunBipartitePanel(p Panel) (*BipartiteResult, error) {
	if p.K < 1 {
		return nil, fmt.Errorf("exp: bipartite panel needs K >= 1, got %d", p.K)
	}
	if p.Size < 2 {
		return nil, fmt.Errorf("exp: bipartite panel needs Size >= 2, got %d", p.Size)
	}
	kt := p.K
	kh := p.K / 2
	if kh < 2 {
		kh = 2
	}
	nTail := p.Size
	nHead := p.Size / 2

	t0 := time.Now()
	gen := sgen.NewZipfAttachment(1, 16, 2.5, 1.1, p.Seed)
	et, err := gen.RunBipartite(nTail, nHead)
	if err != nil {
		return nil, fmt.Errorf("exp: generating bipartite %s: %w", p.Label(), err)
	}
	genTime := time.Since(t0)

	truthT, err := blockLabels(nTail, kt)
	if err != nil {
		return nil, err
	}
	truthH, err := blockLabels(nHead, kh)
	if err != nil {
		return nil, err
	}
	target, err := match.EmpiricalBipartite(et, truthT, truthH, kt, kh)
	if err != nil {
		return nil, err
	}

	opt := match.DefaultOptions(p.Seed ^ 0x3)
	opt.Balance = !p.NoBalance
	t1 := time.Now()
	res, err := match.MatchBipartite(et, nTail, nHead, truthT, truthH, target, opt)
	if err != nil {
		return nil, fmt.Errorf("exp: MatchBipartite: %w", err)
	}
	matchTime := time.Since(t1)

	l1, err := stats.L1(target, res.Observed)
	if err != nil {
		return nil, err
	}
	return &BipartiteResult{
		Panel: p, NTail: nTail, NHead: nHead, Edges: et.Len(),
		KT: kt, KH: kh, L1: l1,
		GenTime: genTime, MatchTime: matchTime,
	}, nil
}

// blockLabels lays out geometric group-size labels contiguously —
// both the ground truth and the property-table value frequencies.
func blockLabels(n int64, k int) ([]int64, error) {
	sizes, err := xrand.GroupSizes(n, k, 0.4)
	if err != nil {
		return nil, err
	}
	labels := make([]int64, n)
	idx := int64(0)
	for v, sz := range sizes {
		for c := int64(0); c < sz; c++ {
			labels[idx] = int64(v)
			idx++
		}
	}
	return labels, nil
}

// WriteBipartite renders bipartite panel results as a TSV summary.
func WriteBipartite(w io.Writer, rs []*BipartiteResult) error {
	if _, err := fmt.Fprintln(w, "panel\tntail\tnhead\tedges\tkt\tkh\tl1\tgen_ms\tmatch_ms"); err != nil {
		return err
	}
	for _, r := range rs {
		label := fmt.Sprintf("ZIPF(%s,%dx%d)", compact(r.NTail), r.KT, r.KH)
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.6f\t%.1f\t%.1f\n",
			label, r.NTail, r.NHead, r.Edges, r.KT, r.KH, r.L1,
			float64(r.GenTime.Microseconds())/1000, float64(r.MatchTime.Microseconds())/1000); err != nil {
			return err
		}
	}
	return nil
}
