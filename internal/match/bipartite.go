package match

import (
	"fmt"
	"time"

	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Bipartite SBM-Part: the paper notes that "a small variation of
// SBM-Part can also be applied to bi-partite graphs, since the SBM can
// model this type of graphs as well. If the bi-partite graph is between
// two different node types, the input would contain two PTs instead of
// one." This file holds that variation's inputs and outputs, for edge
// types such as Person—creates—Message where both endpoint types carry
// a correlated property; the partitioner itself is SBMPart's.

// twoDomain returns the tail and head value counts of a two-domain
// target, refusing a one-domain or improper one.
func twoDomain(target *stats.Joint) (kt, kh int, err error) {
	if target.Tails == 0 {
		return 0, 0, fmt.Errorf("match: a tail/head match needs a two-domain target, got a one-domain joint over %d values", target.K)
	}
	return target.Tails, target.K - target.Tails, target.Validate()
}

// EmpiricalBipartite measures the two-domain joint P(X,Y) of an edge
// table from its tail and head labellings.
func EmpiricalBipartite(et *table.EdgeTable, tailLabels, headLabels []int64, kt, kh int) (*stats.Joint, error) {
	j := stats.NewJoint(kt + kh)
	j.Tails = kt
	m := et.Len()
	if m == 0 {
		return j, nil
	}
	w := 1 / float64(m)
	for e := int64(0); e < m; e++ {
		t, h := et.Tail[e], et.Head[e]
		if int(t) >= len(tailLabels) || int(h) >= len(headLabels) {
			return nil, fmt.Errorf("match: edge %d endpoints outside labellings", e)
		}
		lt, lh := tailLabels[t], headLabels[h]
		if lt < 0 || lt >= int64(kt) || lh < 0 || lh >= int64(kh) {
			return nil, fmt.Errorf("match: edge %d labels (%d,%d) out of range", e, lt, lh)
		}
		j.Add(int(lt), kt+int(lh), w)
	}
	return j, nil
}

// BipartiteResult reports a completed bipartite matching.
type BipartiteResult struct {
	TailAssign, HeadAssign   []uint32
	TailMapping, HeadMapping []uint32
	// Observed, a two-domain joint, equals EmpiricalBipartite over the
	// edge table and the two assignments, bit for bit.
	Observed *stats.Joint
	StepTimes
	// PassTimes breaks PartitionTime down per streaming pass, as
	// Result.PassTimes does.
	PassTimes []time.Duration
}

// MatchBipartite partitions both endpoint domains of a bipartite edge
// table so that the observed P'(X,Y) approaches the two-domain target.
// tailRowLabels/headRowLabels are the two PTs reduced to value indices;
// their frequencies set the group capacities. opt.Order, when set,
// streams the combined id space: tails as they are, heads offset by
// nTail. opt.Passes refines as in MatchProperty, hubs first over the
// combined id space, each side within its own values. An endpoint
// outside [0, nTail)×[0, nHead) fails the graph build.
func MatchBipartite(et *table.EdgeTable, nTail, nHead int64, tailRowLabels, headRowLabels []int64, target *stats.Joint, opt Options) (*BipartiteResult, error) {
	kt, kh, err := twoDomain(target)
	if err != nil {
		return nil, err
	}
	capT, err := stats.Frequencies(tailRowLabels, kt)
	if err != nil {
		return nil, fmt.Errorf("match: tail labels: %w", err)
	}
	capH, err := stats.Frequencies(headRowLabels, kh)
	if err != nil {
		return nil, fmt.Errorf("match: head labels: %w", err)
	}
	if int64(len(tailRowLabels)) < nTail {
		return nil, fmt.Errorf("match: %d tail rows for %d tail nodes", len(tailRowLabels), nTail)
	}
	if int64(len(headRowLabels)) < nHead {
		return nil, fmt.Errorf("match: %d head rows for %d head nodes", len(headRowLabels), nHead)
	}

	// The bipartite SBM as a monopartite one (see the package comment):
	// nodes are tails then heads, and the target's groups are tail
	// values then head values.
	part := &SBMPart{K: target.K, Target: target, Capacities: append(capT, capH...), tails: nTail}
	r, times, err := part.match(et, nTail, nHead, opt)
	if err != nil {
		return nil, err
	}
	mark := time.Now()
	assignT, assignH := r.assign[:nTail:nTail], r.assign[nTail:]
	for i := range assignH {
		assignH[i] -= uint32(kt)
	}

	seedT := xrand.NewStream(opt.Seed).DeriveStream("bip-tail").Seed()
	seedH := xrand.NewStream(opt.Seed).DeriveStream("bip-head").Seed()
	mapT, err := BuildMapping(assignT, tailRowLabels, kt, seedT)
	if err != nil {
		return nil, err
	}
	mapH, err := BuildMapping(assignH, headRowLabels, kh, seedH)
	if err != nil {
		return nil, err
	}
	times.MappingTime = lap(&mark)
	obs := r.observed(et)
	times.JointTime = lap(&mark)
	return &BipartiteResult{
		TailAssign: assignT, HeadAssign: assignH,
		TailMapping: mapT, HeadMapping: mapH,
		Observed: obs, StepTimes: times, PassTimes: part.PassTimes,
	}, nil
}
