package sgen

import (
	"testing"

	"datasynth/internal/par/partest"
	"datasynth/internal/table"
)

// sameEdgesAtAnyProcs runs mk().Run(n) at GOMAXPROCS 1, 2, 4 and 8 and
// fails unless every run yields the GOMAXPROCS=1 edge table.
func sameEdgesAtAnyProcs(t *testing.T, mk func() *LFR, n int64) {
	var ref *table.EdgeTable
	for _, procs := range []int{1, 2, 4, 8} {
		partest.SetProcs(t, procs)
		got, err := mk().Run(n)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if ref == nil {
			if ref = got; ref.Len() == 0 {
				t.Fatal("no edges")
			}
			continue
		}
		if got.Len() != ref.Len() {
			t.Fatalf("GOMAXPROCS=%d: %d edges, serial %d", procs, got.Len(), ref.Len())
		}
		for i := range ref.Tail {
			if ref.Tail[i] != got.Tail[i] || ref.Head[i] != got.Head[i] {
				t.Fatalf("GOMAXPROCS=%d: edge %d is (%d,%d), serial (%d,%d)",
					procs, i, got.Tail[i], got.Head[i], ref.Tail[i], ref.Head[i])
			}
		}
	}
}

// TestLFRWorkerCountByteIdentical: sharded intra-community wiring must
// produce the same edge table no matter how many goroutines drain the
// shard queue — per-community RNG streams plus community-ordered
// assembly make the output a pure function of the seed.
func TestLFRWorkerCountByteIdentical(t *testing.T) {
	sameEdgesAtAnyProcs(t, func() *LFR { return NewLFR(11) }, 3000)
}

// TestLFRShardedLargeCommunityWorkers: the oversized-community fallback
// (sorted-key dedup) must be as invariant.
func TestLFRShardedLargeCommunityWorkers(t *testing.T) {
	sameEdgesAtAnyProcs(t, func() *LFR {
		l := NewLFR(5)
		l.MinCommunity, l.MaxCommunity = 2100, 2200
		return l
	}, 4300)
}
