package sgen

import (
	"math"
	"runtime"
	"testing"

	"datasynth/internal/par/partest"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
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

// TestLFRShardWindows pins the parallel intra phase's memory shape:
// with several workers, each community is wired into its own window of
// the edge table and the windows are compacted in place, so the run
// yields the one-worker edge table and allocates no more than the
// one-worker run bar a fixed slack per extra worker — its stamp table
// and stub buffer, bounded by the largest community, ≈ 80–100 KiB here —
// where a shared arena and per-worker tables cost ≈ 8 bytes an
// intra-community edge more (≈ 500 KiB here).
func TestLFRShardWindows(t *testing.T) {
	const n, perWorker = 5000, 128 << 10
	var refHash string
	var refAlloc uint64
	for _, procs := range []int{1, 2, 4} {
		partest.SetProcs(t, procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		et, err := NewLFR(13).Run(n)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		alloc, hash := after.TotalAlloc-before.TotalAlloc, edgeTableSHA256(et)
		t.Logf("GOMAXPROCS=%d: %d edges, %d bytes allocated", procs, et.Len(), alloc)
		if procs == 1 {
			refHash, refAlloc = hash, alloc
			continue
		}
		if hash != refHash {
			t.Errorf("GOMAXPROCS=%d: edge table hash %s, one worker %s", procs, hash, refHash)
		}
		if slack := uint64(procs-1) * perWorker; alloc > refAlloc+slack {
			t.Errorf("GOMAXPROCS=%d: allocated %d bytes, one worker %d + %d slack", procs, alloc, refAlloc, slack)
		}
	}

	t.Run("overflow", func(t *testing.T) {
		et := table.NewEdgeTable("e", 6)
		et.Tail, et.Head = et.Tail[:6], et.Head[:6]
		for i := range et.Tail {
			et.Tail[i], et.Head[i] = 90+uint32(i), 80+uint32(i)
		}
		win := &table.EdgeTable{}
		if got, err := wireWindow(win, et, 0, 3, func() {
			for i := int64(0); i < 3; i++ {
				win.Add(i, i+1)
			}
		}); err != nil || got != 3 {
			t.Fatalf("a full window: %d edges, %v", got, err)
		}
		if _, err := wireWindow(win, et, 0, 3, func() {
			for i := int64(0); i < 4; i++ {
				win.Add(i, i+1)
			}
		}); err == nil {
			t.Fatal("an overflowing window returned no error")
		}
		for i := 3; i < 6; i++ {
			if et.Tail[i] != 90+uint32(i) || et.Head[i] != 80+uint32(i) {
				t.Fatalf("the neighbouring window's row %d became (%d,%d)", i, et.Tail[i], et.Head[i])
			}
		}
	})
}

// TestLFRInterPhaseAllocations pins the inter phase's memory shape:
// the stub buffer (8 bytes a stub) and one set of round buffers sized
// to the first round's pair count (winner flag 1, key 8, index 4, radix
// scratch 8 + 4, winner key 8: 33 bytes a pair), allocated once.
// Growing either by appending would overshoot the bound.
func TestLFRInterPhaseAllocations(t *testing.T) {
	const n = 100_000
	deg, intra, commOf := make([]int32, n), make([]int32, n), make([]uint32, n)
	var stubs int64
	for v := range deg {
		deg[v] = int32(10 + v%41)
		intra[v] = deg[v] - 1 - int32(v%3)
		commOf[v] = uint32(v / 30)
		stubs += int64(deg[v] - intra[v])
	}
	et := table.NewEdgeTable("inter", stubs/2)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wireInter(xrand.NewSeq(1), et, deg, intra, commOf)
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc - before.TotalAlloc)
	exact := float64(8*stubs + 33*(stubs/2))
	t.Logf("%d stubs, %d edges: %.0f bytes, %.3f× the exact size", stubs, et.Len(), got, got/exact)
	if cap(et.Tail) != int(stubs/2) {
		t.Fatalf("edge table regrown to %d", cap(et.Tail))
	}
	if got > 1.1*exact {
		t.Errorf("inter phase allocated %.0f bytes, want ≤ 1.1 × %.0f", got, exact)
	}
}

// TestLFRNodeStateBytes pins LFR's per-node state outside the edge
// table and the two wiring phases: the degree, intra-degree, placement
// order and community words, 4 bytes each, 16 bytes a node; the member
// lists reuse the dead order. Per community there are its size (16
// bytes: the slice grows by appending), its remaining room, its shuffle
// slot and its member offset, 8 bytes each.
func TestLFRNodeStateBytes(t *testing.T) {
	const n = 20_000
	l := NewLFR(1)
	var s *lfrNodes
	got := uint64(math.MaxUint64)
	for range 3 { // TotalAlloc is process-wide: take the quietest run
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		s, err = l.nodeState(xrand.NewSeq(l.Seed), n)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	comms := uint64(len(s.sizes))
	t.Logf("%d bytes for %d nodes in %d communities (%.2f bytes a node)", got, n, comms, float64(got)/n)
	// The slack is minDegreeFor's power-law tables (22 KB at the
	// defaults) and each big buffer's rounding to whole pages.
	if want := 16*n + 40*comms + 64<<10; got > want {
		t.Errorf("LFR node state allocated %d bytes, want ≤ %d (16 bytes a node + 40 a community + 64 KiB)", got, want)
	}
}
