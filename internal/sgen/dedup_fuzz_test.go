package sgen

import (
	"testing"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// The fuzz harness pits the batched dedup (radix sort-and-compact for
// the filtered path, generation-stamped direct addressing for the
// intra-community path) against a naive map[uint64]struct{} reference
// that implements the documented semantics verbatim: within a round
// the earliest occurrence of an edge key wins, later occurrences and
// previously accepted keys fail, and failing stubs are re-shuffled
// into the next round. Both sides must emit identical edge sequences.

// naivePairStubsFiltered is the reference for pairStubsFiltered.
func naivePairStubsFiltered(q *xrand.Seq, et *table.EdgeTable, stubs []int64, rounds int, ok func(a, b int64) bool) {
	accepted := map[uint64]struct{}{}
	pending := stubs
	for r := 0; r < rounds && len(pending) >= 2; r++ {
		q.ShuffleInt64(pending)
		w := 0
		for i := 0; i+1 < len(pending); i += 2 {
			a, b := pending[i], pending[i+1]
			won := false
			if a != b && (ok == nil || ok(a, b)) {
				key := packEdgeKey(a, b)
				if _, dup := accepted[key]; !dup {
					accepted[key] = struct{}{}
					lo, hi := a, b
					if lo > hi {
						lo, hi = hi, lo
					}
					et.Add(lo, hi)
					won = true
				}
			}
			if !won {
				pending[w], pending[w+1] = a, b
				w += 2
			}
		}
		pending = pending[:w]
	}
}

// naivePairStubsDirect is the reference for pairStubsDirect (stubs are
// local member indices).
func naivePairStubsDirect(q *xrand.Seq, et *table.EdgeTable, stubs []int64, members []uint32, rounds int) {
	accepted := map[uint64]struct{}{}
	pending := stubs
	for r := 0; r < rounds && len(pending) >= 2; r++ {
		q.ShuffleInt64(pending)
		w := 0
		for i := 0; i+1 < len(pending); i += 2 {
			la, lb := pending[i], pending[i+1]
			won := false
			if la != lb {
				key := packEdgeKey(la, lb)
				if _, dup := accepted[key]; !dup {
					accepted[key] = struct{}{}
					a, b := members[la], members[lb]
					if a > b {
						a, b = b, a
					}
					et.Add(int64(a), int64(b))
					won = true
				}
			}
			if !won {
				pending[w], pending[w+1] = la, lb
				w += 2
			}
		}
		pending = pending[:w]
	}
}

func assertSameEdges(t *testing.T, kind string, want, got *table.EdgeTable) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d edges, reference %d", kind, got.Len(), want.Len())
	}
	for i := range want.Tail {
		if want.Tail[i] != got.Tail[i] || want.Head[i] != got.Head[i] {
			t.Fatalf("%s: edge %d is (%d,%d), reference (%d,%d)",
				kind, i, got.Tail[i], got.Head[i], want.Tail[i], want.Head[i])
		}
	}
}

// checkDedupAgainstReference derives a stub batch from raw fuzz bytes
// and runs every dedup path against its reference. span bounds the id
// universe — small spans maximise duplicate and self-loop pressure.
func checkDedupAgainstReference(t *testing.T, seed uint64, data []byte, span uint8, withFilter bool) {
	if span < 2 {
		span = 2
	}
	stubs := make([]int64, len(data))
	for i, b := range data {
		stubs[i] = int64(b) % int64(span)
	}
	if len(stubs)%2 == 1 {
		stubs = stubs[:len(stubs)-1]
	}
	var ok func(a, b int64) bool
	if withFilter {
		ok = func(a, b int64) bool { return a%3 != b%3 }
	}

	// Filtered (sorted-key) path — also the oversized-community
	// fallback branch of the intra wiring.
	{
		dd := new(edgeDedup)
		fast := table.NewEdgeTable("fast", 0)
		stubsA := append([]int64(nil), stubs...)
		pairStubsFiltered(xrand.NewSeq(seed), dd, fast, stubsA, 8, ok)

		naive := table.NewEdgeTable("naive", 0)
		stubsB := append([]int64(nil), stubs...)
		naivePairStubsFiltered(xrand.NewSeq(seed), naive, stubsB, 8, ok)
		assertSameEdges(t, "filtered", naive, fast)
	}

	// Direct (stamp-table) path: stubs become local indices into a
	// member list, exactly as intra-community wiring uses it.
	{
		members := make([]uint32, span)
		for i := range members {
			members[i] = uint32(1000 + i*7)
		}
		dd := new(edgeDedup)
		fast := table.NewEdgeTable("fast", 0)
		stubsA := append([]int64(nil), stubs...)
		pairStubsDirect(xrand.NewSeq(seed), dd, fast, stubsA, members, 8)

		naive := table.NewEdgeTable("naive", 0)
		stubsB := append([]int64(nil), stubs...)
		naivePairStubsDirect(xrand.NewSeq(seed), naive, stubsB, members, 8)
		assertSameEdges(t, "direct", naive, fast)
	}

	// Dedup state must also survive reuse: a second phase on the same
	// edgeDedup after reset() must behave like a fresh reference.
	{
		dd := new(edgeDedup)
		fast := table.NewEdgeTable("fast", 0)
		pairStubsFiltered(xrand.NewSeq(seed), dd, fast, append([]int64(nil), stubs...), 4, nil)
		dd.reset()
		pairStubsFiltered(xrand.NewSeq(seed+1), dd, fast, append([]int64(nil), stubs...), 4, nil)

		naive := table.NewEdgeTable("naive", 0)
		naivePairStubsFiltered(xrand.NewSeq(seed), naive, append([]int64(nil), stubs...), 4, nil)
		naivePairStubsFiltered(xrand.NewSeq(seed+1), naive, append([]int64(nil), stubs...), 4, nil)
		assertSameEdges(t, "reset-reuse", naive, fast)
	}
}

// FuzzEdgeDedup go-fuzzes the batched dedup against the map reference.
func FuzzEdgeDedup(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(4), false)
	f.Add(uint64(2), []byte{1, 1, 1, 1, 1, 2}, uint8(2), true)
	f.Add(uint64(3), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3}, uint8(8), true)
	f.Add(uint64(99), []byte{}, uint8(3), false)
	f.Fuzz(func(t *testing.T, seed uint64, data []byte, span uint8, withFilter bool) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		checkDedupAgainstReference(t, seed, data, span, withFilter)
	})
}

// TestEdgeDedupAgainstReference runs the fuzz body over deterministic
// batches so the equivalence is exercised on every ordinary `go test`.
func TestEdgeDedupAgainstReference(t *testing.T) {
	q := xrand.NewSeq(42)
	for trial := 0; trial < 50; trial++ {
		n := int(q.Intn(400))
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(q.Intn(256))
		}
		span := uint8(2 + q.Intn(40))
		checkDedupAgainstReference(t, uint64(trial)*13+7, data, span, trial%2 == 0)
	}
}
