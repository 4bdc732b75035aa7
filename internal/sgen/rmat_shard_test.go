package sgen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// rmatConfigs cross the two draw kernels (the alias tables, or per
// level when Noise is set) with the two resolve passes (dedup, or slab
// order with KeepDuplicates). All four fill the same candidate slab; at
// a non-power-of-two n each also cycle-walks out-of-range ids.
func rmatConfigs() map[string]func() *RMAT {
	return map[string]func() *RMAT{
		"default": func() *RMAT { return NewRMAT(21) },
		"noise": func() *RMAT {
			g := NewRMAT(22)
			g.Noise = 0.1
			return g
		},
		"keepDuplicates": func() *RMAT {
			g := NewRMAT(23)
			g.KeepDuplicates = true
			return g
		},
		"noisyKeepDuplicates": func() *RMAT {
			g := NewRMAT(24)
			g.Noise = 0.05
			g.KeepDuplicates = true
			return g
		},
	}
}

func edgeTableSHA256(et *table.EdgeTable) string {
	h := sha256.New()
	var buf [16]byte
	for i := range et.Tail {
		binary.LittleEndian.PutUint64(buf[:8], uint64(et.Tail[i]))
		binary.LittleEndian.PutUint64(buf[8:], uint64(et.Head[i]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRMATGoldenHash pins the exact edge table of a fixed
// configuration. A change here means the generator's output changed
// for existing seeds — an intentional break of the per-seed
// reproducibility contract that must be called out in release notes
// (as the sharded rewrite itself was).
func TestRMATGoldenHash(t *testing.T) {
	const want = "204a64c5f795d880a44a524b64524ddc664762552019e9a9bfd24d941af77b24"
	et, err := NewRMAT(7).Run(1 << 12)
	if err != nil {
		t.Fatal(err)
	}
	if got := edgeTableSHA256(et); got != want {
		t.Fatalf("edge table hash %s, want %s", got, want)
	}
}

// TestRMATConfigsPinned pins the exact edge table of every
// rmatConfigs entry, at a power-of-two node count and at one that
// cycle-walks out-of-range ids (3000), so a change to any draw or
// resolve path shows here, not only in the default configuration.
func TestRMATConfigsPinned(t *testing.T) {
	want := map[string][2]string{
		"default": {
			"26ac0878022edbdcd6b9d951d92e659c30337c53ac1b2b53173e5a48ec5013d4",
			"f9c602b3f693487c95f2b293b7261e2fb44975c629374b42b120ef022800160d",
		},
		"noise": {
			"8f40d53f887f863628e002ceb8f9a5fb175cd249ee5190e130c40412efc7bdc5",
			"949d5e6ea2af110555a20a841327a5eebd633e2acb0ecb124d217e7ece263754",
		},
		"keepDuplicates": {
			"886c7672409843e663146807b5a0adf957216f9ed482f4c6c13cd7a4dfe4907a",
			"21866ef19057fbdce6082e640f1ca7ef2777879aa9c5979ec06299c54d05f260",
		},
		"noisyKeepDuplicates": {
			"5b26338e21bbcd63e1099b7fa83c8ff581d3c51a293ea00f42295651a4c2f400",
			"0cbf9ffe9267edf734992084a22db88a71f18d4684d93c4e943a0568f07fe724",
		},
	}
	for name, mk := range rmatConfigs() {
		for i, n := range []int64{1 << 12, 3000} {
			et, err := mk().Run(n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if got := edgeTableSHA256(et); got != want[name][i] {
				t.Errorf("%s n=%d: edge table hash %s, want %s", name, n, got, want[name][i])
			}
		}
	}
}

// TestRMATQuadrantSkewShardedAndReference: the A quadrant
// (low-id half on both endpoints) must dominate the D quadrant on
// both draw kernels — the alias tables and the per-level Noise draw.
func TestRMATQuadrantSkewShardedAndReference(t *testing.T) {
	check := func(name string, g *RMAT) {
		n := int64(1 << 12)
		et, err := g.Run(n)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		half := n / 2
		var aa, dd int64
		for i := range et.Tail {
			lowT, lowH := int64(et.Tail[i]) < half, int64(et.Head[i]) < half
			switch {
			case lowT && lowH:
				aa++
			case !lowT && !lowH:
				dd++
			}
		}
		if aa < 4*dd {
			t.Fatalf("%s: A corner %d not dominant over D corner %d", name, aa, dd)
		}
	}
	check("alias", NewRMAT(31))
	noisy := NewRMAT(31)
	noisy.Noise = 0.05
	check("per-level", noisy)
}

// TestRMATEdgeFactorAndSimpleGraph: every configuration must hit the
// exact edge target, and the default (dedup) configurations must emit
// a simple graph — no self-loops, no repeated undirected pairs.
func TestRMATEdgeFactorAndSimpleGraph(t *testing.T) {
	for name, mk := range rmatConfigs() {
		for _, n := range []int64{1 << 12, 3000} {
			g := mk()
			et, err := g.Run(n)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			if et.Len() != g.EdgeFactor*n {
				t.Fatalf("%s n=%d: %d edges, want %d", name, n, et.Len(), g.EdgeFactor*n)
			}
			for i := range et.Tail {
				if int64(et.Tail[i]) >= n || int64(et.Head[i]) >= n {
					t.Fatalf("%s n=%d: edge %d endpoint out of range: (%d,%d)", name, n, i, et.Tail[i], et.Head[i])
				}
			}
			if g.KeepDuplicates {
				continue
			}
			seen := make(map[uint64]struct{}, et.Len())
			for i := range et.Tail {
				if et.Tail[i] == et.Head[i] {
					t.Fatalf("%s n=%d: self-loop at %d", name, n, et.Tail[i])
				}
				key := packEdgeKey(int64(et.Tail[i]), int64(et.Head[i]))
				if _, dup := seen[key]; dup {
					t.Fatalf("%s n=%d: duplicate edge (%d,%d)", name, n, et.Tail[i], et.Head[i])
				}
				seen[key] = struct{}{}
			}
		}
	}
}

// TestRMATAliasOutcomeDistribution validates the alias sampler against
// the closed-form outcome probabilities: a remainder-only table
// (scale 2: 16 outcomes) sampled heavily must reproduce each
// outcome's product probability, and on a block-path table (scale 8)
// every level's tail/head-bit marginal must match C+D and B+D.
func TestRMATAliasOutcomeDistribution(t *testing.T) {
	a, b, c, d := 0.57, 0.19, 0.19, 0.05
	p := [4]float64{a, b, c, d}

	// Remainder path, exact per-outcome check.
	{
		al := newRMATAlias(a, b, c, d, 2)
		const draws = 1 << 19
		slab := make([]uint64, draws)
		drawShardAlias(xrand.NewSeq(99), slab, al)
		counts := make([]int64, 16)
		for _, k := range slab {
			counts[k>>32*4+k&0xffffffff]++
		}
		for th := 0; th < 16; th++ {
			tt, hh := th/4, th%4
			want := 1.0
			for lvl := 1; lvl >= 0; lvl-- {
				qd := (tt>>lvl&1)<<1 | hh>>lvl&1
				want *= p[qd]
			}
			got := float64(counts[th]) / draws
			if diff := got - want; diff > 0.01 || diff < -0.01 {
				t.Fatalf("outcome (%d,%d): frequency %.4f, want %.4f", tt, hh, got, want)
			}
		}
	}

	// Block path, per-level marginals.
	{
		al := newRMATAlias(a, b, c, d, 8)
		const draws = 1 << 19
		slab := make([]uint64, draws)
		drawShardAlias(xrand.NewSeq(100), slab, al)
		for lvl := 0; lvl < 8; lvl++ {
			var tSet, hSet uint64
			for _, k := range slab {
				tSet += k >> (32 + lvl) & 1
				hSet += k >> lvl & 1
			}
			tGot, hGot := float64(tSet)/draws, float64(hSet)/draws
			if diff := tGot - (c + d); diff > 0.01 || diff < -0.01 {
				t.Fatalf("level %d: tail-bit marginal %.4f, want %.4f", lvl, tGot, c+d)
			}
			if diff := hGot - (b + d); diff > 0.01 || diff < -0.01 {
				t.Fatalf("level %d: head-bit marginal %.4f, want %.4f", lvl, hGot, b+d)
			}
		}
	}
}

// TestRMATRunNote: sharding telemetry must reach the engine's timing
// report via the Noter interface.
func TestRMATRunNote(t *testing.T) {
	g := NewRMAT(12)
	if _, err := g.Run(1 << 10); err != nil {
		t.Fatal(err)
	}
	var _ Noter = g
	note := g.RunNote()
	if note == "" {
		t.Fatal("empty RunNote after Run")
	}
	t.Logf("note: %s", note)
}

// naiveDedupRound is the reference semantics of one appendDeduped
// round: filter self-loops and out-of-range endpoints, drop keys
// duplicated within the round or accepted by any earlier round, and
// emit winners in sorted key order up to limit. It reports whether the
// round exhausted its limit: such a round is the last one runSharded
// runs (its table is full), so the dedup need not record its winners
// and the checks stop after it.
func naiveDedupRound(accepted map[uint64]struct{}, et *table.EdgeTable, tails, heads []int64, n, limit int64) (last bool) {
	inRound := map[uint64]struct{}{}
	var fresh []uint64
	for i := range tails {
		t, h := tails[i], heads[i]
		if t == h || t >= n || h >= n {
			continue
		}
		key := packEdgeKey(t, h)
		if _, dup := accepted[key]; dup {
			continue
		}
		if _, dup := inRound[key]; dup {
			continue
		}
		inRound[key] = struct{}{}
		fresh = append(fresh, key)
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i] < fresh[j] })
	for _, key := range fresh {
		if limit == 0 {
			break
		}
		et.Add(int64(key>>32), int64(key&0xffffffff))
		limit--
		accepted[key] = struct{}{}
	}
	return limit == 0
}

// checkRMATDedupAgainstReference drives appendDeduped through
// multiple rounds over fuzz-derived raw tail<<32|head candidates — tail
// above head as often as below, so the in-place canonicalisation is
// exercised — up to the first round that exhausts its limit, and
// compares the result with the map reference. span bounds the id
// universe — small spans maximise duplicate and self-loop pressure;
// n < span forces out-of-range rejections.
func checkRMATDedupAgainstReference(t *testing.T, data []byte, span uint8, n int64, limits []int64) {
	if span < 2 {
		span = 2
	}
	if n < 2 {
		n = 2
	}
	if len(data)%2 == 1 {
		data = data[:len(data)-1]
	}
	nCand := len(data) / 2
	tails := make([]int64, nCand)
	heads := make([]int64, nCand)
	for i := 0; i < nCand; i++ {
		tails[i] = int64(data[2*i]) % int64(span)
		heads[i] = int64(data[2*i+1]) % int64(span)
	}

	dd := new(edgeDedup)
	fast := table.NewEdgeTable("fast", 0)
	naive := table.NewEdgeTable("naive", 0)
	accepted := map[uint64]struct{}{}
	// Rounds split the candidates in half so the accepted set and both
	// merge paths (in-place and reallocating) see action.
	half := nCand / 2
	bounds := [][2]int{{0, half}, {half, nCand}}
	for r, lim := range limits {
		lo, hi := bounds[r%2][0], bounds[r%2][1]
		slab := make([]uint64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			slab = append(slab, uint64(tails[i])<<32|uint64(heads[i]))
		}
		dd.appendDeduped(fast, slab, n, lim)
		if naiveDedupRound(accepted, naive, tails[lo:hi], heads[lo:hi], n, lim) {
			break
		}
	}
	assertSameEdges(t, "dedup", naive, fast)
}

// FuzzRMATDedup go-fuzzes the sharded-RMAT dedup rounds against the
// map reference.
func FuzzRMATDedup(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 1, 0}, uint8(4), int64(4), int64(100), int64(100))
	f.Add([]byte{1, 1, 1, 1, 9, 9}, uint8(8), int64(5), int64(1), int64(0))
	f.Add([]byte{}, uint8(2), int64(2), int64(3), int64(3))
	f.Fuzz(func(t *testing.T, data []byte, span uint8, n, lim1, lim2 int64) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		if n < 0 || n > 1<<31 {
			n = 16
		}
		if lim1 < 0 {
			lim1 = -lim1
		}
		if lim2 < 0 {
			lim2 = -lim2
		}
		checkRMATDedupAgainstReference(t, data, span, n, []int64{lim1, lim2, 1 << 30})
	})
}

// TestRMATDedupAgainstReference runs the fuzz body over deterministic
// batches on every ordinary `go test`.
func TestRMATDedupAgainstReference(t *testing.T) {
	q := xrand.NewSeq(17)
	for trial := 0; trial < 60; trial++ {
		data := make([]byte, int(q.Intn(500)))
		for i := range data {
			data[i] = byte(q.Intn(256))
		}
		span := uint8(2 + q.Intn(30))
		n := 2 + q.Intn(40)
		limits := []int64{q.Intn(200), q.Intn(4), 1 << 30}
		checkRMATDedupAgainstReference(t, data, span, n, limits)
	}
}

// TestRMATDedupBuffers pins the dedup's memory shape: a round's one big
// buffer — the slab, filtered, sorted and compacted in place — beside a
// leaf-sized sort scratch, where it used to hold four (slab, filtered
// copy, radix scratch, winner list) and then two (slab, radix scratch),
// and no merge in the round that fills the table.
func TestRMATDedupBuffers(t *testing.T) {
	// Allocations outside the edge table (8 bytes an edge), in 8-byte
	// words per drawn key: the slab and a round-sized radix scratch read
	// 1.97 at scale 16 and 1.85 at scale 18; the slab and the leaf
	// scratch read about 1.24 and 1.06. Noise and KeepDuplicates fill
	// the same slab (they read 2.75 and 2.00 words while they drew into
	// two int64 slices and Noise copied the keys out).
	for _, c := range []struct {
		name  string
		scale uint
		words float64
	}{{"default", 16, 1.4}, {"default", 18, 1.2}, {"noise", 18, 1.2}, {"keepDuplicates", 18, 1.2}} {
		g := rmatConfigs()[c.name]()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		et, err := g.Run(1 << c.scale)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		scratch := float64(after.TotalAlloc-before.TotalAlloc) - 8*float64(cap(et.Tail))
		perKey := scratch / 8 / float64(g.lastStats.draws)
		t.Logf("%s scale %d: %.2f words per drawn key outside the edge table", c.name, c.scale, perKey)
		if perKey >= c.words {
			t.Errorf("%s scale-%d run allocated %.2f words per drawn key outside the edge table, want < %v", c.name, c.scale, perKey, c.words)
		}
	}

	// Rounds reuse the buffer resolveRound hands back, as runSharded
	// does. Nothing handed back, and no scratch kept, may share memory
	// with the accepted set: the next round's fill or sort would corrupt
	// it and a duplicate would slip through. Ids drawn from a small
	// range force duplicates within and across rounds, the merge of the
	// second round outgrows the first round's slab, and the last round
	// stops at its limit; the map reference decides.
	overlaps := func(a, b []uint64) bool {
		if cap(a) == 0 || cap(b) == 0 {
			return false
		}
		a0, b0 := uintptr(unsafe.Pointer(&a[:1][0])), uintptr(unsafe.Pointer(&b[:1][0]))
		return a0 < b0+8*uintptr(cap(b)) && b0 < a0+8*uintptr(cap(a))
	}
	const n = 200
	q := xrand.NewSeq(5)
	dd := new(edgeDedup)
	fast := table.NewEdgeTable("fast", 0)
	naive := table.NewEdgeTable("naive", 0)
	accepted := map[uint64]struct{}{}
	var slab []uint64
	for round, draws := range []int{300, 64, 5000, 40, 2000} {
		if cap(slab) < draws {
			slab = make([]uint64, draws)
		}
		slab = slab[:draws]
		tails, heads := make([]int64, draws), make([]int64, draws)
		for i := range slab {
			tails[i], heads[i] = q.Intn(n+2), q.Intn(n+2) // some out of range
			slab[i] = uint64(tails[i])<<32 | uint64(heads[i])
		}
		limit := int64(1 << 30)
		if round == 4 {
			limit = 100
		}
		slab = dd.appendDeduped(fast, slab, n, limit)
		last := naiveDedupRound(accepted, naive, tails, heads, n, limit)
		if len(dd.accepted) == 0 {
			t.Fatalf("round %d: empty accepted set", round)
		}
		for name, buf := range map[string][]uint64{"returned slab": slab, "leaf scratch": dd.leaf, "merge scratch": dd.merged} {
			if overlaps(buf, dd.accepted) {
				t.Fatalf("round %d: %s shares memory with the accepted set", round, name)
			}
		}
		if last != (round == 4) {
			t.Fatalf("round %d: limit exhausted = %v", round, last)
		}
	}
	if dd.merged == nil {
		t.Fatal("no merge outgrew the accepted set: the merge scratch went unchecked")
	}
	assertSameEdges(t, "slab reuse", naive, fast)
}

// checkSortKeysInPlace builds keys from raw bytes, eight a key, under a
// live mask (fill supplies the bits outside it), sorts them in place
// with the given leaf size and compares the result with slices.Sort.
func checkSortKeysInPlace(t *testing.T, data []byte, mask, fill uint64, leaf int) {
	keys := make([]uint64, 0, (len(data)+7)/8)
	for i := 0; i < len(data); i += 8 {
		var raw [8]byte
		copy(raw[:], data[i:])
		keys = append(keys, binary.LittleEndian.Uint64(raw[:])&mask|fill&^mask)
	}
	want := slices.Clone(keys)
	slices.Sort(want)
	new(edgeDedup).sortKeysInPlace(keys, leaf)
	if !slices.Equal(keys, want) {
		t.Fatalf("mask %#x, leaf %d, %d keys: in-place sort differs from slices.Sort", mask, leaf, len(keys))
	}
}

// rmatKeyMask is the live mask of scale-18 candidate keys: two runs of
// 18 bits.
const rmatKeyMask = (1<<18-1)<<32 | (1<<18 - 1)

// FuzzSortKeysInPlace go-fuzzes the in-place key sort against
// slices.Sort. The leaf size is an argument, so the fuzzer's small
// inputs reach the American-flag passes and their recursion.
func FuzzSortKeysInPlace(f *testing.F) {
	seq := make([]byte, 1<<12)
	for i := range seq {
		seq[i] = byte(i*131 + i>>8)
	}
	f.Add(seq, uint64(0), uint64(0xdeadbeef), uint8(1))    // all keys equal
	f.Add(seq, uint64(1)<<40, uint64(0), uint8(3))         // a single live bit
	f.Add(seq, ^uint64(1<<33-1), uint64(0x1234), uint8(5)) // live bits above bit 32 only
	f.Add(seq, uint64(rmatKeyMask), ^uint64(0), uint8(16)) // RMAT's two 18-bit runs
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 1}, ^uint64(0), uint64(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, mask, fill uint64, leaf uint8) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		checkSortKeysInPlace(t, data, mask, fill, 1+int(leaf%64))
	})
}

// TestSortKeysInPlace runs the fuzz body over fixed batches on every
// ordinary `go test`, and sorts one 2^20-key slab of scale-18 RMAT keys
// at the production leaf size.
func TestSortKeysInPlace(t *testing.T) {
	q := xrand.NewSeq(29)
	masks := []uint64{0, 1, 1 << 63, ^uint64(1<<33 - 1), rmatKeyMask, 0xff00ff, ^uint64(0)}
	for trial := 0; trial < 80; trial++ {
		// Small byte alphabets make keys that tie on most live bits.
		data, alphabet := make([]byte, int(q.Intn(1<<12))), []int64{2, 3, 16, 256}[trial%4]
		for i := range data {
			data[i] = byte(q.Intn(alphabet))
		}
		checkSortKeysInPlace(t, data, masks[trial%len(masks)], uint64(q.Intn(1<<62)), 1+int(q.Intn(64)))
	}

	slab := make([]uint64, 1<<20)
	drawShardAlias(xrand.NewSeq(3), slab, newRMATAlias(0.57, 0.19, 0.19, 0.05, 18))
	want := slices.Clone(slab)
	slices.Sort(want)
	new(edgeDedup).sortKeysInPlace(slab, sortLeafKeys)
	if !slices.Equal(slab, want) {
		t.Fatal("2^20 RMAT keys: in-place sort differs from slices.Sort")
	}
}

// BenchmarkRMATScale18 is the bench workload's structure task
// (cli-rmat-columnar: scale 18, edge factor 16). B/op is
// the number to watch: the edge table is 32 MB of it, the rest is
// dedup scratch.
func BenchmarkRMATScale18(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRMAT(uint64(i)).Run(1 << 18); err != nil {
			b.Fatal(err)
		}
	}
}
