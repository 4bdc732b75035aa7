package sgen

import (
	"fmt"
	"testing"
)

func TestPowerLawOutFreshHeads(t *testing.T) {
	g := NewPowerLawOut(1, 10, 2.0, 7)
	et, err := g.RunBipartite(500, -1)
	if err != nil {
		t.Fatal(err)
	}
	// Every head id must be unique and dense [0, m) — one Message per
	// creates edge.
	seen := make(map[uint32]bool, et.Len())
	var maxHead int64 = -1
	for i := int64(0); i < et.Len(); i++ {
		h := et.Head[i]
		if seen[h] {
			t.Fatalf("head %d repeated", h)
		}
		seen[h] = true
		if int64(h) > maxHead {
			maxHead = int64(h)
		}
	}
	if maxHead+1 != et.Len() {
		t.Errorf("heads not dense: max %d, edges %d", maxHead, et.Len())
	}
	if et.MaxNode() < et.Len() {
		t.Errorf("MaxNode = %d", et.MaxNode())
	}
}

func TestPowerLawOutEveryTailHasEdges(t *testing.T) {
	g := NewPowerLawOut(1, 5, 2.0, 3)
	et, err := g.RunBipartite(200, -1)
	if err != nil {
		t.Fatal(err)
	}
	outDeg := make(map[uint32]int)
	for i := int64(0); i < et.Len(); i++ {
		outDeg[et.Tail[i]]++
	}
	for tail := uint32(0); tail < 200; tail++ {
		d := outDeg[tail]
		if d < 1 || d > 5 {
			t.Fatalf("tail %d has out-degree %d outside [1,5]", tail, d)
		}
	}
}

func TestPowerLawOutDeterministic(t *testing.T) {
	a, _ := NewPowerLawOut(1, 8, 1.5, 4).RunBipartite(100, -1)
	b, _ := NewPowerLawOut(1, 8, 1.5, 4).RunBipartite(100, -1)
	if a.Len() != b.Len() {
		t.Fatal("non-deterministic length")
	}
	for i := int64(0); i < a.Len(); i++ {
		if a.Tail[i] != b.Tail[i] || a.Head[i] != b.Head[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

func TestPowerLawOutNumTails(t *testing.T) {
	g := NewPowerLawOut(2, 2, 1.0, 9) // exactly 2 per tail
	n, err := g.NumTailsForEdges(1000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("NumTailsForEdges = %d, want 500", n)
	}
	et, err := g.RunBipartite(n, -1)
	if err != nil {
		t.Fatal(err)
	}
	if et.Len() != 1000 {
		t.Errorf("edges = %d, want 1000", et.Len())
	}
}

func TestPowerLawOutValidation(t *testing.T) {
	if _, err := NewPowerLawOut(1, 5, 2, 1).RunBipartite(0, -1); err == nil {
		t.Error("nTail=0 should fail")
	}
	if _, err := NewPowerLawOut(5, 2, 2, 1).RunBipartite(10, -1); err == nil {
		t.Error("min>max should fail")
	}
}

func TestZipfAttachmentRanges(t *testing.T) {
	g := NewZipfAttachment(1, 10, 2.0, 1.0, 5)
	et, err := g.RunBipartite(400, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := et.Validate(400, 100); err != nil {
		t.Fatal(err)
	}
	if et.Len() == 0 {
		t.Fatal("no edges")
	}
}

func TestZipfAttachmentSkewedPopularity(t *testing.T) {
	g := NewZipfAttachment(3, 10, 2.0, 1.2, 5)
	et, err := g.RunBipartite(2000, 200)
	if err != nil {
		t.Fatal(err)
	}
	inDeg := make([]int64, 200)
	for i := int64(0); i < et.Len(); i++ {
		inDeg[et.Head[i]]++
	}
	var maxIn, sum int64
	for _, d := range inDeg {
		if d > maxIn {
			maxIn = d
		}
		sum += d
	}
	avg := float64(sum) / 200
	if float64(maxIn) < 3*avg {
		t.Errorf("max in-degree %d vs avg %.1f: popularity not skewed", maxIn, avg)
	}
}

func TestZipfAttachmentNoDuplicatePerTail(t *testing.T) {
	g := NewZipfAttachment(5, 8, 2.0, 1.0, 5)
	et, err := g.RunBipartite(50, 30)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ t, h uint32 }
	seen := map[pair]bool{}
	for i := int64(0); i < et.Len(); i++ {
		p := pair{et.Tail[i], et.Head[i]}
		if seen[p] {
			t.Fatalf("duplicate edge %v", p)
		}
		seen[p] = true
	}
}

func TestZipfAttachmentValidation(t *testing.T) {
	if _, err := NewZipfAttachment(1, 5, 2, 1, 1).RunBipartite(0, 10); err == nil {
		t.Error("nTail=0 should fail")
	}
	if _, err := NewZipfAttachment(1, 5, 2, 1, 1).RunBipartite(10, 0); err == nil {
		t.Error("nHead=0 should fail")
	}
}

func TestOneToOnePerfectMatching(t *testing.T) {
	g := &OneToOne{Seed: 3}
	et, err := g.RunBipartite(100, -1)
	if err != nil {
		t.Fatal(err)
	}
	if et.Len() != 100 {
		t.Fatalf("edges = %d, want 100", et.Len())
	}
	seenT, seenH := map[uint32]bool{}, map[uint32]bool{}
	for i := int64(0); i < 100; i++ {
		if seenT[et.Tail[i]] || seenH[et.Head[i]] {
			t.Fatalf("edge %d reuses an endpoint", i)
		}
		seenT[et.Tail[i]] = true
		seenH[et.Head[i]] = true
	}
}

func TestOneToOneMismatchedDomains(t *testing.T) {
	g := &OneToOne{Seed: 3}
	if _, err := g.RunBipartite(10, 20); err == nil {
		t.Error("unequal domains should fail")
	}
	if n, err := g.NumTailsForEdges(50); err != nil || n != 50 {
		t.Errorf("NumTailsForEdges = %d, %v", n, err)
	}
}

func TestUniformBipartite(t *testing.T) {
	g := &UniformBipartite{AvgOut: 3, Seed: 9}
	et, err := g.RunBipartite(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if et.Len() != 300 {
		t.Errorf("edges = %d, want 300", et.Len())
	}
	if err := et.Validate(100, 50); err != nil {
		t.Fatal(err)
	}
	n, err := g.NumTailsForEdges(3000)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Errorf("NumTailsForEdges = %d, want 1000", n)
	}
}

func TestUniformBipartiteValidation(t *testing.T) {
	g := &UniformBipartite{AvgOut: 0, Seed: 1}
	if _, err := g.RunBipartite(10, 10); err == nil {
		t.Error("AvgOut=0 should fail")
	}
}

func TestSearchNodesForEdgesMonotone(t *testing.T) {
	n, err := searchNodesForEdges(1000, func(n int64) float64 { return float64(n) * 2 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Errorf("inverse of 2n at 1000 = %d, want 500", n)
	}
	if _, err := searchNodesForEdges(0, func(n int64) float64 { return float64(n) }); err == nil {
		t.Error("numEdges=0 should fail")
	}
}

// TestZipfAttachmentRunNote: the kernel's telemetry reaches the
// engine's timing report via the Noter interface, and its counts add
// up: every draw is an edge or a duplicate, and no more ranks were
// walked than drawn or than exist.
func TestZipfAttachmentRunNote(t *testing.T) {
	g := NewZipfAttachment(1, 10, 2.0, 1.0, 5)
	var _ Noter = g
	if g.RunNote() != "" {
		t.Errorf("RunNote before any run = %q, want none", g.RunNote())
	}
	et, err := g.RunBipartite(400, 100)
	if err != nil {
		t.Fatal(err)
	}
	var draws, dups, ranks int64
	if _, err := fmt.Sscanf(g.RunNote(), "zipf-attachment %d draws, %d duplicate, %d ranks memoised", &draws, &dups, &ranks); err != nil {
		t.Fatalf("RunNote = %q: %v", g.RunNote(), err)
	}
	if draws-dups != et.Len() || dups == 0 || ranks < 1 || ranks > 100 || ranks > draws {
		t.Errorf("%q with %d edges over 100 heads: counts do not add up", g.RunNote(), et.Len())
	}
}

// TestZipfAttachmentGolden pins the edge table of zipf-attachment to
// the bytes of the loop it replaced (a map per tail, a Feistel walk and
// a full binary search per draw): the hashes were taken from that code
// before the memoised kernel was written. The rows cover the shapes the
// kernel branches on — a single head, fewer heads than MaxOut (every
// tail saturates, the duplicate scan dominates), the bench workload's
// 300k/30k, and head domains past the 2^20 support cap, up to the
// largest a uint32 id holds (2^32−1, where ids use the top bit; the
// hash of that row was taken from the int64 edge table).
func TestZipfAttachmentGolden(t *testing.T) {
	cases := []struct {
		seed         uint64
		nTail, nHead int64
		min, max     int
		gamma, theta float64
		edges        int64
		want         string
	}{
		{1, 500, 1, 1, 20, 2, 1, 500, "d12f5b32d5343a84ab496ee47ec1f18b9bdd1c135bb56b484184c167c622da5e"},
		{2, 400, 5, 1, 20, 1.2, 1, 926, "acba1b6ac41ec88c801ff2b09773ffe8caba7e7a07485a1bf403296ab74c9d11"},
		{3, 300, 7, 8, 30, 0.5, 0.3, 1843, "71d81f770978c7f26cae7e2a4e83b284d27d85d0a5a6272a59266cd7c8cc2d0f"},
		{4, 300000, 30000, 1, 20, 2, 1, 658683, "714e9b4de1bda7fc79cc736166d07c45936cefd8be8c777ea22d1993285dfa88"},
		{5, 20000, 30000, 1, 20, 2, 1, 44000, "d2e6155d1a0fca6db671881b2caa83b3dfe85c342524bf950759a1ba22d368d3"},
		{6, 5000, 1000, 0, 12, 1.5, 2.5, 7358, "e48459281dc44981a2a52fae858bfd3255ef5ecf6e26f98cc4469389ae2da24d"},
		{7, 3000, 1<<20 + 12345, 2, 40, 1.1, 0.6, 33680, "a643ab8571bbe09be73038ce4edd289745b632cd640e5bf44e0f05fd57ee03fe"},
		{8, 2000, 1<<32 - 1, 1, 20, 2, 0.2, 4711, "c47023e157e63f122fe750997794cc2676d4950db0bc7e538b0058c2c33c6847"},
	}
	for _, c := range cases {
		et, err := NewZipfAttachment(c.min, c.max, c.gamma, c.theta, c.seed).RunBipartite(c.nTail, c.nHead)
		if err != nil {
			t.Fatalf("seed %d: %v", c.seed, err)
		}
		if got := edgeTableSHA256(et); et.Len() != c.edges || got != c.want {
			t.Errorf("seed %d (%d tails, %d heads): %d edges hash %s, want %d edges hash %s",
				c.seed, c.nTail, c.nHead, et.Len(), got, c.edges, c.want)
		}
	}
}

// BenchmarkZipfAttachment times the kernel at the shape of the bench
// recommender workload (svc-cold-jsonl): 300k tails, 30k heads,
// defaults. Run with -benchmem: the edge table is two allocations and
// the rank memo, CDFs and guide tables a handful more.
func BenchmarkZipfAttachment(b *testing.B) {
	b.ReportAllocs()
	var edges int64
	for i := 0; i < b.N; i++ {
		et, err := NewZipfAttachment(1, 20, 2.0, 1.0, uint64(i)).RunBipartite(300000, 30000)
		if err != nil {
			b.Fatal(err)
		}
		edges = et.Len()
	}
	b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
