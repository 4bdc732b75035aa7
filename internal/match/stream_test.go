package match

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"

	"datasynth/internal/graph"
	"datasynth/internal/sgen"
	"datasynth/internal/stats"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// sha256Int64 fingerprints assignment and mapping vectors, in order,
// each value as 8 little-endian bytes whatever its width, so the pins
// taken when these vectors were int64 hold for the uint32 ones.
func sha256Int64[T int64 | uint32](vecs ...[]T) string {
	h := sha256.New()
	var buf [8]byte
	for _, vec := range vecs {
		for _, v := range vec {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// widen returns an assignment as the []int64 labels stats.EmpiricalJoint
// and EmpiricalBipartite take.
func widen(assign []uint32) []int64 {
	labels := make([]int64, len(assign))
	for v, a := range assign {
		labels[v] = int64(a)
	}
	return labels
}

// equalSizes splits n rows into k groups, the remainder going to group 0.
func equalSizes(n int64, k int) []int64 {
	sizes := make([]int64, k)
	for i := range sizes {
		sizes[i] = n / int64(k)
	}
	sizes[0] += n - sizes[0]*int64(k)
	return sizes
}

func homophilyTarget(t testing.TB, sizes []int64, h float64) *stats.Joint {
	t.Helper()
	target, err := stats.HomophilyJoint(sizes, h)
	if err != nil {
		t.Fatal(err)
	}
	return target
}

// monoFixture is a monopartite edge table over n nodes, its full CSR,
// and a homophilous target/capacity pair.
type monoFixture struct {
	et     *table.EdgeTable
	n      int64
	g      *graph.Graph
	target *stats.Joint
	sizes  []int64
}

func newMonoFixture(t testing.TB, et *table.EdgeTable, err error, n int64, sizes []int64, h float64) *monoFixture {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgeTable(et, n)
	if err != nil {
		t.Fatal(err)
	}
	return &monoFixture{et: et, n: n, g: g, target: homophilyTarget(t, sizes, h), sizes: sizes}
}

// rowLabels is a property column whose value frequencies are the
// fixture's capacities.
func (f *monoFixture) rowLabels() []int64 {
	labels := make([]int64, 0, f.n)
	for v, sz := range f.sizes {
		for range sz {
			labels = append(labels, int64(v))
		}
	}
	return labels
}

// lfrFixture builds an LFR graph plus a homophilous target/capacity
// pair.
func lfrFixture(t testing.TB, n int64, k int) *monoFixture {
	t.Helper()
	et, err := sgen.NewLFR(17).Run(n)
	return newMonoFixture(t, et, err, n, equalSizes(n, k), 0.8)
}

// rmatFixture is the skewed counterpart: a few hubs with very long
// neighbour lists.
func rmatFixture(t testing.TB, scale uint, k int) *monoFixture {
	t.Helper()
	n := int64(1) << scale
	et, err := sgen.NewRMAT(29).Run(n)
	return newMonoFixture(t, et, err, n, equalSizes(n, k), 0.7)
}

// isolatedFixture builds a graph whose second half is isolated nodes,
// with total capacity exactly n — so late isolated placements exhaust
// group quotas and exercise refinement's first-feasible fallback.
func isolatedFixture(t testing.TB, n int64, k int) *monoFixture {
	t.Helper()
	et := table.NewEdgeTable("iso", n)
	for v := int64(1); v < n/2; v++ {
		et.Add(v-1, v) // a path through the first half
		et.Add(v%7, v) // plus some chords for group structure
	}
	// Tight, skewed capacities summing exactly to n.
	sizes := make([]int64, k)
	rem := n
	for i := 0; i < k-1; i++ {
		sizes[i] = rem / 3
		rem -= sizes[i]
	}
	sizes[k-1] = rem
	return newMonoFixture(t, et, nil, n, sizes, 0.7)
}

// bipFixture is a bipartite edge table with row labellings for both
// domains and the joint they induce as the matching target.
type bipFixture struct {
	et                     *table.EdgeTable
	nTail, nHead           int64
	tailLabels, headLabels []int64
	target                 *stats.Joint
}

func newBipFixture(t testing.TB, et *table.EdgeTable, nTail, nHead int64, kt, kh int) *bipFixture {
	t.Helper()
	f := &bipFixture{et: et, nTail: nTail, nHead: nHead, tailLabels: make([]int64, nTail), headLabels: make([]int64, nHead)}
	for i := range f.tailLabels {
		f.tailLabels[i] = int64(i % kt)
	}
	for i := range f.headLabels {
		f.headLabels[i] = int64(i % kh)
	}
	var err error
	if f.target, err = EmpiricalBipartite(et, f.tailLabels, f.headLabels, kt, kh); err != nil {
		t.Fatal(err)
	}
	return f
}

// zipfFixture is a *→* edge table from Zipf attachment: skewed
// out-degrees and head popularity.
func zipfFixture(t testing.TB, nTail, nHead int64, kt, kh int) *bipFixture {
	t.Helper()
	et, err := sgen.NewZipfAttachment(1, 12, 2.2, 1.1, 41).RunBipartite(nTail, nHead)
	if err != nil {
		t.Fatal(err)
	}
	return newBipFixture(t, et, nTail, nHead, kt, kh)
}

// messyBipartite is a small random bipartite multigraph with hub heads,
// parallel edges and a tenth of each domain isolated.
func messyBipartite(t testing.TB, nTail, nHead, m int64, kt, kh int) *bipFixture {
	t.Helper()
	s := xrand.NewStream(77).DeriveStream("messy-bip")
	liveT, liveH := nTail-nTail/10, nHead-nHead/10
	et := table.NewEdgeTable("messy-bip", m+m/8)
	for e := int64(0); e < m; e++ {
		a, b := s.Intn(2*e, liveT), s.Intn(2*e+1, liveH)
		if e%5 == 0 {
			b = s.Intn(2*e+1, 4) // hub heads
		}
		et.Add(a, b)
		if e%16 == 3 {
			et.Add(a, b) // parallel edge
		}
	}
	return newBipFixture(t, et, nTail, nHead, kt, kh)
}

func (f *bipFixture) match(t testing.TB) *BipartiteResult {
	t.Helper()
	res, err := MatchBipartite(f.et, f.nTail, f.nHead, f.tailLabels, f.headLabels, f.target, DefaultOptions(63))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// partitionAt runs SBM-Part with extra refinement passes on a fresh
// partitioner.
func partitionAt(t testing.TB, g *graph.Graph, target *stats.Joint, sizes []int64, extra int) []uint32 {
	t.Helper()
	part, err := NewSBMPart(target, sizes)
	if err != nil {
		t.Fatal(err)
	}
	part.Seed = 99
	assign, err := assigned(part.partition(g, RandomOrder(g.N(), 5), extra))
	if err != nil {
		t.Fatal(err)
	}
	return assign
}

// streamCase is one row of the differential table: a variant of the
// stream kernel on one fixture. run returns the SHA-256 of everything
// the run assigned; parent holds that hash as the commit before the
// kernel existed produced it (its serial first pass, serial refinement
// and serial MatchBipartite — three separate loops then), so the
// kernel is held to the old code and not only to itself.
type streamCase struct {
	name   string // "<variant>/<fixture>"
	run    func(t testing.TB) string
	parent string
}

func streamCases(t testing.TB) []streamCase {
	t.Helper()
	var cases []streamCase
	// Each first-pass case runs twice: SBMPart on the fixture's full CSR,
	// and MatchProperty, which streams the CSR — each edge once, at its
	// later-streamed end — with the same order and seed. Both must
	// reproduce the pin.
	mono := func(name string, f *monoFixture, first, refined string) {
		for _, v := range []struct {
			variant string
			extra   int
			parent  string
		}{{"first", 0, first}, {"refine2", 2, refined}} {
			cases = append(cases, streamCase{v.variant + "/" + name, func(t testing.TB) string {
				return sha256Int64(partitionAt(t, f.g, f.target, f.sizes, v.extra))
			}, v.parent})
		}
		cases = append(cases, streamCase{"first/" + name + "/streamed", func(t testing.TB) string {
			opt := Options{Seed: 99, Order: RandomOrder(f.n, 5)}
			res, err := MatchProperty(f.et, f.n, f.rowLabels(), f.target, opt)
			if err != nil {
				t.Fatal(err)
			}
			return sha256Int64(res.Assign)
		}, first})
	}
	mono("lfr", lfrFixture(t, 4000, 16),
		"6d56234eb45e03f6996b58563662222ce96951b98894b3e8afcb90ba57697314",
		"a89d9a7cdc7c1393e746871159a6fd298a2e6d53ec5d5a0388b6ef2d17b221bd")
	mono("rmat", rmatFixture(t, 11, 8),
		"43dbdd5ab989583a4b19169253fac600a5a046069412e32208312607304999d7",
		"43128389e7036baafd3ea90fd3bafd1fcd4794d66274dc048518830e8d9f3fa0")
	// Self-loops, parallel edges, hubs and isolated nodes.
	mono("messy", newMonoFixture(t, messyEdges(3000, 24000, 41), nil, 3000, equalSizes(3000, 16), 0.7),
		"d82cf8291f32edbc7662cc6745b711c67cff2164176eddcff7bee09f26ce791a",
		"11b647fcf19fe2fe46851b0100a6a6247712b118ff1bc823a29ee3d449ae0a0c")
	mono("isolated", isolatedFixture(t, 1200, 6),
		"048733c9ae0c8d765d17fce05cb2fa0e0372d87001f46f857c2e5d8fd7c96eca",
		"cbf5808c16e22f6ee1bc8717c37eb63ca93a757d0d9a900e296c10b53905b1d5")

	bip := func(name string, f *bipFixture, parent string) {
		cases = append(cases, streamCase{"bipartite/" + name, func(t testing.TB) string {
			res := f.match(t)
			return sha256Int64(res.TailAssign, res.HeadAssign, res.TailMapping, res.HeadMapping)
		}, parent})
	}
	bip("zipf", zipfFixture(t, 6000, 3000, 12, 6),
		"aab8a38b8a4f27e925b9f39483b6cffeaa22dce5a8bd4b7f5c463803e1daf5f4")
	bip("messy", messyBipartite(t, 500, 300, 4000, 5, 3),
		"8690ae81b071ba7a1076fbd670b30e8d66a87afd9fafa21d35114a5fc8ba360e")
	return cases
}

// streamDifferential checks every case of one variant against the
// parent commit's hash. A changed hash
// means existing seeds produce different matchings — a break of the
// per-seed reproducibility contract, which needs a core.SchemaVersion
// bump, not a new pin. (These pins outlived a windowed parallel-scan
// driver that had to reproduce them at every window × worker cell; the
// stress and validation tests below still carry its name.)
func streamDifferential(t *testing.T, variant string) {
	for _, c := range streamCases(t) {
		if !strings.HasPrefix(c.name, variant+"/") {
			continue
		}
		if got := c.run(t); got != c.parent {
			t.Errorf("%s: %s, parent commit %s", c.name, got, c.parent)
		}
	}
}

func TestFirstPassPinnedHashes(t *testing.T)      { streamDifferential(t, "first") }
func TestMultiPassPinnedHashes(t *testing.T)      { streamDifferential(t, "refine2") }
func TestMatchBipartitePinnedHashes(t *testing.T) { streamDifferential(t, "bipartite") }

// streamStress runs one variant's first fixture on eight goroutines at
// once under the race detector: runs share the graph and the target and
// nothing else, so all must reproduce the pinned hash.
func streamStress(t *testing.T, variant string) {
	for _, c := range streamCases(t) {
		if !strings.HasPrefix(c.name, variant+"/") {
			continue
		}
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := c.run(t); got != c.parent {
					t.Errorf("%s run %d: %s, parent commit %s", c.name, r, got, c.parent)
				}
			}()
		}
		wg.Wait()
		return // the variant's first fixture is enough
	}
}

func TestFirstPassStress(t *testing.T)       { streamStress(t, "first") }
func TestRefineStress(t *testing.T)          { streamStress(t, "refine2") }
func TestBipartiteStreamStress(t *testing.T) { streamStress(t, "bipartite") }

// TestStreamOrderValidation: a stream order that is not a permutation
// is rejected, naming the first offending node.
func TestStreamOrderValidation(t *testing.T) {
	f := lfrFixture(t, 500, 4)
	for _, tc := range []struct {
		name string
		at   int
		v    uint32
	}{{"duplicate", 101, 0}, {"out of range", 0, 500}, {"largest id", 7, ^uint32(0)}} {
		bad := RandomOrder(500, 5)
		if tc.name == "duplicate" {
			tc.v = bad[100]
		}
		bad[tc.at] = tc.v
		want := fmt.Sprintf("match: order is not a permutation (node %d)", tc.v)
		if _, _, err := streamOrder(bad, f.g.N(), 0, f.sizes); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
}

// TestMatchPropertyBadOrder: a match without refinement inverts its
// order before it builds the CSR the order streams, so an order that is
// not a permutation fails first, naming the offending node. The edge
// table also has an endpoint past n, which a build would have reported.
func TestMatchPropertyBadOrder(t *testing.T) {
	f := lfrFixture(t, 500, 4)
	et := f.et // the fixture's own: f.g was built before this edge
	et.Add(f.n, 0)
	for _, tc := range []struct {
		name string
		at   int
		v    uint32
	}{{"duplicate", 101, 0}, {"out of range", 0, 500}, {"largest id", 7, ^uint32(0)}} {
		opt := DefaultOptions(3)
		opt.Order = RandomOrder(f.n, 5)
		if tc.name == "duplicate" {
			tc.v = opt.Order[100]
		}
		opt.Order[tc.at] = tc.v
		want := fmt.Sprintf("match: order is not a permutation (node %d)", tc.v)
		if _, err := MatchProperty(et, f.n, f.rowLabels(), f.target, opt); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
	if _, err := MatchProperty(et, f.n, f.rowLabels(), f.target, DefaultOptions(3)); err == nil || !strings.HasPrefix(err.Error(), "graph: edge ") {
		t.Errorf("valid order over a bad edge table: err = %v, want the build's", err)
	}
}

// TestMultiPassIsolatedQuotaDeterminism: with tight quotas and many
// isolated nodes, refinement's fallback (keep the previous group, else
// the first feasible one) must respect every capacity and resolve the
// same way on every run.
func TestMultiPassIsolatedQuotaDeterminism(t *testing.T) {
	const n, k = 1200, 6
	f := isolatedFixture(t, n, k)
	g, target, sizes := f.g, f.target, f.sizes
	ref := partitionAt(t, g, target, sizes, 3)
	counts := make([]int64, k)
	for _, a := range ref {
		counts[a]++
	}
	for i := range sizes {
		if counts[i] > sizes[i] {
			t.Fatalf("group %d over capacity: %d > %d", i, counts[i], sizes[i])
		}
	}
	got := partitionAt(t, g, target, sizes, 3)
	for v := range ref {
		if got[v] != ref[v] {
			t.Fatalf("second run: node %d assigned %d, first run %d", v, got[v], ref[v])
		}
	}
}

// TestMultiPassPassTimes: a partition call records one wall-time entry
// per streaming pass (initial + each refinement), resetting between
// calls.
func TestMultiPassPassTimes(t *testing.T) {
	f := lfrFixture(t, 1000, 4)
	part, err := NewSBMPart(f.target, f.sizes)
	if err != nil {
		t.Fatal(err)
	}
	part.Seed = 7
	for _, extra := range []int{2, 0} {
		if _, err := assigned(part.partition(f.g, RandomOrder(f.n, 3), extra)); err != nil {
			t.Fatal(err)
		}
		if len(part.PassTimes) != 1+extra {
			t.Fatalf("PassTimes has %d entries after 1+%d passes", len(part.PassTimes), extra)
		}
	}
}

// matchPropertyRepeatable: the end-to-end operator hands out the same
// mapping on every run and reports one timing per pass.
func matchPropertyRepeatable(t *testing.T, passes int) {
	const n, k = 2000, 4
	et, err := sgen.NewLFR(23).Run(n)
	if err != nil {
		t.Fatal(err)
	}
	sizes := equalSizes(n, k)
	target := homophilyTarget(t, sizes, 0.7)
	rowLabels := make([]int64, 0, n)
	for v, sz := range sizes {
		for c := int64(0); c < sz; c++ {
			rowLabels = append(rowLabels, int64(v))
		}
	}
	run := func() *Result {
		opt := DefaultOptions(77)
		opt.Passes = passes
		res, err := MatchProperty(et, n, rowLabels, target, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.PassTimes) != 1+passes {
			t.Fatalf("%d pass times, want %d", len(res.PassTimes), 1+passes)
		}
		return res
	}
	ref, got := run(), run()
	for v := range ref.Mapping {
		if got.Mapping[v] != ref.Mapping[v] {
			t.Fatalf("mapping[%d] = %d, first run %d", v, got.Mapping[v], ref.Mapping[v])
		}
	}
}

func TestMatchPropertyRepeatable(t *testing.T)        { matchPropertyRepeatable(t, 0) }
func TestMatchPropertyRefinedRepeatable(t *testing.T) { matchPropertyRepeatable(t, 2) }
