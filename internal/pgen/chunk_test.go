package pgen

import (
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"testing"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// The paper's in-place generation property, for every built-in
// generator: the value of an id is a function of (id, r(id), deps) and
// nothing else, so a column is the same however [0, n) is cut into
// chunks and in whatever order those are filled — which is what lets
// any worker own any id range. The golden hashes pin the values to the
// ones the row-at-a-time Run methods produced before the generators
// became chunk kernels (same parameters, streams and dependencies; one
// line per value, rendered as the CSV cell).

const goldenRows = 20000

var goldenParams = map[string]map[string]string{
	"categorical":       {"dict": "countries"},
	"zipf":              {"dict": "topics", "theta": "1.1"},
	"uniform-int":       {"lo": "-5", "hi": "1000000"},
	"uniform-float":     {"lo": "-1", "hi": "3.5"},
	"uniform-date":      {"from": "2010-01-01", "to": "2020-01-01"},
	"normal":            {"mean": "5", "std": "2"},
	"sequence":          {"offset": "7"},
	"constant":          {"value": "fixed"},
	"text":              {"min": "3", "max": "12"},
	"multi-categorical": {"dict": "topics", "min": "1", "max": "4"},
	"max-endpoint-date": {"maxDays": "365"},
	"rating":            {"lo": "1", "hi": "5"},
}

var goldenHashes = map[string]string{
	"categorical":       "7103456b6956036c9266344e2915de3131b4b0c92f715b3ed1acce4c97580c13",
	"constant":          "6d37ab1b51b6d178f6c230b2ab741a9ee5407d3c0a2917087ab35212ecdacb49",
	"dictionary":        "9db3c5197ca7c57659d0f645cf211457adecd36659a2390d56f1d8a46bee3610",
	"endpoint-copy":     "c6cbc4318890ee168497af5666c040ae1f5169ef62f89dbd4b9e471cfe0db803",
	"max-endpoint-date": "1f41a1edce21bf74e8b18c6110cedb06c058d467e0924bc75dbef9a99f184500",
	"multi-categorical": "0d64a344a6cc7be1fafc8c5ed847ad7041887c8c9c060fdb373aef6d5fa5a819",
	"normal":            "a4e805f607aedbaebaa448b30b86c515cf563fbbcaa80d0a7f64a0c363117ea4",
	"rating":            "8ab49f1e2f8c3b055213c437186b7bfa871c894cd56ae1b246ba66554ce62f14",
	"sequence":          "528c41bdaa3e8e9c02dfaa67306716ff2b82db77835f95beb44676c4e71099a3",
	"text":              "ed307e006e9a81d008206332442771b247f713fda6df8d5ca869618173ab545e",
	"uniform-date":      "0449b5d6650005115805a73b705e2872d3b321d2300ba7368602ae0096de2cd3",
	"uniform-float":     "6810d158a0784ed7f9df694c4dc184740e18054d13f70a71ebfe8695052dda03",
	"uniform-int":       "5fcea81c576f21c133885f8f97e49d3c752526f2908237493a6a264d2f65d5d8",
	"uuid":              "6e967150064e67daa57695d1e324857119e3a1171e82bb706cf7d491117457d2",
	"zipf":              "2d24f30f7855d0154cf7f0745cb3a9f4ac7bcdb24952a38d5dffacb02fda7488",
}

// cells renders a filled chunk's values as CSV cells.
func cells(c *table.Chunk, kind table.ValueKind, rows int64) []string {
	out := make([]string, rows)
	for i := range out {
		switch kind {
		case table.KindString:
			out[i] = c.Str(i)
		case table.KindFloat:
			out[i] = strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
		case table.KindDate:
			out[i] = table.FormatDate(c.Ints[i])
		default:
			out[i] = strconv.FormatInt(c.Ints[i], 10)
		}
	}
	return out
}

func TestChunkInvariance(t *testing.T) {
	dep := func(name string, params map[string]string, label string) *table.PropertyTable {
		return fill(t, build(t, name, params), goldenRows, xrand.NewStream(42).DeriveStream(label))
	}
	deps := map[string][]*table.PropertyTable{
		"dictionary": {
			dep("categorical", map[string]string{"dict": "countries"}, "golden.dep.country"),
			dep("categorical", map[string]string{"values": "M|F"}, "golden.dep.sex"),
		},
		"max-endpoint-date": {dep("uniform-date", nil, "golden.dep.d0"), dep("uniform-date", nil, "golden.dep.d1")},
		"endpoint-copy":     {dep("text", nil, "golden.dep.text")},
	}
	names := NewRegistry().Names()
	if len(names) != len(goldenHashes) {
		t.Errorf("%d registered generators, %d golden hashes: pin the new generator's values here", len(names), len(goldenHashes))
	}
	for _, name := range names {
		g := build(t, name, goldenParams[name])
		stream := xrand.NewStream(42).DeriveStream("golden." + name)
		whole := fillRange(t, g, g.Kind(), 0, goldenRows, stream, deps[name]...)
		want := cells(&whole, g.Kind(), goldenRows)
		h := sha256.New()
		for _, v := range want {
			h.Write([]byte(v + "\n"))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenHashes[name] {
			t.Errorf("%s: values hash %s, the row-at-a-time generator's hashed %s", name, got, goldenHashes[name])
		}
		for _, size := range []int64{1, 7, table.ChunkRows} {
			var los []int64
			for lo := int64(0); lo < goldenRows; lo += size {
				los = append(los, lo)
			}
			reversed := make([]int64, len(los))
			for i, lo := range los {
				reversed[len(los)-1-i] = lo
			}
			xrand.NewSeq(uint64(size)).ShuffleInt64(los)
			for orderName, order := range map[string][]int64{"reversed": reversed, "shuffled": los} {
				got := make([]string, goldenRows)
				for _, lo := range order {
					hi := min(lo+size, goldenRows)
					c := fillRange(t, g, g.Kind(), lo, hi, stream, deps[name]...)
					copy(got[lo:hi], cells(&c, g.Kind(), hi-lo))
				}
				for id := range want {
					if got[id] != want[id] {
						t.Fatalf("%s: id %d is %q in %s chunks of %d, %q in one chunk", name, id, got[id], orderName, size, want[id])
					}
				}
			}
		}
	}
}

// TestFillAllocations: a string kernel allocates per chunk, never per
// row — text grows one arena, multi-categorical keeps no per-row map or
// slices, uuid formats its digits in place.
func TestFillAllocations(t *testing.T) {
	const rows = 100_000
	chunks := float64(rows/table.ChunkRows + 1)
	for _, name := range []string{"text", "multi-categorical", "uuid", "categorical", "uniform-int"} {
		g := build(t, name, goldenParams[name])
		allocs := testing.AllocsPerRun(3, func() { fill(t, g, rows, s(1)) })
		if allocs > 12*chunks {
			t.Errorf("%s: %.0f allocations to fill %d rows in %.0f chunks, want O(chunks)", name, allocs, rows, chunks)
		}
	}
}

var sinkTable *table.PropertyTable

// BenchmarkFill times each kernel over a million ids, one engine-sized
// chunk at a time.
func BenchmarkFill(b *testing.B) {
	const rows = 1 << 20
	date := fill(b, build(b, "uniform-date", nil), rows, s(1))
	country := fill(b, build(b, "categorical", map[string]string{"dict": "countries"}), rows, s(2))
	sex := fill(b, build(b, "categorical", map[string]string{"values": "M|F"}), rows, s(3))
	deps := map[string][]*table.PropertyTable{
		"dictionary":        {country, sex},
		"max-endpoint-date": {date, date},
		"endpoint-copy":     {country},
	}
	for _, name := range NewRegistry().Names() {
		g := build(b, name, goldenParams[name])
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkTable = fill(b, g, rows, s(4), deps[name]...)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}
