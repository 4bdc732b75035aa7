package pgen

import (
	"errors"
	"math"
	"strings"
	"testing"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

func s(seed uint64) xrand.Stream { return xrand.NewStream(seed) }

// newChunk returns an empty chunk of rows cells, of the shape the engine
// hands g for a property of the given kind.
func newChunk(g Generator, kind table.ValueKind, rows int64, deps []*table.PropertyTable) table.Chunk {
	var dst table.Chunk
	switch {
	case kind == table.KindFloat:
		dst.Floats = make([]float64, rows)
	case kind != table.KindString:
		dst.Ints = make([]int64, rows)
	default:
		if c, ok := g.(Coded); ok {
			if dst.Dict = c.Vocabulary(deps); dst.Dict != nil {
				dst.Codes = make([]uint32, rows)
			}
		}
	}
	return dst
}

// fillRange fills ids [lo, hi) of g into a fresh chunk, reading deps
// (whole columns) through Gather so any range of any layout works.
func fillRange(t testing.TB, g Generator, kind table.ValueKind, lo, hi int64, stream xrand.Stream, deps ...*table.PropertyTable) table.Chunk {
	t.Helper()
	dst := newChunk(g, kind, hi-lo, deps)
	idx := make([]uint32, hi-lo)
	for i := range idx {
		idx[i] = uint32(lo) + uint32(i)
	}
	chunks := make([]table.Chunk, len(deps))
	for i, d := range deps {
		d.Gather(idx, &chunks[i])
	}
	if err := g.Fill(&dst, lo, hi, stream, chunks); err != nil {
		t.Fatal(err)
	}
	return dst
}

// fill generates a whole n-row column of the generator's kind the way
// the engine does: one table, filled ChunkRows ids at a time.
func fill(t testing.TB, g Generator, n int64, stream xrand.Stream, deps ...*table.PropertyTable) *table.PropertyTable {
	t.Helper()
	return fillKind(t, g, g.Kind(), n, stream, deps...)
}

func fillKind(t testing.TB, g Generator, kind table.ValueKind, n int64, stream xrand.Stream, deps ...*table.PropertyTable) *table.PropertyTable {
	t.Helper()
	pt := table.NewPropertyTable("T."+g.Name(), kind, n)
	if kind == table.KindString {
		pt = table.NewStringTable("T."+g.Name(), n, newChunk(g, kind, 0, deps).Dict)
	}
	for lo := int64(0); lo < n; lo += table.ChunkRows {
		hi := min(lo+table.ChunkRows, n)
		chunks := make([]table.Chunk, len(deps))
		for i, d := range deps {
			chunks[i] = d.Chunk(lo, hi)
		}
		if err := pt.FillChunk(lo, hi, func(dst *table.Chunk) error { return g.Fill(dst, lo, hi, stream, chunks) }); err != nil {
			t.Fatal(err)
		}
	}
	return pt
}

// build resolves a generator through a fresh registry.
func build(t testing.TB, name string, params map[string]string) Generator {
	t.Helper()
	g, err := NewRegistry().Build(name, params)
	if err != nil {
		t.Fatalf("Build(%s): %v", name, err)
	}
	return g
}

func TestCategoricalBasics(t *testing.T) {
	c, err := NewCategorical([]string{"a", "b"}, []float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, v := range fill(t, c, 20000, s(1)).Strings() {
		counts[v]++
	}
	fa := float64(counts["a"]) / 20000
	if math.Abs(fa-0.75) > 0.02 {
		t.Errorf("P(a) = %v, want 0.75", fa)
	}
	if c.Kind() != table.KindString || c.Arity() != 0 {
		t.Error("metadata wrong")
	}
}

func TestCategoricalValidation(t *testing.T) {
	if _, err := NewCategorical(nil, nil); err == nil {
		t.Error("empty values should fail")
	}
	if _, err := NewCategorical([]string{"a"}, []float64{1, 2}); err == nil {
		t.Error("weight mismatch should fail")
	}
}

func TestCategoricalUniformDefault(t *testing.T) {
	c, err := NewCategorical([]string{"a", "b", "c", "d"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if math.Abs(c.Prob(i)-0.25) > 1e-12 {
			t.Errorf("uniform prob %d = %v", i, c.Prob(i))
		}
	}
}

func TestZipfCategoricalShape(t *testing.T) {
	c, err := NewZipfCategorical([]string{"top", "mid", "low"}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Prob(0) <= c.Prob(1) || c.Prob(1) <= c.Prob(2) {
		t.Error("zipf weights not decreasing")
	}
}

func TestUniformIntBoundsInclusive(t *testing.T) {
	seenLo, seenHi := false, false
	for _, v := range fill(t, &UniformInt{Lo: -2, Hi: 2}, 5000, s(2)).Ints() {
		if v < -2 || v > 2 {
			t.Fatalf("value %d out of range", v)
		}
		seenLo = seenLo || v == -2
		seenHi = seenHi || v == 2
	}
	if !seenLo || !seenHi {
		t.Error("bounds never sampled")
	}
}

func TestUniformFloat(t *testing.T) {
	for _, v := range fill(t, &UniformFloat{Lo: 10, Hi: 20}, 1000, s(3)).Floats() {
		if v < 10 || v >= 20 {
			t.Fatalf("value %v out of [10,20)", v)
		}
	}
}

func TestUniformDate(t *testing.T) {
	from := table.MustParseDate("2015-01-01")
	to := table.MustParseDate("2015-12-31")
	for _, v := range fill(t, &UniformDate{From: from, To: to}, 1000, s(4)).Ints() {
		if v < from || v > to {
			t.Fatalf("date %s outside 2015", table.FormatDate(v))
		}
	}
}

func TestNormalMoments(t *testing.T) {
	var sum, sumSq float64
	N := int64(100000)
	for _, v := range fill(t, &Normal{Mean: 5, Std: 2}, N, s(5)).Floats() {
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(N)
	std := math.Sqrt(sumSq/float64(N) - mean*mean)
	if math.Abs(mean-5) > 0.05 || math.Abs(std-2) > 0.05 {
		t.Errorf("normal(5,2) measured (%v, %v)", mean, std)
	}
}

func TestSequenceAndUUID(t *testing.T) {
	if v := fill(t, &Sequence{Offset: 100}, 10, s(1)).Int(5); v != 105 {
		t.Errorf("sequence = %d", v)
	}
	ids := fill(t, UUID{}, 3, s(1))
	a, b := ids.String(1), ids.String(2)
	if len(a) != 32 || a == b || strings.Trim(a, "0123456789abcdef") != "" {
		t.Errorf("uuid broken: %q %q", a, b)
	}
	if a2 := fillRange(t, UUID{}, table.KindString, 1, 2, s(1)); a2.Str(0) != a {
		t.Error("uuid not deterministic")
	}
}

func TestTextGenerator(t *testing.T) {
	for _, v := range fill(t, &Text{MinWords: 2, MaxWords: 5}, 200, s(7)).Strings() {
		if words := strings.Fields(v); len(words) < 2 || len(words) > 5 {
			t.Fatalf("text %q has %d words", v, len(words))
		}
	}
}

// constCol is a one-value string column to condition on.
func constCol(t testing.TB, v string, n int64) *table.PropertyTable {
	return fill(t, &Constant{Value: v}, n, s(0))
}

func TestConditionalNameCorrelation(t *testing.T) {
	c, err := NewConditionalName("")
	if err != nil {
		t.Fatal(err)
	}
	if c.Arity() != 2 {
		t.Errorf("arity = %d", c.Arity())
	}
	// Names must come from the (region, sex) list.
	allowed := map[string]bool{}
	for _, n := range namesByRegionSex["east-asia/F"] {
		allowed[n] = true
	}
	for _, v := range fill(t, c, 500, s(8), constCol(t, "Japan", 500), constCol(t, "F", 500)).Strings() {
		if !allowed[v] {
			t.Fatalf("name %q not in east-asia/F list", v)
		}
	}
	// Different (country, sex) must change the name pool.
	if vm := fill(t, c, 1, s(8), constCol(t, "Brazil", 1), constCol(t, "M", 1)).String(0); allowed[vm] {
		t.Errorf("Brazil/M name %q drawn from Japan/F pool", vm)
	}
}

// TestConditionalNameLayouts: the name depends on the country and sex
// strings, not on how their columns store them — coded dependencies
// (resolved once per value pair) and arena ones (resolved per row) draw
// the same names.
func TestConditionalNameLayouts(t *testing.T) {
	const n = 3000
	c, _ := NewConditionalName("")
	country := fill(t, build(t, "categorical", map[string]string{"dict": "countries"}), n, s(1))
	sex := fill(t, build(t, "categorical", map[string]string{"values": "M|F|x"}), n, s(2))
	arena := func(pt *table.PropertyTable) *table.PropertyTable {
		return fill(t, PerRow("copy", table.KindString, 1, func(_ int64, _ xrand.Stream, deps []Value) (Value, error) {
			return deps[0], nil
		}), n, s(0), pt)
	}
	want := fill(t, c, n, s(3), country, sex).Strings()
	got := fill(t, c, n, s(3), arena(country), arena(sex)).Strings()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q over arena dependencies, %q over coded ones", i, got[i], want[i])
		}
	}
}

func TestConditionalNameUnknownCountryFallsBack(t *testing.T) {
	c, _ := NewConditionalName("")
	if v := fill(t, c, 1, s(9), constCol(t, "Atlantis", 1), constCol(t, "M", 1)).String(0); v == "" {
		t.Error("fallback produced empty name")
	}
}

func TestDictionaryLookup(t *testing.T) {
	v, w, err := Dictionary("countries")
	if err != nil || len(v) != len(w) || len(v) == 0 {
		t.Fatalf("countries dictionary broken: %v", err)
	}
	if _, _, err := Dictionary("nope"); err == nil {
		t.Error("unknown dictionary should fail")
	}
	for _, name := range []string{"topics", "sexes", "words"} {
		vs, _, err := Dictionary(name)
		if err != nil || len(vs) == 0 {
			t.Errorf("dictionary %s broken", name)
		}
	}
}

func TestMaxEndpointDate(t *testing.T) {
	d1 := fillKind(t, &Sequence{Offset: 1000}, table.KindDate, 500, s(0))
	d2 := fillKind(t, &Sequence{Offset: 1500}, table.KindDate, 500, s(0))
	for i, v := range fill(t, &MaxEndpointDate{MaxLagDays: 30}, 500, s(10), d1, d2).Ints() {
		if base := 1500 + int64(i); v <= base || v > base+30 {
			t.Fatalf("edge date %d not in (%d, %d]", v, base, base+30)
		}
	}
}

func TestEndpointCopy(t *testing.T) {
	const n = table.ChunkRows + 100
	for name, src := range map[string]*table.PropertyTable{
		"coded": fill(t, build(t, "categorical", map[string]string{"dict": "topics"}), n, s(1)),
		"arena": fill(t, &Text{MinWords: 1, MaxWords: 3}, n, s(1)),
		"int":   fill(t, &UniformInt{Lo: 0, Hi: 9}, n, s(1)),
		"float": fill(t, &Normal{Std: 1}, n, s(1)),
	} {
		got := fillKind(t, EndpointCopy{}, src.Kind, n, s(2), src)
		for i := int64(0); i < n; i++ {
			if got.Value(i) != src.Value(i) {
				t.Fatalf("%s row %d: copy %v, source %v", name, i, got.Value(i), src.Value(i))
			}
		}
		if _, dict := got.Coded(); (dict != nil) != (name == "coded") {
			t.Errorf("%s: the copy's string layout is not its source's", name)
		}
	}
}

func TestRatingJShape(t *testing.T) {
	counts := map[int64]int{}
	for _, v := range fill(t, &Rating{Lo: 1, Hi: 5}, 20000, s(11)).Ints() {
		if v < 1 || v > 5 {
			t.Fatalf("rating %d out of range", v)
		}
		counts[v]++
	}
	if counts[5] < counts[3] || counts[1] < counts[3] {
		t.Errorf("not J-shaped: %v", counts)
	}
}

func TestRegistryBuildAll(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		name   string
		params map[string]string
	}{
		{"categorical", map[string]string{"values": "a|b|c"}},
		{"categorical", map[string]string{"dict": "countries"}},
		{"categorical", map[string]string{"values": "a|b", "weights": "1|3"}},
		{"zipf", map[string]string{"values": "x|y|z", "theta": "1.2"}},
		{"zipf", map[string]string{"dict": "topics"}},
		{"uniform-int", map[string]string{"lo": "1", "hi": "10"}},
		{"uniform-float", map[string]string{"lo": "0", "hi": "2"}},
		{"uniform-date", map[string]string{"from": "2010-01-01", "to": "2011-01-01"}},
		{"normal", map[string]string{"mean": "5", "std": "2"}},
		{"sequence", map[string]string{"offset": "7"}},
		{"uuid", nil},
		{"constant", map[string]string{"value": "fixed"}},
		{"text", map[string]string{"min": "1", "max": "3"}},
		{"dictionary", nil},
		{"max-endpoint-date", map[string]string{"maxDays": "10"}},
		{"endpoint-copy", nil},
		{"rating", map[string]string{"lo": "1", "hi": "5"}},
	}
	for _, c := range cases {
		g, err := r.Build(c.name, c.params)
		if err != nil {
			t.Errorf("Build(%s): %v", c.name, err)
			continue
		}
		if g.Name() == "" {
			t.Errorf("%s has empty name", c.name)
		}
	}
}

func TestRegistryErrors(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Build("nope", nil); err == nil {
		t.Error("unknown generator should fail")
	}
	if _, err := r.Build("categorical", nil); err == nil {
		t.Error("categorical without values should fail")
	}
	if _, err := r.Build("uniform-int", map[string]string{"lo": "x"}); err == nil {
		t.Error("bad int param should fail")
	}
	if _, err := r.Build("uniform-date", map[string]string{"from": "junk"}); err == nil {
		t.Error("bad date param should fail")
	}
	if _, err := r.Build("constant", nil); err == nil {
		t.Error("constant without value should fail")
	}
	if _, err := r.Build("categorical", map[string]string{"values": "a|b", "weights": "1|x"}); err == nil {
		t.Error("bad weight should fail")
	}
	if err := r.Register("categorical", nil); err == nil {
		t.Error("duplicate registration should fail")
	}
	if err := r.Register("custom", func(map[string]string) (Generator, error) { return UUID{}, nil }); err != nil {
		t.Errorf("custom registration failed: %v", err)
	}
	if len(r.Names()) == 0 {
		t.Error("Names empty")
	}
}

// TestFactoriesRejectBadRanges: range and bounds checks happen when the
// generator is built — where core.ValidateSchema sees them — not at the
// first row.
func TestFactoriesRejectBadRanges(t *testing.T) {
	r := NewRegistry()
	for _, c := range []struct {
		name   string
		params map[string]string
	}{
		{"uniform-int", map[string]string{"lo": "5", "hi": "1"}},
		{"uniform-int", map[string]string{"lo": "-9223372036854775808", "hi": "9223372036854775807"}},
		{"uniform-int", map[string]string{"lo": "-1", "hi": "9223372036854775807"}},
		{"uniform-float", map[string]string{"lo": "1", "hi": "1"}},
		{"uniform-float", map[string]string{"lo": "NaN"}},
		{"uniform-date", map[string]string{"from": "2020-01-02", "to": "2020-01-01"}},
		{"uniform-date", map[string]string{"from": "0000-06-01"}},
		{"normal", map[string]string{"std": "-1"}},
		{"text", map[string]string{"min": "0", "max": "3"}},
		{"text", map[string]string{"min": "5", "max": "2"}},
		{"text", map[string]string{"max": "1000000"}},
		{"rating", map[string]string{"lo": "5", "hi": "5"}},
		{"max-endpoint-date", map[string]string{"maxDays": "4000000"}},
		{"multi-categorical", map[string]string{"values": "a|b", "min": "0"}},
	} {
		if g, err := r.Build(c.name, c.params); err == nil {
			t.Errorf("Build(%s, %v) = %T, want an error", c.name, c.params, g)
		}
	}
	// A non-positive lag still means the default.
	if g := build(t, "max-endpoint-date", map[string]string{"maxDays": "0"}); g.(*MaxEndpointDate).MaxLagDays != 365 {
		t.Errorf("maxDays=0 built %+v, want the 365-day default", g)
	}
}

func TestInPlaceRegeneration(t *testing.T) {
	// The Myriad invariant: regenerating any single id yields the same
	// value as generating the whole table.
	g := build(t, "categorical", map[string]string{"dict": "countries"})
	stream := xrand.NewStream(99).DeriveStream("Person.country")
	full := fill(t, g, 1000, stream)
	// Regenerate ids out of order, as a different worker would.
	for _, i := range []int64{999, 0, 500, 123, 77} {
		if v := fillRange(t, g, table.KindString, i, i+1, stream); v.Str(0) != full.String(i) {
			t.Fatalf("in-place regeneration of id %d mismatches", i)
		}
	}
}

func TestMultiCategorical(t *testing.T) {
	m, err := NewMultiCategorical([]string{"a", "b", "c", "d"}, nil, 2, 3, ";")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fill(t, m, 500, s(5)).Strings() {
		parts := strings.Split(v, ";")
		if len(parts) < 2 || len(parts) > 3 {
			t.Fatalf("set %q has %d values", v, len(parts))
		}
		seen := map[string]bool{}
		for _, p := range parts {
			if seen[p] {
				t.Fatalf("set %q repeats %q", v, p)
			}
			seen[p] = true
		}
	}
}

func TestMultiCategoricalValidation(t *testing.T) {
	if _, err := NewMultiCategorical([]string{"a"}, nil, 0, 1, ""); err == nil {
		t.Error("min=0 should fail")
	}
	if _, err := NewMultiCategorical([]string{"a"}, nil, 1, 5, ""); err == nil {
		t.Error("max beyond universe should fail")
	}
	if _, err := NewMultiCategorical(nil, nil, 1, 1, ""); err == nil {
		t.Error("no values should fail")
	}
}

func TestMultiCategoricalViaRegistry(t *testing.T) {
	g := build(t, "multi-categorical", map[string]string{"dict": "topics", "min": "1", "max": "4"})
	if v := fill(t, g, 1, s(1)).String(0); v == "" {
		t.Errorf("registry multi-categorical drew %q", v)
	}
	if _, err := NewRegistry().Build("multi-categorical", map[string]string{"values": "a|b", "max": "9"}); err == nil {
		t.Error("oversized set should fail")
	}
}

// TestPerRow: a row-at-a-time function becomes a Generator that sees
// its dependencies boxed, whatever their layout, and reports the row an
// error came from.
func TestPerRow(t *testing.T) {
	const n = 100
	topic := fill(t, build(t, "categorical", map[string]string{"dict": "topics"}), n, s(1))
	score := fill(t, &Normal{Std: 1}, n, s(2))
	g := PerRow("tag", table.KindString, 2, func(id int64, _ xrand.Stream, deps []Value) (Value, error) {
		if id == 70 {
			return Value{}, errors.ErrUnsupported
		}
		return Value{Str: deps[0].Str + "!"}, nil
	})
	got := fillRange(t, g, table.KindString, 0, 70, s(3), topic, score)
	for i := 0; i < 70; i++ {
		if want := topic.String(int64(i)) + "!"; got.Str(i) != want {
			t.Fatalf("row %d: %q, want %q", i, got.Str(i), want)
		}
	}
	dst := newChunk(g, table.KindString, 1, nil)
	err := g.Fill(&dst, 70, 71, s(3), []table.Chunk{topic.Chunk(70, 71), score.Chunk(70, 71)})
	if err == nil || !strings.Contains(err.Error(), "row 70") {
		t.Errorf("err = %v, want row 70 named", err)
	}
}

// TestRegistrationErrorSurfacesNotPanics mirrors the sgen regression:
// a failed built-in registration is recorded and surfaced from Build
// instead of panicking the process.
func TestRegistrationErrorSurfacesNotPanics(t *testing.T) {
	r := NewRegistry()
	registerBuiltins(r) // duplicates: every Register fails
	if _, err := r.Build("uniform-int", map[string]string{"lo": "1", "hi": "2"}); err == nil {
		t.Fatal("Build on a broken registry must return the registration error")
	}
}
