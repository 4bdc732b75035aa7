package pgen

import (
	"fmt"
	"math"
	"strconv"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// This file implements the core value samplers: categorical (with
// optional weights or Zipf ranks, via inverse transform sampling as the
// paper suggests), uniform int/float/date, normal, sequence, uuid and
// constant generators. Each Fill is the paper's run function as a loop
// over the chunk's ids; range checks live in the factories below.

// Categorical draws a string from a weighted value list.
type Categorical struct {
	values []string
	dist   *xrand.Discrete
}

// NewCategorical builds a categorical generator; weights nil means
// uniform.
func NewCategorical(values []string, weights []float64) (*Categorical, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("pgen: categorical needs at least one value")
	}
	if weights == nil {
		weights = make([]float64, len(values))
		for i := range weights {
			weights[i] = 1
		}
	}
	if len(weights) != len(values) {
		return nil, fmt.Errorf("pgen: %d weights for %d values", len(weights), len(values))
	}
	d, err := xrand.NewDiscrete(weights)
	if err != nil {
		return nil, err
	}
	return &Categorical{values: values, dist: d}, nil
}

// NewZipfCategorical weights the i-th value by 1/(i+1)^theta.
func NewZipfCategorical(values []string, theta float64) (*Categorical, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("pgen: zipf categorical needs values")
	}
	z, err := xrand.NewZipf(len(values), theta)
	if err != nil {
		return nil, err
	}
	w := make([]float64, len(values))
	for i := range w {
		w[i] = z.Prob(i)
	}
	return NewCategorical(values, w)
}

func (c *Categorical) Name() string          { return "categorical" }
func (c *Categorical) Kind() table.ValueKind { return table.KindString }
func (c *Categorical) Arity() int            { return 0 }

// Fill implements Generator via inverse transform sampling.
func (c *Categorical) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	for i := range dst.Codes {
		dst.Codes[i] = uint32(c.dist.Sample(s, lo+int64(i)))
	}
	return nil
}

// Vocabulary implements Coded: the category list, whatever the
// dependencies (the engine's fused operator reads it with none).
func (c *Categorical) Vocabulary([]*table.PropertyTable) []string { return c.values }

// Prob returns the probability of the i-th value.
func (c *Categorical) Prob(i int) float64 { return c.dist.Prob(i) }

// UniformInt draws int64 uniform in [Lo, Hi].
type UniformInt struct{ Lo, Hi int64 }

func (u *UniformInt) Name() string          { return "uniform-int" }
func (u *UniformInt) Kind() table.ValueKind { return table.KindInt }
func (u *UniformInt) Arity() int            { return 0 }

func (u *UniformInt) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	for i := range dst.Ints {
		dst.Ints[i] = u.Lo + s.Intn(lo+int64(i), u.Hi-u.Lo+1)
	}
	return nil
}

// UniformFloat draws float64 uniform in [Lo, Hi).
type UniformFloat struct{ Lo, Hi float64 }

func (u *UniformFloat) Name() string          { return "uniform-float" }
func (u *UniformFloat) Kind() table.ValueKind { return table.KindFloat }
func (u *UniformFloat) Arity() int            { return 0 }

func (u *UniformFloat) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	for i := range dst.Floats {
		dst.Floats[i] = s.Float64Range(lo+int64(i), u.Lo, u.Hi)
	}
	return nil
}

// UniformDate draws a date uniform in [From, To] (days since epoch).
type UniformDate struct{ From, To int64 }

func (u *UniformDate) Name() string          { return "uniform-date" }
func (u *UniformDate) Kind() table.ValueKind { return table.KindDate }
func (u *UniformDate) Arity() int            { return 0 }

func (u *UniformDate) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	return (&UniformInt{Lo: u.From, Hi: u.To}).Fill(dst, lo, hi, s, nil)
}

// Normal draws a normal float with the given mean and standard
// deviation.
type Normal struct{ Mean, Std float64 }

func (n *Normal) Name() string          { return "normal" }
func (n *Normal) Kind() table.ValueKind { return table.KindFloat }
func (n *Normal) Arity() int            { return 0 }

func (n *Normal) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	for i := range dst.Floats {
		dst.Floats[i] = n.Mean + n.Std*s.NormFloat64(lo+int64(i))
	}
	return nil
}

// Sequence returns the instance id itself (plus an offset) — the
// paper's "user-controlled uuids that can be correlated with other
// properties such as the time".
type Sequence struct{ Offset int64 }

func (q *Sequence) Name() string          { return "sequence" }
func (q *Sequence) Kind() table.ValueKind { return table.KindInt }
func (q *Sequence) Arity() int            { return 0 }

func (q *Sequence) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	for i := range dst.Ints {
		dst.Ints[i] = q.Offset + lo + int64(i)
	}
	return nil
}

// UUID produces a deterministic 32-hex-digit identifier from the
// instance id and stream.
type UUID struct{}

func (UUID) Name() string          { return "uuid" }
func (UUID) Kind() table.ValueKind { return table.KindString }
func (UUID) Arity() int            { return 0 }

func (UUID) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	const hex = "0123456789abcdef"
	dst.Grow(int(hi-lo), int(hi-lo)*32)
	for id := lo; id < hi; id++ {
		for _, u := range [2]uint64{s.U64(2 * id), s.U64(2*id + 1)} {
			for shift := 60; shift >= 0; shift -= 4 {
				dst.Data = append(dst.Data, hex[u>>shift&15])
			}
		}
		dst.EndCell()
	}
	return nil
}

// Constant returns a fixed string.
type Constant struct{ Value string }

func (c *Constant) Name() string          { return "constant" }
func (c *Constant) Kind() table.ValueKind { return table.KindString }
func (c *Constant) Arity() int            { return 0 }

// Fill has nothing to write: code 0 of a one-value list is the zero
// value of the column.
func (c *Constant) Fill(*table.Chunk, int64, int64, xrand.Stream, []table.Chunk) error { return nil }

// Vocabulary implements Coded.
func (c *Constant) Vocabulary([]*table.PropertyTable) []string { return []string{c.Value} }

// maxTextWords keeps a chunk of the longest sentences inside the 4 GiB
// an arena chunk's offsets can address.
const maxTextWords = 1 << 15

// Text produces pseudo-random sentences of Words words drawn from the
// embedded lexicon — the running example's Message.text.
type Text struct{ MinWords, MaxWords int }

func (t *Text) Name() string          { return "text" }
func (t *Text) Kind() table.ValueKind { return table.KindString }
func (t *Text) Arity() int            { return 0 }

func (t *Text) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	// Room for the expected bytes plus a margin — a lexicon word and its
	// space average under six bytes; append grows the arena if a chunk
	// runs long.
	dst.Grow(int(hi-lo), int(hi-lo)*(t.MinWords+t.MaxWords)*3)
	sub := s.DeriveStream("words")
	for id := lo; id < hi; id++ {
		n := t.MinWords + int(s.Intn(id*2+1, int64(t.MaxWords-t.MinWords+1)))
		for w := 0; w < n; w++ {
			if w > 0 {
				dst.Data = append(dst.Data, ' ')
			}
			dst.Data = append(dst.Data, lexicon[sub.Intn(id*97+int64(w), int64(len(lexicon)))]...)
		}
		dst.EndCell()
	}
	return nil
}

// registerBuiltins wires every built-in factory into a registry. A
// failed registration is recorded on the registry (not panicked) and
// surfaced from Build, so it fails the schema that needs the registry
// rather than whatever process happened to construct one.
func registerBuiltins(r *Registry) {
	register := func(name string, f func(p *params) (Generator, error)) {
		err := r.Register(name, func(m map[string]string) (Generator, error) {
			p := &params{m: m}
			return p.build(f(p))
		})
		if err != nil && r.err == nil {
			r.err = err
		}
	}
	register("categorical", func(p *params) (Generator, error) {
		if values, weights := p.dict(); values != nil {
			return NewCategorical(values, weights)
		}
		var weights []float64
		for _, w := range p.list("weights") {
			f, err := strconv.ParseFloat(w, 64)
			p.check(err == nil, "weight %q: %v", w, err)
			weights = append(weights, f)
		}
		return NewCategorical(p.list("values"), weights)
	})
	register("zipf", func(p *params) (Generator, error) {
		values, _ := p.dict()
		if values == nil {
			values = p.list("values")
		}
		return NewZipfCategorical(values, p.float("theta", 1.0))
	})
	register("uniform-int", func(p *params) (Generator, error) {
		lo, hi := p.int("lo", 0), p.int("hi", 100)
		p.check(lo <= hi, "uniform-int range [%d,%d] empty", lo, hi)
		p.check(hi-lo+1 > 0, "uniform-int range [%d,%d] holds more than %d values", lo, hi, int64(math.MaxInt64))
		return &UniformInt{Lo: lo, Hi: hi}, nil
	})
	register("uniform-float", func(p *params) (Generator, error) {
		lo, hi := p.float("lo", 0), p.float("hi", 1)
		p.check(lo < hi, "uniform-float range [%v,%v) empty", lo, hi)
		return &UniformFloat{Lo: lo, Hi: hi}, nil
	})
	register("uniform-date", func(p *params) (Generator, error) {
		from, to := p.date("from", "2010-01-01"), p.date("to", "2020-01-01")
		p.check(from <= to, "uniform-date range [%s,%s] empty", table.FormatDate(from), table.FormatDate(to))
		return &UniformDate{From: from, To: to}, nil
	})
	register("normal", func(p *params) (Generator, error) {
		mean, std := p.float("mean", 0), p.float("std", 1)
		p.check(std >= 0, "normal needs std >= 0, got %v", std)
		return &Normal{Mean: mean, Std: std}, nil
	})
	register("sequence", func(p *params) (Generator, error) {
		return &Sequence{Offset: p.int("offset", 0)}, nil
	})
	register("uuid", func(p *params) (Generator, error) {
		return UUID{}, nil
	})
	register("constant", func(p *params) (Generator, error) {
		v, ok := p.m["value"]
		p.check(ok, "constant needs value=")
		return &Constant{Value: v}, nil
	})
	register("text", func(p *params) (Generator, error) {
		lo, hi := p.int("min", 3), p.int("max", 12)
		p.check(1 <= lo && lo <= hi && hi <= maxTextWords, "text word bounds [%d,%d] invalid (want 1 <= min <= max <= %d)", lo, hi, maxTextWords)
		return &Text{MinWords: int(lo), MaxWords: int(hi)}, nil
	})
	register("multi-categorical", func(p *params) (Generator, error) {
		values, weights := p.dict()
		if values == nil {
			values = p.list("values")
		}
		return NewMultiCategorical(values, weights, int(p.int("min", 1)), int(p.int("max", 3)), p.m["sep"])
	})
	register("dictionary", func(p *params) (Generator, error) {
		return NewConditionalName(p.m["dict"])
	})
	register("max-endpoint-date", func(p *params) (Generator, error) {
		maxDays := p.int("maxDays", 365)
		if maxDays <= 0 {
			maxDays = 365
		}
		p.check(maxDays <= table.MaxDate-table.MinDate, "max-endpoint-date maxDays=%d is longer than the date domain (%d days)", maxDays, table.MaxDate-table.MinDate)
		return &MaxEndpointDate{MaxLagDays: maxDays}, nil
	})
	register("endpoint-copy", func(p *params) (Generator, error) {
		return &EndpointCopy{}, nil
	})
	register("rating", func(p *params) (Generator, error) {
		lo, hi := p.int("lo", 1), p.int("hi", 5)
		p.check(lo < hi, "rating range [%d,%d] invalid", lo, hi)
		return &Rating{Lo: lo, Hi: hi}, nil
	})
}
