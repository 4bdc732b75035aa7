package pgen

import (
	"fmt"
	"math"
	"strconv"

	"datasynth/internal/schema"
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
		dst.Floats[i] = n.Mean + float64(n.Std*s.NormFloat64(lo+int64(i))) // rounded: no fused multiply-add
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

// valueList reads a string generator's values: the embedded dictionary
// dict= names (with its weights), else the values= list. weighted says
// the spec also gives weights=, which go with values= only. A factory
// calls it after its other reads, since its error ends the factory.
func valueList(p *schema.Params, gen string, weighted bool) ([]string, []float64, error) {
	values := p.List("values")
	name, _ := p.Lookup("dict")
	if name == "" {
		return values, nil, nil
	}
	p.Check(values == nil, "%s takes values= or dict=, not both", gen)
	p.Check(!weighted, "%s takes weights= with values=, not with dict=", gen)
	return Dictionary(name)
}

// builtins are the built-in PGs by DSL name. Each factory reads its
// parameters through p, which refuses the ones it did not read.
var builtins = map[string]Factory{
	"categorical": func(p *schema.Params) (Generator, error) {
		ws := p.List("weights")
		values, weights, err := valueList(p, "categorical", ws != nil)
		if err != nil {
			return nil, err
		}
		for _, w := range ws {
			f, err := strconv.ParseFloat(w, 64)
			p.Check(err == nil, "categorical weight %q: %v", w, err)
			weights = append(weights, f)
		}
		return NewCategorical(values, weights)
	},
	"zipf": func(p *schema.Params) (Generator, error) {
		theta := p.Float("theta", 1.0)
		values, _, err := valueList(p, "zipf", false)
		if err != nil {
			return nil, err
		}
		return NewZipfCategorical(values, theta)
	},
	"uniform-int": func(p *schema.Params) (Generator, error) {
		lo, hi := p.Int64("lo", 0), p.Int64("hi", 100)
		p.Check(lo <= hi, "uniform-int range [%d,%d] empty", lo, hi)
		p.Check(hi-lo+1 > 0, "uniform-int range [%d,%d] holds more than %d values", lo, hi, int64(math.MaxInt64))
		return &UniformInt{Lo: lo, Hi: hi}, nil
	},
	"uniform-float": func(p *schema.Params) (Generator, error) {
		lo, hi := p.Float("lo", 0), p.Float("hi", 1)
		p.Check(lo < hi, "uniform-float range [%v,%v) empty", lo, hi)
		return &UniformFloat{Lo: lo, Hi: hi}, nil
	},
	"uniform-date": func(p *schema.Params) (Generator, error) {
		from, to := p.Date("from", "2010-01-01"), p.Date("to", "2020-01-01")
		p.Check(from <= to, "uniform-date range [%s,%s] empty", table.FormatDate(from), table.FormatDate(to))
		return &UniformDate{From: from, To: to}, nil
	},
	"normal": func(p *schema.Params) (Generator, error) {
		mean, std := p.Float("mean", 0), p.Float("std", 1)
		p.Check(std >= 0, "normal needs std >= 0, got %v", std)
		return &Normal{Mean: mean, Std: std}, nil
	},
	"sequence": func(p *schema.Params) (Generator, error) {
		return &Sequence{Offset: p.Int64("offset", 0)}, nil
	},
	"uuid": func(p *schema.Params) (Generator, error) {
		return UUID{}, nil
	},
	"constant": func(p *schema.Params) (Generator, error) {
		v, ok := p.Lookup("value")
		p.Check(ok, "constant needs value=")
		return &Constant{Value: v}, nil
	},
	"text": func(p *schema.Params) (Generator, error) {
		lo, hi := p.Int64("min", 3), p.Int64("max", 12)
		p.Check(1 <= lo && lo <= hi && hi <= maxTextWords, "text word bounds [%d,%d] invalid (want 1 <= min <= max <= %d)", lo, hi, maxTextWords)
		return &Text{MinWords: int(lo), MaxWords: int(hi)}, nil
	},
	"multi-categorical": func(p *schema.Params) (Generator, error) {
		lo, hi := p.Int("min", 1), p.Int("max", 3)
		sep, _ := p.Lookup("sep")
		values, weights, err := valueList(p, "multi-categorical", false)
		if err != nil {
			return nil, err
		}
		return NewMultiCategorical(values, weights, lo, hi, sep)
	},
	"dictionary": func(p *schema.Params) (Generator, error) {
		dict, _ := p.Lookup("dict")
		return NewConditionalName(dict)
	},
	"max-endpoint-date": func(p *schema.Params) (Generator, error) {
		maxDays := p.Int64("maxDays", 365)
		if maxDays <= 0 {
			maxDays = 365
		}
		p.Check(maxDays <= table.MaxDate-table.MinDate, "max-endpoint-date maxDays=%d is longer than the date domain (%d days)", maxDays, table.MaxDate-table.MinDate)
		return &MaxEndpointDate{MaxLagDays: maxDays}, nil
	},
	"endpoint-copy": func(p *schema.Params) (Generator, error) {
		return &EndpointCopy{}, nil
	},
	"rating": func(p *schema.Params) (Generator, error) {
		lo, hi := p.Int64("lo", 1), p.Int64("hi", 5)
		p.Check(lo < hi, "rating range [%d,%d] invalid", lo, hi)
		return &Rating{Lo: lo, Hi: hi}, nil
	},
}
