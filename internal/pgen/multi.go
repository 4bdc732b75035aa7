package pgen

import (
	"fmt"
	"slices"

	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// MultiCategorical implements the paper's future-work multi-valued
// properties ("performing experiments for multi-valued properties
// would also be interesting"): each instance receives a *set* of 1..Max
// distinct categorical values, rendered as a separator-joined string
// (e.g. interests = "music;travel;science"). The first value is drawn
// from the full weighted distribution and acts as the instance's
// primary value — the one correlation matching uses when a multi-valued
// property is correlated with structure.
type MultiCategorical struct {
	inner     *Categorical
	Min, Max  int
	Separator string
	width     int // mean bytes a value and its separator take
}

// NewMultiCategorical builds the generator. min >= 1, max >= min, and
// max must not exceed the number of distinct values.
func NewMultiCategorical(values []string, weights []float64, min, max int, sep string) (*MultiCategorical, error) {
	c, err := NewCategorical(values, weights)
	if err != nil {
		return nil, err
	}
	if min < 1 || max < min {
		return nil, fmt.Errorf("pgen: multi-categorical set size bounds [%d,%d] invalid", min, max)
	}
	if max > len(values) {
		return nil, fmt.Errorf("pgen: set size %d exceeds %d distinct values", max, len(values))
	}
	if sep == "" {
		sep = ";"
	}
	total := 0
	for _, v := range values {
		total += len(v)
	}
	return &MultiCategorical{inner: c, Min: min, Max: max, Separator: sep, width: total/len(values) + len(sep) + 1}, nil
}

func (m *MultiCategorical) Name() string          { return "multi-categorical" }
func (m *MultiCategorical) Kind() table.ValueKind { return table.KindString }
func (m *MultiCategorical) Arity() int            { return 0 }

// Fill implements Generator: a weighted draw for the primary value, then
// distinct extra values by rejection.
func (m *MultiCategorical) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	dst.Grow(int(hi-lo), int(hi-lo)*(m.Min+m.Max+1)/2*m.width)
	sub := s.DeriveStream("multi")
	chosen := make([]int, 0, m.Max)
	for id := lo; id < hi; id++ {
		size := m.Min
		if m.Max > m.Min {
			size += int(s.Intn(id*3+1, int64(m.Max-m.Min+1)))
		}
		chosen = chosen[:0]
		for draw := int64(0); len(chosen) < size; draw++ {
			k := m.inner.dist.SampleU(sub.Float64(id*64 + draw))
			if slices.Contains(chosen, k) {
				if draw > int64(64*size) {
					break // weights may make distinct draws improbable
				}
				continue
			}
			if len(chosen) > 0 {
				dst.Data = append(dst.Data, m.Separator...)
			}
			chosen = append(chosen, k)
			dst.Data = append(dst.Data, m.inner.values[k]...)
		}
		dst.EndCell()
	}
	return nil
}
