package pgen

import (
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Derived edge-property generators: these implement the paper's
// "binary logical relations between numerical values", e.g. the running
// example's constraint that knows.creationDate must be greater than the
// creationDate of both connected Persons. Their dependencies are the
// endpoint property values (resolved by the engine through the edge's
// tail/head ids).

// MaxEndpointDate produces max(dep dates) + uniform(1, MaxLagDays)
// days, guaranteeing the edge date strictly exceeds both endpoint
// dates.
type MaxEndpointDate struct {
	// MaxLagDays bounds the added lag; at least 1.
	MaxLagDays int64
}

func (m *MaxEndpointDate) Name() string          { return "max-endpoint-date" }
func (m *MaxEndpointDate) Kind() table.ValueKind { return table.KindDate }

// Arity implements Generator: one endpoint date or more, usually (tail
// date, head date).
func (m *MaxEndpointDate) Arity() int { return 1 }

func (m *MaxEndpointDate) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, deps []table.Chunk) error {
	copy(dst.Ints, deps[0].Ints)
	for _, d := range deps[1:] {
		for i, v := range d.Ints {
			dst.Ints[i] = max(dst.Ints[i], v)
		}
	}
	for i := range dst.Ints {
		dst.Ints[i] += 1 + s.Intn(lo+int64(i), m.MaxLagDays)
	}
	return nil
}

// EndpointCopy copies its single dependency column through — e.g. an
// edge property mirroring a node property for denormalised exports. Its
// kind and string layout are the dependency's.
type EndpointCopy struct{}

func (EndpointCopy) Name() string          { return "endpoint-copy" }
func (EndpointCopy) Kind() table.ValueKind { return table.KindString }
func (EndpointCopy) Arity() int            { return 1 }

// Vocabulary implements Coded: the dependency's value list, if it has
// one.
func (EndpointCopy) Vocabulary(deps []*table.PropertyTable) []string {
	_, dict := deps[0].Coded()
	return dict
}

func (EndpointCopy) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, deps []table.Chunk) error {
	src := &deps[0]
	copy(dst.Ints, src.Ints)
	copy(dst.Floats, src.Floats)
	copy(dst.Codes, src.Codes)
	if src.Offs != nil {
		dst.Offs = append(dst.Offs, src.Offs...)
		dst.Data = append(dst.Data, src.Data[src.Offs[0]:src.Offs[len(src.Offs)-1]]...)
		for i := range dst.Offs {
			dst.Offs[i] -= src.Offs[0]
		}
	}
	return nil
}

// Rating produces an integer rating in [Lo, Hi] with a J-shaped
// distribution (mass concentrated at the extremes, as observed in real
// review datasets).
type Rating struct{ Lo, Hi int64 }

func (r *Rating) Name() string          { return "rating" }
func (r *Rating) Kind() table.ValueKind { return table.KindInt }
func (r *Rating) Arity() int            { return 0 }

func (r *Rating) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, _ []table.Chunk) error {
	span := r.Hi - r.Lo
	for i := range dst.Ints {
		id := lo + int64(i)
		// J-shape: 50% top rating, 20% bottom, rest uniform in between.
		switch u := s.Float64(id); {
		case u < 0.5:
			dst.Ints[i] = r.Hi
		case u < 0.7 || span < 2:
			dst.Ints[i] = r.Lo
		default:
			dst.Ints[i] = r.Lo + 1 + s.Intn(id+1<<40, span-1)
		}
	}
	return nil
}
