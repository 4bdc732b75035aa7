// Package pgen implements DataSynth's Property Generators (paper
// Section 4.1). A Property Generator (PG) produces the value of one
// property for one instance id:
//
//	run : (id, r(id), val_0, …, val_k) -> T
//
// where r(id) is the instance's deterministic random draw and val_j are
// the values of the properties this one is conditioned on. Because run
// depends only on (id, r(id), deps), any row can be regenerated
// in-place on any worker — the Myriad technique the paper adopts — and
// rows can be generated in parallel in any order.
//
// # Writing a generator
//
// The engine never calls run one row at a time: Generator.Fill gets a
// run of consecutive ids and the typed slices to write them into (a
// table.Chunk), so a built-in generator is one tight loop per column
// with no per-cell call, boxing or check. Fill must be a pure function
// of (id, stream, deps): however [0, n) is cut into chunks, and in
// whatever order they are filled, every id gets the same value. That
// purity is also what lets the engine not run Fill at all during
// generation: a column no other property, correlation or edge reads is
// filled chunk by chunk inside the export, by the encoder writing its
// file, into a scratch chunk that the next chunk overwrites. So Fill may
// run during the export, on any goroutine, several times for the same
// rows (once per exported format, and again if a reader asks for the
// column), and concurrently with itself — keep no state between calls,
// and do not hold on to dst or deps after returning.
//
//   - A generator that is naturally row-at-a-time is five lines through
//     PerRow, which wraps a run function in the chunk loop.
//   - A kernel writes dst.Ints or dst.Floats in place; a string kernel
//     appends cells to the chunk's byte arena (Chunk.Grow, AppendStr) or,
//     when every value comes from a finite list, implements Coded and
//     writes dst.Codes — which is what lets the matcher and the encoders
//     work per distinct value instead of per row.
//   - Parameters are checked once, in the Factory, which reads them
//     through schema.Params as structure generators do; Build refuses one
//     the factory never read. core.ValidateSchema builds every generator
//     of a schema before any row is generated, and Fill returns an error
//     only for what depends on the data.
package pgen

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"datasynth/internal/schema"
	"datasynth/internal/table"
	"datasynth/internal/xrand"
)

// Generator is the PG interface. Implementations must be pure: the
// result may depend only on the inputs.
type Generator interface {
	// Name is the DSL identifier.
	Name() string
	// Kind is the value kind produced.
	Kind() table.ValueKind
	// Arity is the number of dependency columns Fill needs; the engine
	// rejects a property that declares fewer.
	Arity() int
	// Fill writes the values of instances [lo, hi) into dst, whose
	// slices hold hi-lo cells (an arena string chunk arrives empty). s
	// is the property's dedicated stream (one per PT, as the paper
	// requires); deps carries the same rows of the depended-on
	// properties, in declaration order.
	Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, deps []table.Chunk) error
}

// Coded is implemented by string generators whose values all come from
// a finite list. Vocabulary returns that list given the dependency
// columns, and Fill then writes dst.Codes, indices into it; a nil
// Vocabulary means the values are open-ended after all and Fill gets
// an arena chunk.
type Coded interface {
	Vocabulary(deps []*table.PropertyTable) []string
}

// Value is one cell boxed for PerRow's run functions; the field that
// matches the column's kind is the one that counts (dates use Int, as
// days since the epoch).
type Value struct {
	Str   string
	Int   int64
	Float float64
}

// PerRow builds a Generator from the paper's row-at-a-time run
// function. The engine pays a call and a boxed Value per cell for it,
// so it suits custom and test generators, not hot built-ins. A string
// generator built this way fills arena chunks.
func PerRow(name string, kind table.ValueKind, arity int, run func(id int64, s xrand.Stream, deps []Value) (Value, error)) Generator {
	return &perRow{name, kind, arity, run}
}

type perRow struct {
	name  string
	kind  table.ValueKind
	arity int
	run   func(id int64, s xrand.Stream, deps []Value) (Value, error)
}

func (p *perRow) Name() string          { return p.name }
func (p *perRow) Kind() table.ValueKind { return p.kind }
func (p *perRow) Arity() int            { return p.arity }

func (p *perRow) Fill(dst *table.Chunk, lo, hi int64, s xrand.Stream, deps []table.Chunk) error {
	if dst.Ints == nil && dst.Floats == nil {
		dst.Grow(int(hi-lo), 0)
	}
	vals := make([]Value, len(deps))
	for i := 0; i < int(hi-lo); i++ {
		for k := range deps {
			d := &deps[k]
			vals[k] = Value{Str: d.Str(i)}
			if d.Ints != nil {
				vals[k].Int = d.Ints[i]
			} else if d.Floats != nil {
				vals[k].Float = d.Floats[i]
			}
		}
		v, err := p.run(lo+int64(i), s, vals)
		switch {
		case err != nil:
			return fmt.Errorf("row %d: %w", lo+int64(i), err)
		case dst.Ints != nil:
			dst.Ints[i] = v.Int
		case dst.Floats != nil:
			dst.Floats[i] = v.Float
		default:
			dst.AppendStr(v.Str)
		}
	}
	return nil
}

// Factory builds a Generator from the DSL parameters p reads.
type Factory func(p *schema.Params) (Generator, error)

// Registry maps generator names to factories; the engine and DSL
// resolve schema.GeneratorSpec through it. It corresponds to the
// paper's "pluggable objects that can be referenced from the DSL": a
// custom generator is one more entry.
type Registry map[string]Factory

// NewRegistry returns a registry holding every built-in PG.
func NewRegistry() Registry { return maps.Clone(builtins) }

// Build resolves a generator spec. A malformed or unread parameter, or
// a failed check, fails before the factory's own error.
func (r Registry) Build(name string, params map[string]string) (Generator, error) {
	f, ok := r[name]
	if !ok {
		return nil, fmt.Errorf("pgen: unknown generator %q (have: %s)", name, strings.Join(r.Names(), ", "))
	}
	p := schema.NewParams(name, params)
	g, err := f(p)
	if perr := p.Err(); perr != nil {
		return nil, fmt.Errorf("pgen: %w", perr)
	}
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Names lists registered generators, sorted.
func (r Registry) Names() []string { return slices.Sorted(maps.Keys(r)) }
