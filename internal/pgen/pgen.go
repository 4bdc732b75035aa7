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
//   - Parameters are checked once, in the Factory: core.ValidateSchema
//     builds every generator of a schema before any row is generated,
//     and Fill returns an error only for what depends on the data.
package pgen

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

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

// Factory builds a Generator from DSL parameters.
type Factory func(params map[string]string) (Generator, error)

// Registry maps generator names to factories; the engine and DSL
// resolve schema.GeneratorSpec through it. It corresponds to the
// paper's "pluggable objects that can be referenced from the DSL".
type Registry struct {
	factories map[string]Factory
	// err records a failed built-in registration; registration used to
	// panic(err), which a service worker would die from. Build surfaces
	// it instead, so a broken registry fails one job, not the process.
	err error
}

// NewRegistry returns a registry preloaded with all built-in PGs.
func NewRegistry() *Registry {
	r := &Registry{factories: map[string]Factory{}}
	registerBuiltins(r)
	return r
}

// Register adds a factory; it fails on duplicates.
func (r *Registry) Register(name string, f Factory) error {
	if _, dup := r.factories[name]; dup {
		return fmt.Errorf("pgen: generator %q already registered", name)
	}
	r.factories[name] = f
	return nil
}

// Build resolves a generator spec.
func (r *Registry) Build(name string, params map[string]string) (Generator, error) {
	if r.err != nil {
		return nil, r.err
	}
	f, ok := r.factories[name]
	if !ok {
		return nil, fmt.Errorf("pgen: unknown generator %q (have: %s)", name, strings.Join(r.Names(), ", "))
	}
	return f(params)
}

// Names lists registered generators, sorted.
func (r *Registry) Names() []string { return slices.Sorted(maps.Keys(r.factories)) }

// params reads one factory's DSL parameters. The first malformed
// parameter or failed check sticks in err, so a factory reads and checks
// everything in straight-line code and ends with build.
type params struct {
	m   map[string]string
	err error
}

// fail records err unless an earlier error already stuck (or err is nil).
func (p *params) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// check records a failed parameter check.
func (p *params) check(ok bool, format string, args ...any) {
	if !ok {
		p.fail(fmt.Errorf("pgen: "+format, args...))
	}
}

func (p *params) int(key string, def int64) int64 {
	if p.m[key] == "" {
		return def
	}
	n, err := strconv.ParseInt(p.m[key], 10, 64)
	p.check(err == nil, "parameter %s=%q is not an integer", key, p.m[key])
	return n
}

func (p *params) float(key string, def float64) float64 {
	if p.m[key] == "" {
		return def
	}
	f, err := strconv.ParseFloat(p.m[key], 64)
	p.check(err == nil, "parameter %s=%q is not a number", key, p.m[key])
	return f
}

func (p *params) date(key, def string) int64 {
	if p.m[key] != "" {
		def = p.m[key]
	}
	d, err := table.ParseDate(def)
	p.fail(err)
	return d
}

// list splits a "|"-separated list parameter.
func (p *params) list(key string) []string {
	var out []string
	for _, part := range strings.Split(p.m[key], "|") {
		if t := strings.TrimSpace(part); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// dict is the embedded dictionary a dict= parameter names, if any.
func (p *params) dict() (values []string, weights []float64) {
	if name := p.m["dict"]; name != "" {
		var err error
		values, weights, err = Dictionary(name)
		p.fail(err)
	}
	return values, weights
}

// build returns the generator a factory constructed, unless a parameter
// was bad.
func (p *params) build(g Generator, err error) (Generator, error) {
	if p.fail(err); p.err != nil {
		return nil, p.err
	}
	return g, nil
}
