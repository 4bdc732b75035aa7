package schema

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

	"datasynth/internal/table"
)

// Params reads one generator spec's parameters; it is the only reader
// the property and structure registries give their factories. The first
// malformed value or failed Check sticks, so a factory reads and checks
// everything in straight-line code, and Err then also refuses every
// parameter the spec names that the factory never read: a misspelt name
// must not generate with the default and be cached under a hash of its
// own.
type Params struct {
	gen  string // generator name, for messages
	vals map[string]string
	read []string
	err  error
}

// NewParams returns a reader of the parameters vals given to generator
// gen.
func NewParams(gen string, vals map[string]string) *Params {
	return &Params{gen: gen, vals: vals}
}

// Lookup returns the raw value of key and whether the spec names it.
func (p *Params) Lookup(key string) (string, bool) {
	if !slices.Contains(p.read, key) {
		p.read = append(p.read, key)
	}
	v, ok := p.vals[key]
	return v, ok
}

// value returns the value of key, ok false when the spec leaves it unset
// or empty and the default applies.
func (p *Params) value(key string) (string, bool) {
	v, _ := p.Lookup(key)
	return v, v != ""
}

// Check records a failed check, formatted as an error, unless an earlier
// error stuck.
func (p *Params) Check(ok bool, format string, args ...any) {
	if !ok && p.err == nil {
		p.err = fmt.Errorf(format, args...)
	}
}

// parsed reads key through parse; a malformed value records an error
// naming what it should have been and returns def.
func parsed[T any](p *Params, key string, def T, want string, parse func(string) (T, error)) T {
	v, ok := p.value(key)
	if !ok {
		return def
	}
	x, err := parse(v)
	if errors.Is(err, strconv.ErrRange) {
		want += " in range"
	}
	p.Check(err == nil, "%s parameter %s=%q is not %s", p.gen, key, v, want)
	if err != nil {
		return def
	}
	return x
}

// Int reads an integer that fits an int on this platform.
func (p *Params) Int(key string, def int) int {
	return parsed(p, key, def, "an integer", strconv.Atoi)
}

// Int64 reads a 64-bit integer.
func (p *Params) Int64(key string, def int64) int64 {
	return parsed(p, key, def, "an integer", func(v string) (int64, error) { return strconv.ParseInt(v, 10, 64) })
}

// Float reads a number.
func (p *Params) Float(key string, def float64) float64 {
	return parsed(p, key, def, "a number", func(v string) (float64, error) { return strconv.ParseFloat(v, 64) })
}

// Bool reads a boolean.
func (p *Params) Bool(key string, def bool) bool {
	return parsed(p, key, def, "a boolean", strconv.ParseBool)
}

// Date reads a "YYYY-MM-DD" date as days since the epoch; def is the
// date an unset key reads as.
func (p *Params) Date(key, def string) int64 {
	if v, ok := p.value(key); ok {
		def = v
	}
	d, err := table.ParseDate(def)
	p.Check(err == nil, "%s parameter %s: %v", p.gen, key, err)
	return d
}

// List reads a "|"-separated list, dropping blank entries; nil when the
// key is unset.
func (p *Params) List(key string) []string {
	v, _ := p.Lookup(key)
	var out []string
	for _, part := range strings.Split(v, "|") {
		if t := strings.TrimSpace(part); t != "" {
			out = append(out, t)
		}
	}
	return out
}

// Err names the parameters the spec gives that were never read, else
// returns the first malformed value or failed check: a misspelt name is
// the likelier cause of a failed check (text(mn=5, max=2) fails its
// bounds because min kept its default).
func (p *Params) Err() error {
	var unknown []string
	for _, k := range slices.Sorted(maps.Keys(p.vals)) {
		if !slices.Contains(p.read, k) {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) == 0 {
		return p.err
	}
	has := "none"
	if len(p.read) > 0 {
		slices.Sort(p.read)
		has = strings.Join(p.read, ", ")
	}
	return fmt.Errorf("%s has no parameter %s (it has: %s)", p.gen, strings.Join(unknown, ", "), has)
}
