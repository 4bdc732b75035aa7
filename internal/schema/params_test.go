package schema

import (
	"strings"
	"testing"
)

// TestParamsReads: each typed read parses a set value, keeps the
// default for an unset or empty one, and a malformed value is the error
// that sticks, naming the generator, the parameter and what it should
// have been.
func TestParamsReads(t *testing.T) {
	p := NewParams("g", map[string]string{"i": "-3", "j": "1099511627776", "f": "0.25", "b": "true", "d": "1970-01-11", "l": " a | |b|", "e": ""})
	if got := p.Int("i", 7); got != -3 {
		t.Errorf("Int = %d", got)
	}
	if got := p.Int64("j", 7); got != 1<<40 {
		t.Errorf("Int64 = %d", got)
	}
	if got := p.Float("f", 7); got != 0.25 {
		t.Errorf("Float = %v", got)
	}
	if got := p.Bool("b", false); !got {
		t.Error("Bool = false")
	}
	if got := p.Date("d", "2000-01-01"); got != 10 {
		t.Errorf("Date = %d", got)
	}
	if got := p.List("l"); strings.Join(got, ",") != "a,b" {
		t.Errorf("List = %q", got)
	}
	if got, unset := p.Int("e", 7), p.Float("unset", 1.5); got != 7 || unset != 1.5 {
		t.Errorf("defaults = %d, %v", got, unset)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		vals map[string]string
		read func(*Params)
		want string
	}{
		{map[string]string{"x": "1.5"}, func(p *Params) { p.Int("x", 0) }, `g parameter x="1.5" is not an integer`},
		{map[string]string{"x": "99999999999999999999"}, func(p *Params) { p.Int("x", 0) }, "is not an integer in range"},
		{map[string]string{"x": "99999999999999999999"}, func(p *Params) { p.Int64("x", 0) }, "is not an integer in range"},
		{map[string]string{"x": "half"}, func(p *Params) { p.Float("x", 0) }, "is not a number"},
		{map[string]string{"x": "yes"}, func(p *Params) { p.Bool("x", false) }, "is not a boolean"},
		{map[string]string{"x": "2020-13-45"}, func(p *Params) { p.Date("x", "2000-01-01") }, "g parameter x: table: bad date"},
		// The first error sticks.
		{map[string]string{"x": "a", "y": "b"}, func(p *Params) { p.Int("x", 0); p.Float("y", 0); p.Check(false, "later") }, `x="a"`},
	} {
		p := NewParams("g", c.vals)
		c.read(p)
		if err := p.Err(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: Err = %v, want %q", c.vals, err, c.want)
		}
	}
}

// TestParamsUnread: Err names every parameter the spec gives that was
// never read, with the ones that were, before any failed check — the
// misspelling is the likelier cause.
func TestParamsUnread(t *testing.T) {
	p := NewParams("g", map[string]string{"low": "5", "hi": "1", "zz": "2"})
	lo, hi := p.Int64("lo", 0), p.Int64("hi", 100)
	p.Check(lo <= hi, "range [%d,%d] empty", lo, hi)
	if err := p.Err(); err == nil || err.Error() != "g has no parameter low, zz (it has: hi, lo)" {
		t.Errorf("Err = %v", err)
	}
	p = NewParams("none", map[string]string{"x": "1"})
	if err := p.Err(); err == nil || err.Error() != "none has no parameter x (it has: none)" {
		t.Errorf("Err = %v", err)
	}
	p = NewParams("g", map[string]string{"value": ""})
	if v, ok := p.Lookup("value"); v != "" || !ok {
		t.Errorf("Lookup of an empty value = %q, %v; want it present", v, ok)
	}
	if _, ok := p.Lookup("other"); ok || p.Err() != nil {
		t.Errorf("Lookup of an unset key: ok %v, Err %v", ok, p.Err())
	}
}
