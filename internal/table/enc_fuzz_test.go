package table

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Fuzz harnesses holding the pooled append encoders against the stdlib
// encoders they claim byte-identity with. The CSV side cross-checks
// WriteNodeCSV / appendCSVField against encoding/csv over
// the legacy fmt-rendered cells; the JSON side cross-checks
// appendJSONFloat / appendJSONString against encoding/json — including
// its error behaviour on NaN and ±Inf, which have no JSON encoding.

// FuzzFloatEncoding: float cells must render identically through both
// pipelines for every representable float64 — the seeds pin the
// special values the paper's datasets actually produce (NaN, ±Inf, −0,
// subnormals, values at the 'e'/'f' format boundary).
func FuzzFloatEncoding(f *testing.F) {
	f.Add(0.0)
	f.Add(math.Copysign(0, -1)) // -0
	f.Add(math.NaN())
	f.Add(math.Inf(1))
	f.Add(math.Inf(-1))
	f.Add(5e-324) // smallest subnormal
	f.Add(2.2250738585072009e-308)
	f.Add(math.MaxFloat64)
	f.Add(1e-6)
	f.Add(9.999999e-7) // just below the 'e' format boundary
	f.Add(1e21)
	f.Add(1.0 / 3.0)
	f.Add(-2.5e-9)
	f.Fuzz(func(t *testing.T, v float64) {
		pt := NewPropertyTable("T.x", KindFloat, 1)
		pt.SetFloat(0, v)

		// CSV: the append encoder vs encoding/csv over the legacy
		// fmt-based rendering (PropertyTable.Format).
		var enc bytes.Buffer
		if err := WriteNodeCSV(&enc, "T", []*PropertyTable{pt}); err != nil {
			t.Fatal(err)
		}
		got := strings.TrimSuffix(strings.TrimPrefix(enc.String(), "id,x\n0,"), "\n")
		var ref bytes.Buffer
		w := csv.NewWriter(&ref)
		if err := w.Write([]string{pt.Format(0)}); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		want := strings.TrimSuffix(ref.String(), "\n")
		if got != want {
			t.Errorf("CSV rendering of %v: %q, encoding/csv %q", v, got, want)
		}

		// JSON: the append encoder vs encoding/json, including the
		// unsupported-value error on NaN/±Inf.
		gotJSON, gotErr := appendJSONFloat(nil, v)
		wantJSON, wantErr := json.Marshal(v)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("JSON error mismatch for %v: append %v, stdlib %v", v, gotErr, wantErr)
		}
		if gotErr == nil && !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("JSON rendering of %v: %q, encoding/json %q", v, gotJSON, wantJSON)
		}
	})
}

// FuzzCSVFieldEncoding: string cells must quote and escape exactly as
// encoding/csv.
func FuzzCSVFieldEncoding(f *testing.F) {
	f.Add("plain")
	f.Add("comma,inside")
	f.Add(`quote"inside`)
	f.Add("multi\nline\r\n")
	f.Add(" leading space")
	f.Add(`\.`)
	f.Add("tab\tsep")
	f.Add("ünïcødé ✓")
	f.Fuzz(func(t *testing.T, s string) {
		got := string(appendCSVField(nil, s))
		var ref bytes.Buffer
		w := csv.NewWriter(&ref)
		if err := w.Write([]string{s}); err != nil {
			// encoding/csv rejects fields only on invalid field runes;
			// our encoder has no error path, so surface the case.
			t.Skipf("encoding/csv rejected %q: %v", s, err)
		}
		w.Flush()
		want := strings.TrimSuffix(ref.String(), "\n")
		if got != want {
			t.Errorf("CSV field %q: %q, encoding/csv %q", s, got, want)
		}
	})
}

// FuzzJSONStringEncoding: string cells must escape exactly as
// encoding/json with default HTML escaping — control bytes, HTML
// metacharacters, invalid UTF-8, and the JS line separators.
func FuzzJSONStringEncoding(f *testing.F) {
	f.Add("plain")
	f.Add(`quote " backslash \`)
	f.Add("<script>&amp;</script>")
	f.Add("ctrl \x00\x01\x1f\t\n\r")
	f.Add("invalid \xff\xfe utf8 \xc3")
	f.Add("line seps   and  ")
	f.Add("\x7f")
	f.Fuzz(func(t *testing.T, s string) {
		got := appendJSONString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("JSON string %q: %q, encoding/json %q", s, got, want)
		}
	})
}
