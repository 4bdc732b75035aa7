package table

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// JSON string and float cells, byte-identical to encoding/json's default
// configuration (HTML escaping on): the escape tables and float
// formatting below mirror the stdlib encoder exactly, and the fuzz tests
// in enc_fuzz_test.go hold both side by side.

const jsonHexDigits = "0123456789abcdef"

// jsonSafeSet marks the ASCII bytes encoding/json (with its default
// HTML escaping) emits verbatim inside a string literal: the printable
// range except the JSON metacharacters '"' and '\\' and the
// HTML-sensitive '<', '>' and '&'.
var jsonSafeSet [utf8.RuneSelf]bool

func init() {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		switch c {
		case '"', '\\', '<', '>', '&':
		default:
			jsonSafeSet[c] = true
		}
	}
}

// appendJSONString appends s as a JSON string literal exactly as
// encoding/json renders it: two-character escapes for quote,
// backslash, BS, FF, LF, CR and TAB, a six-character escape for other
// control bytes and the HTML-escaped set, U+FFFD for invalid UTF-8,
// and six-character escapes for the JS line separators U+2028/U+2029.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafeSet[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', jsonHexDigits[b>>4], jsonHexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', jsonHexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f exactly as encoding/json renders a
// float64: shortest representation, 'f' format except for magnitudes
// outside [1e-6, 1e21), and the stdlib's exponent cleanup (e-09 →
// e-9). NaN and ±Inf have no JSON encoding — the stdlib errors on
// them, and so does this encoder.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("unsupported JSON value %v", f)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
