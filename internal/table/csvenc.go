package table

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// CSV string cells. The quoting rules mirror encoding/csv
// (UseCRLF = false), so any parser that accepts its files accepts
// these, bit for bit.

// csvFieldNeedsQuotes replicates encoding/csv's quoting decision for a
// separator rune: quote when the field contains the separator, a quote
// or a line break, starts with a space, or is the Postgres end-of-data
// marker `\.`. This mirrors go1.24's fieldNeedsQuotes byte for byte —
// an earlier revision kept the pre-1.24 special case for
// space-separated files (quote on any interior space), which the fuzz
// cross-check against encoding/csv flagged as a divergence.
func csvFieldNeedsQuotes(field string, comma rune) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	if comma < utf8.RuneSelf {
		for i := 0; i < len(field); i++ {
			c := field[i]
			if c == '\n' || c == '\r' || c == '"' || c == byte(comma) {
				return true
			}
		}
	} else {
		if strings.ContainsRune(field, comma) || strings.ContainsAny(field, "\"\r\n") {
			return true
		}
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// appendCSVField appends one string cell, quoted exactly as
// encoding/csv (UseCRLF = false) would emit it: embedded quotes double,
// everything else passes through verbatim inside the quotes.
func appendCSVField(dst []byte, field string, comma rune) []byte {
	if !csvFieldNeedsQuotes(field, comma) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		if c := field[i]; c == '"' {
			dst = append(dst, '"', '"')
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}
