package table

import (
	"unicode"
	"unicode/utf8"
)

// CSV string cells. The quoting rules mirror encoding/csv
// (UseCRLF = false), so any parser that accepts its files accepts
// these, bit for bit.

// csvFieldNeedsQuotes replicates encoding/csv's quoting decision with
// its default ',' separator: quote when the field contains a comma, a
// quote or a line break, starts with a space, or is the Postgres
// end-of-data marker `\.`. This mirrors go1.24's fieldNeedsQuotes byte for byte —
// an earlier revision kept the pre-1.24 special case for
// space-separated files (quote on any interior space), which the fuzz
// cross-check against encoding/csv flagged as a divergence.
func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		if c := field[i]; c == '\n' || c == '\r' || c == '"' || c == ',' {
			return true
		}
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// appendCSVField appends one string cell, quoted exactly as
// encoding/csv (UseCRLF = false) would emit it: embedded quotes double,
// everything else passes through verbatim inside the quotes.
func appendCSVField(dst []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
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
