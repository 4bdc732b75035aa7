package table

import (
	"fmt"
	"time"
)

// Dates are stored as int64 days since the Unix epoch. Keeping them
// numeric lets date properties participate in arithmetic constraints
// such as the running example's "knows.creationDate is greater than the
// creationDate of the two connected Persons".

// dateLayout is the on-disk/DSL date format.
const dateLayout = "2006-01-02"

// MinDate and MaxDate bound the date domain, 0001-01-01 … 9999-12-31:
// the days that render as four-digit-year "YYYY-MM-DD". ParseDate
// returns nothing outside it and the encoders refuse to write a cell
// outside it.
const (
	MinDate int64 = -719162
	MaxDate int64 = 2932896
)

// ParseDate converts "YYYY-MM-DD" to days since the Unix epoch.
func ParseDate(s string) (int64, error) {
	t, err := time.Parse(dateLayout, s)
	if err != nil {
		return 0, fmt.Errorf("table: bad date %q: %w", s, err)
	}
	days := t.Unix() / 86400
	if days < MinDate {
		return 0, fmt.Errorf("table: date %q is before 0001-01-01", s)
	}
	return days, nil
}

// MustParseDate is ParseDate that panics on error; for literals.
func MustParseDate(s string) int64 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// FormatDate converts days since the Unix epoch back to "YYYY-MM-DD";
// a value outside the date domain renders as "date(<days>)".
func FormatDate(days int64) string {
	if days < MinDate || days > MaxDate {
		return fmt.Sprintf("date(%d)", days)
	}
	return string(appendDate(nil, days))
}

// digitPairs is "000102…99": the two decimal digits of every n < 100.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendDate appends the ISO rendering of a day inside the date domain,
// by the days-to-civil arithmetic of the proleptic Gregorian calendar
// (time.Time's calendar): count from 0000-03-01, so that a leap day
// ends its year, and split into 400-year eras of 146097 days.
func appendDate(dst []byte, days int64) []byte {
	z := days + 719468 // days since 0000-03-01; positive inside the domain
	era := z / 146097
	doe := z - era*146097                                  // day of era
	yoe := (doe - doe/1460 + doe/36524 - doe/146096) / 365 // year of era
	doy := doe - (365*yoe + yoe/4 - yoe/100)               // day of the March-based year
	mp := (5*doy + 2) / 153                                // March-based month
	day := doy - (153*mp+2)/5 + 1
	year, month := yoe+era*400, mp+3
	if month > 12 {
		year, month = year+1, month-12
	}
	return append(dst,
		digitPairs[year/100*2], digitPairs[year/100*2+1], digitPairs[year%100*2], digitPairs[year%100*2+1], '-',
		digitPairs[month*2], digitPairs[month*2+1], '-',
		digitPairs[day*2], digitPairs[day*2+1])
}
