package measuredb

import (
	"bytes"
	"strconv"
	"testing"
	"time"
	"unicode/utf8"
)

// The scanner's two hand-tuned primitives against their references:
// plainString, which takes a word at a time, against the byte loop it
// replaced, and parseRFC3339, which computes the instant arithmetically,
// against time.Time.UnmarshalJSON. Exhaustively where that is cheap,
// then under fuzz.

// bytePlainString is plainString as a byte loop, the reference.
func bytePlainString(b []byte, i int) ([]byte, int) {
	if i >= len(b) || b[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(b) && b[j] != '\\' && b[j] >= 0x20; j++ {
		if b[j] == '"' {
			return b[i+1 : j], j + 1
		}
	}
	return nil, -1
}

// checkScanString holds scanString at b[i] to the byte loop, and its
// high flag to "the body holds a byte >= 0x80".
func checkScanString(t *testing.T, b []byte, i int) {
	t.Helper()
	body, end, high := scanString(b, i)
	wantBody, wantEnd := bytePlainString(b, i)
	wantHigh := wantEnd >= 0 && bytes.ContainsFunc(wantBody, func(r rune) bool { return r >= utf8.RuneSelf })
	if end != wantEnd || !bytes.Equal(body, wantBody) || high != wantHigh {
		t.Fatalf("scanString(%q, %d) = %q, %d, high=%v; byte loop: %q, %d, high=%v", b, i, body, end, high, wantBody, wantEnd, wantHigh)
	}
}

// TestPlainStringMatchesByteLoop puts each byte that can end or spoil a
// string — '"', '\\', every control byte, and 0x7f, 0x80, 0xff, which
// must not — at every position of every body length up to 40, behind
// every string offset inside a word, closed and unclosed, with more
// input after it. So every lane of the word and every tail length
// decides once.
func TestPlainStringMatchesByteLoop(t *testing.T) {
	specials := []byte{'"', '\\', 0x7f, 0x80, 0xff}
	for c := byte(0); c < 0x20; c++ {
		specials = append(specials, c)
	}
	for off := 0; off < 8; off++ {
		for n := 0; n <= 40; n++ {
			body := bytes.Repeat([]byte{'a'}, n)
			for _, tail := range []string{"", `"`, `",`, `","at":"2015-03-09T10:00:00Z"}`} {
				b := append(append(append(bytes.Repeat([]byte{' '}, off), '"'), body...), tail...)
				checkScanString(t, b, off)
				for p := 0; p < n; p++ {
					for _, c := range specials {
						b[off+1+p] = c
						checkScanString(t, b, off)
						b[off+1+p] = 'a'
					}
				}
			}
		}
	}
}

// TestParseRFC3339MatchesUnmarshalJSON walks every day of years at the
// edges of the calendar arithmetic — 0000 (whose January and February
// belong to the era before), the century and 400-year leap rules, the
// epoch, the ends of the int64-nanosecond range, 9999 — at the first and
// last second of the day, whole and with fractions of 1 to 9 digits.
// Every stamp must parse and equal encoding/json's instant exactly.
func TestParseRFC3339MatchesUnmarshalJSON(t *testing.T) {
	years := []int{0, 1, 399, 400, 1600, 1677, 1969, 1970, 2000, 2100, 2262, 9999}
	const frac = ".123456789"
	for _, y := range years {
		day := time.Date(y, 1, 1, 0, 0, 0, 0, time.UTC)
		for ; day.Year() == y; day = day.AddDate(0, 0, 1) {
			for _, clock := range []string{"00:00:00", "23:59:59"} {
				for digits := 0; digits <= 9; digits++ {
					stamp := day.Format("2006-01-02") + "T" + clock
					if digits > 0 {
						stamp += frac[:digits+1]
					}
					checkRFC3339(t, []byte(stamp+"Z"), true)
				}
			}
		}
	}
	for _, bad := range []string{"2015-02-29T00:00:00Z", "2100-02-29T00:00:00Z", "0000-00-10T00:00:00Z",
		"1970-13-01T00:00:00Z", "1970-01-32T00:00:00Z", "1970-01-01T24:00:00Z", "1970-01-01T00:00:60Z",
		"1970-01-01T00:00:00.Z", "1970-01-01T00:00:00.1234567890Z", "1970-01-01T00:00:00+01:00"} {
		checkRFC3339(t, []byte(bad), false)
	}
}

// checkRFC3339 holds parseRFC3339(b) to time.Time.UnmarshalJSON on the
// quoted stamp: where the fast parse accepts, the instants are identical
// (==, not only Equal); where it must accept (mustParse), it does.
func checkRFC3339(t *testing.T, b []byte, mustParse bool) {
	t.Helper()
	got, ok := parseRFC3339(b)
	if mustParse && !ok {
		t.Fatalf("parseRFC3339(%q) refused", b)
	}
	if !ok {
		return
	}
	var want time.Time
	if err := want.UnmarshalJSON([]byte(strconv.Quote(string(b)))); err != nil {
		t.Fatalf("parseRFC3339(%q) = %v; UnmarshalJSON refuses it: %v", b, got, err)
	}
	if got != want {
		t.Fatalf("parseRFC3339(%q) = %v; UnmarshalJSON: %v", b, got, want)
	}
}

// FuzzRowScanPrimitives holds plainString to the byte loop at every
// offset of the input, and parseRFC3339 to time.Time.UnmarshalJSON.
func FuzzRowScanPrimitives(f *testing.F) {
	for _, s := range []string{`"urn:district:turin/building:b03/device:m01"`, `"temperature",`,
		`"café"`, "\"tab\there\"", `"unterminated`, "2015-03-09T10:00:00.123456789Z",
		"0000-01-01T00:00:00Z", "0000-02-29T23:59:59.5Z", "1677-09-21T00:12:43.145224192Z", "9999-12-31T23:59:59Z"} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for i := range min(len(b), 16) {
			checkScanString(t, b, i)
		}
		checkRFC3339(t, b, false)
	})
}
