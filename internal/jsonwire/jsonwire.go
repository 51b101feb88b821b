// Package jsonwire holds the append-based JSON value encoders shared by
// the read plane (measuredb's NDJSON rows and JSON sample pages), the
// live path (stream's event frames, measuredb's measurement payloads)
// and the Go client's ingest bodies (internal/client, through
// measuredb's row encoder). Each one produces output byte-identical to
// encoding/json — HTML escaping, U+2028/U+2029, the float exponent
// cleanup, RFC 3339 nano timestamps, base64 byte slices — so a caller
// that switches from json.Marshal to these changes no wire byte. It is
// a leaf: standard library only.
package jsonwire

import (
	"encoding/base64"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// plainASCII marks the bytes AppendString copies through unchanged:
// ASCII from 0x20 up, less '"', '\\' and the HTML set.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// AppendString appends s as a JSON string exactly as encoding/json
// encodes it: control characters, '"', '\\', the HTML set (&, <, >),
// and U+2028/U+2029 escaped; invalid UTF-8 bytes rendered as the
// six-byte escape `\ufffd` (the encoder escapes the replacement rune,
// it does not emit it literally).
//
// districtlint:hotpath
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plainASCII[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"':
				b = append(b, '\\', '"')
			case '\\':
				b = append(b, '\\', '\\')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f exactly as encoding/json encodes float64
// values: shortest form, 'e' notation outside [1e-6, 1e21) with the
// two-digit exponent's leading zero trimmed. A short decimal — a
// reading like 21.5 or -273.15 — is written digit by digit
// (appendShortDecimal); any other value is strconv's.
//
// districtlint:hotpath
func AppendFloat(b []byte, f float64) []byte {
	if out, ok := appendShortDecimal(b, f); ok {
		return out
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// pow10 holds the exact scales appendShortDecimal tries.
var pow10 = [...]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6}

// appendShortDecimal appends f when |f| is in [1e-6, 1e15) and equals
// m/10^k for an integer m < 10^15 and a k of at most 6: the first such
// k whose m, divided back by 10^k, gives f. That division is correctly
// rounded, so the decimal m·10^-k parses to f; it has at most 15
// significant digits, and two decimals that short which parse to the
// same float64 are one number (DBL_DIG = 15). It is therefore the
// shortest round-trip decimal strconv would find, and the digits of m,
// trailing zeros stripped, are its output byte for byte. It reports
// false, appending nothing, for any other value.
//
// districtlint:hotpath
func appendShortDecimal(b []byte, f float64) ([]byte, bool) {
	abs := math.Abs(f)
	if !(abs >= 1e-6 && abs < 1e15) {
		return b, false
	}
	k, m := 0, uint64(0)
	for ; ; k++ {
		if k == len(pow10) {
			return b, false
		}
		s := abs * pow10[k]
		if s >= 1e15 {
			return b, false
		}
		if m = uint64(s); float64(m) == s && s/pow10[k] == abs {
			break
		}
	}
	for k > 0 && m%10 == 0 {
		m, k = m/10, k-1
	}
	// Digits right to left: m, then the point and any zeros it needs.
	var buf [24]byte
	i := len(buf)
	for d := 0; m > 0 || d <= k; d++ {
		if d == k && k > 0 {
			i--
			buf[i] = '.'
		}
		i--
		buf[i] = byte('0' + m%10)
		m /= 10
	}
	if f < 0 {
		b = append(b, '-')
	}
	return append(b, buf[i:]...), true
}

// AppendTime appends t as time.Time.MarshalJSON would (quoted RFC 3339
// with nanoseconds). MarshalJSON refuses what RFC 3339 cannot say;
// callers that may meet such a time check TimeOK first. A UTC time with
// a four-digit year — every stored sample — is written digit by digit;
// any other time is AppendFormat's.
//
// districtlint:hotpath
func AppendTime(b []byte, t time.Time) []byte {
	b = append(b, '"')
	year, month, day := t.Date()
	if t.Location() != time.UTC || year < 0 || year > 9999 {
		b = t.AppendFormat(b, time.RFC3339Nano)
		return append(b, '"')
	}
	hour, minute, sec := t.Clock()
	b = append(b, byte('0'+year/1000), byte('0'+year/100%10), byte('0'+year/10%10), byte('0'+year%10), '-')
	b = append(b, byte('0'+int(month)/10), byte('0'+int(month)%10), '-', byte('0'+day/10), byte('0'+day%10), 'T')
	b = append(b, byte('0'+hour/10), byte('0'+hour%10), ':', byte('0'+minute/10), byte('0'+minute%10), ':', byte('0'+sec/10), byte('0'+sec%10))
	if ns := t.Nanosecond(); ns != 0 {
		n := 9 // fraction digits left once the trailing zeros are trimmed
		for ; ns%10 == 0; ns /= 10 {
			n--
		}
		b = append(b, ".000000000"[:n+1]...)
		for i := len(b) - 1; ns > 0; i, ns = i-1, ns/10 {
			b[i] = byte('0' + ns%10)
		}
	}
	return append(b, 'Z', '"')
}

// TimeOK reports whether time.Time.MarshalJSON accepts t — a year
// within [0, 9999] and a zone offset under 24 hours — so AppendTime's
// output is what encoding/json would have produced rather than what it
// would have refused.
func TimeOK(t time.Time) bool {
	if y := t.Year(); y < 0 || y > 9999 {
		return false
	}
	_, off := t.Zone()
	return -24*3600 < off && off < 24*3600
}

// AppendBytes appends p as encoding/json encodes a []byte: null for a
// nil slice, otherwise the quoted standard base64 of its contents.
//
// districtlint:hotpath
func AppendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, "null"...)
	}
	b = append(b, '"')
	b = base64.StdEncoding.AppendEncode(b, p)
	return append(b, '"')
}
