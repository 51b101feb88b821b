package measuredb

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"

	"repro/internal/jsonwire"
)

// The append-based row encoders replaced json.Encoder on the streaming
// paths; their bytes must stay indistinguishable on the wire. These
// tests render the same rows both ways and require byte equality —
// HTML escaping, U+2028/U+2029, U+FFFD replacement, the f/e float
// boundary with exponent trimming, RFC 3339 nano timestamps, and
// omitempty field dropping all included.

var encodeStrings = []string{
	"",
	"temperature",
	"urn:district:turin/building:b001/device:d0",
	`quote " backslash \ slash /`,
	"tabs\tand\nnewlines\rand\x00controls\x1f",
	"html <script> & friends >",
	"line sep \u2028 para sep \u2029",
	"smileys 😀 and accents é ü",
	"invalid utf8 \xff\xc3\x28 tail",
	"lone high surrogate \xed\xa0\x80 bytes",
	"ends mid-rune \xc3",
}

var encodeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 21.5, -273.15,
	0.1, 1.0 / 3.0,
	1e-7, 9.999999e-7, 1e-6, // the 'e' format lower boundary
	1e20, 9.99999999e20, 1e21, 1e22, // and the upper one
	5e-324, math.MaxFloat64, -math.MaxFloat64,
	123456789012345, 1234567890123456, 12345678901234567,
	3.141592653589793, 2.718281828459045e-100,
}

var encodeTimes = []time.Time{
	{},
	time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC),
	time.Date(2015, 3, 9, 10, 0, 0, 123456789, time.UTC),
	time.Date(2015, 3, 9, 10, 0, 0, 120000000, time.UTC),
	time.Date(2015, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 90*60)),
	time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
	time.Date(9999, 12, 31, 23, 59, 59, 0, time.FixedZone("", -11*3600)),
}

// oracleLine renders v exactly as the streaming paths used to: one
// json.Encoder row, trailing newline included.
func oracleLine(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("oracle encode: %v", err)
	}
	return buf.Bytes()
}

func TestAppendPointNDJSONMatchesEncoder(t *testing.T) {
	var rows []Point
	for _, s := range encodeStrings {
		rows = append(rows,
			Point{Device: s, Quantity: "q", At: encodeTimes[1], Value: 1},
			Point{Device: "d", Quantity: s, At: encodeTimes[1], Value: 1})
	}
	for _, f := range encodeFloats {
		rows = append(rows, Point{Device: "d", Quantity: "q", At: encodeTimes[1], Value: f})
	}
	for _, at := range encodeTimes {
		rows = append(rows, Point{Device: "d", Quantity: "q", At: at, Value: 1})
	}
	rows = append(rows, Point{}) // both strings omitted via omitempty
	for _, p := range rows {
		got := appendPointNDJSON(nil, p)
		want := oracleLine(t, p)
		if !bytes.Equal(got, want) {
			t.Errorf("Point %+v:\nappend:  %q\nencoder: %q", p, got, want)
		}
	}
}

func TestAppendBatchSampleRowMatchesEncoder(t *testing.T) {
	type sample struct {
		selector int
		device   string
		quantity string
		at       time.Time
		value    float64
	}
	var rows []sample
	for i, s := range encodeStrings {
		rows = append(rows,
			sample{i, s, "q", encodeTimes[1], 1},
			sample{i, "d", s, encodeTimes[1], 1})
	}
	for _, f := range encodeFloats {
		rows = append(rows, sample{3, "d", "q", encodeTimes[1], f})
	}
	for _, at := range encodeTimes {
		rows = append(rows, sample{-7, "d", "q", at, 0})
	}
	rows = append(rows, sample{0, "", "", encodeTimes[1], 2.5})
	for _, r := range rows {
		got := appendBatchSampleRow(nil, r.selector, r.device, r.quantity, r.at, r.value)
		at, v := r.at, r.value
		want := oracleLine(t, BatchRow{Selector: r.selector, Device: r.device, Quantity: r.quantity, At: &at, Value: &v})
		if !bytes.Equal(got, want) {
			t.Errorf("row %+v:\nappend:  %q\nencoder: %q", r, got, want)
		}
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range encodeStrings {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got := jsonwire.AppendString(nil, s)
		want, err := json.Marshal(s)
		if err != nil {
			t.Skip()
		}
		if !bytes.Equal(got, want) {
			t.Errorf("string %q:\nappend:  %q\nmarshal: %q", s, got, want)
		}
	})
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range encodeFloats {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Skip() // json refuses these; the value plane cannot produce them
		}
		got := jsonwire.AppendFloat(nil, v)
		want, err := json.Marshal(v)
		if err != nil {
			t.Skip()
		}
		if !bytes.Equal(got, want) {
			t.Errorf("float %x (%g):\nappend:  %q\nmarshal: %q", math.Float64bits(v), v, got, want)
		}
	})
}
