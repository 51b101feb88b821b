package measuredb

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
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
		got := append(AppendPoint(nil, p), '\n')
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

// FuzzAppendRows holds the ingest body the Go client and the coordinator
// build (AppendBatch over AppendPoint) to json.Marshal of the same
// IngestBatch: equal bytes, or a refusal exactly where json.Marshal
// refuses — the client then marshals the batch whole for the error
// text. Names are arbitrary bytes (escapes, invalid UTF-8, U+2028),
// values any bit pattern, times year −1 to 10000 with and without a
// zone.
func FuzzAppendRows(f *testing.F) {
	f.Add("urn:d/1", "temperature", int64(1425895200), int64(0), 0, math.Float64bits(21.5), "", uint64(0))
	f.Add("a<b>&\"c\"\\", "line\u2028sep\xff", int64(1425895200), int64(120000000), 5400, math.Float64bits(1e-7), "d", math.Float64bits(1e21))
	f.Add("", "", int64(-62135596800), int64(1), 0, math.Float64bits(math.NaN()), "d", uint64(0))
	f.Add("d", "q", int64(253402300800), int64(0), 0, uint64(0), "d", math.Float64bits(math.Inf(-1)))
	f.Add("d", "q", int64(-62198755200), int64(0), -86400, uint64(1), "\x00\x1f", math.Float64bits(math.Copysign(0, -1)))
	f.Fuzz(func(t *testing.T, device, quantity string, sec, nsec int64, zone int, bits uint64, device2 string, bits2 uint64) {
		const minSec, span = -62198755200, 253433836800 + 62198755200 // years −1 … 10000
		at := time.Unix(minSec+(sec%span+span)%span, nsec%1e9).UTC()
		at2 := at.Add(time.Duration(bits2 % 1e12))
		if zone != 0 {
			at = at.In(time.FixedZone("z", zone%(25*3600)))
		}
		rows := []Point{
			{Device: device, Quantity: quantity, At: at, Value: math.Float64frombits(bits)},
			{Device: device2, Quantity: quantity, At: at2, Value: math.Float64frombits(bits2)},
			{At: at2, Value: 1},
		}
		for n := 0; n <= len(rows); n++ { // rows[:0] is empty, not nil
			want, err := json.Marshal(IngestBatch{Rows: rows[:n]})
			got, ok := AppendBatch([]byte("x"), "rows", rows[:n])
			if ok != (err == nil) {
				t.Fatalf("rows %+v: AppendBatch ok=%v, json.Marshal error %v", rows[:n], ok, err)
			}
			if ok && string(got) != "x"+string(want) {
				t.Fatalf("rows %+v:\nappend:  %q\nmarshal: %q", rows[:n], got[1:], want)
			}
		}
	})
}

func TestAppendBatchSamples(t *testing.T) {
	for _, rows := range [][]Point{{}, {{At: encodeTimes[2], Value: 2}}} {
		want, _ := json.Marshal(SeriesAppend{Samples: rows})
		if got, ok := AppendBatch(nil, "samples", rows); !ok || !bytes.Equal(got, want) {
			t.Errorf("samples %v: ok=%v\nappend:  %s\nmarshal: %s", rows, ok, got, want)
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

// shortDecimals sit on the edges of AppendFloat's digit-by-digit arm:
// readings of a few decimals, values that need all six fractional
// digits or a seventh, 15 and 16 significant digits, the range bounds
// 1e-6 and 1e15, and a value whose rounding interval holds two
// 2-decimal candidates (1e14 + 1/64).
var shortDecimals = []float64{
	21.5, -273.15, 0.07, 1.1, 0.3, 99.99, 1013.25, -0.5, 42,
	0.000001, 0.0000015, 0.123456, 0.1234567, 1e-6, 9.99e-7,
	123456789.123456, 12345678.123456, 999999999999999, 999999999999999.9,
	1e15, 1e15 - 1, 1e14 + 1.0/64, 4503599627370495.5, 9007199254740993,
}

// checkJSONFloat requires AppendFloat to write v as json.Marshal does.
func checkJSONFloat(t *testing.T, v float64) {
	t.Helper()
	got := jsonwire.AppendFloat(nil, v)
	want, err := json.Marshal(v)
	if err != nil {
		t.Skip() // json refuses NaN and ±Inf; the value plane cannot produce them
	}
	if !bytes.Equal(got, want) {
		t.Errorf("float %x (%g):\nappend:  %q\nmarshal: %q", math.Float64bits(v), v, got, want)
	}
}

func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range encodeFloats {
		f.Add(v)
	}
	for _, v := range shortDecimals {
		f.Add(v)
		f.Add(math.Nextafter(v, math.Inf(1)))
		f.Add(math.Nextafter(v, math.Inf(-1)))
	}
	f.Fuzz(checkJSONFloat)
}

// TestAppendJSONFloatShortDecimals sweeps decimals of 0 to 7 fractional
// digits and 1 to 17 significant ones, each beside its ±1-ulp
// neighbours, through AppendFloat against json.Marshal.
func TestAppendJSONFloatShortDecimals(t *testing.T) {
	rng := rand.New(rand.NewPCG(54, 1))
	for i := 0; i < 200000; i++ {
		digits := 1 + rng.IntN(17)
		m := rng.Int64N(int64(math.Pow10(digits)))
		v := float64(m) / math.Pow10(rng.IntN(8))
		if i%2 == 1 {
			v = -v
		}
		checkJSONFloat(t, v)
		checkJSONFloat(t, math.Nextafter(v, math.Inf(1)))
		checkJSONFloat(t, math.Nextafter(v, math.Inf(-1)))
	}
	for _, v := range shortDecimals {
		checkJSONFloat(t, v)
	}
}
