package measuredb

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// The row scanner's contract is bit-compatibility with encoding/json
// on everything except error text: same rows out, same inputs rejected.
// These tests hold it to that contract with the real decoder as the
// oracle — first over a table of known-nasty shapes, then under fuzz.

// oracleNDJSON mirrors the production NDJSON loop over json.Decoder:
// rows decoded up to the first error, and whether the stream ended in
// an error or a clean EOF (the first error poisons the rest, as both
// ingest paths treat it).
func oracleNDJSON(data []byte) ([]Point, bool) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var rows []Point
	for {
		var p Point
		if err := dec.Decode(&p); err != nil {
			return rows, !errors.Is(err, io.EOF)
		}
		rows = append(rows, p)
	}
}

// scanNDJSON is the same loop over the hand-rolled scanner.
func scanNDJSON(data []byte) ([]Point, bool) {
	sc := NewRowScanner(bytes.NewReader(data))
	defer sc.Release()
	var rows []Point
	var p Point
	for {
		if err := sc.Next(&p); err != nil {
			return rows, !errors.Is(err, io.EOF)
		}
		rows = append(rows, p)
	}
}

// oracleBatch decodes a whole {"rows":[...]} body the way the ingest
// plane did before the scanner: one json.Decoder value (trailing bytes
// ignored), unmarshalled into the single-slice-field struct.
func oracleBatch(data []byte) ([]Point, bool) {
	var batch struct {
		Rows []Point `json:"rows"`
	}
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&batch); err != nil {
		return nil, false
	}
	return batch.Rows, true
}

func scanBatch(data []byte) ([]Point, bool) {
	sc := NewRowScanner(bytes.NewReader(data))
	defer sc.Release()
	pts, err := sc.decodeBatch("rows")
	if err != nil {
		return nil, false
	}
	// The scanner's rows alias pooled memory; the comparison below
	// outlives release, so copy.
	out := make([]Point, len(pts))
	copy(out, pts)
	return out, true
}

// samePoint compares decoded rows for oracle equality: strings exact,
// values by bit pattern (-0 and NaN distinctions included), times by
// instant and by re-rendered RFC 3339 text (which pins the decoded
// zone offset without comparing Location pointers).
func samePoint(a, b Point) bool {
	return a.Device == b.Device &&
		a.Quantity == b.Quantity &&
		math.Float64bits(a.Value) == math.Float64bits(b.Value) &&
		a.At.Equal(b.At) &&
		a.At.Format(time.RFC3339Nano) == b.At.Format(time.RFC3339Nano)
}

func diffRows(t *testing.T, input []byte, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("input %q: scanner decoded %d rows, oracle %d\nscanner: %+v\noracle:  %+v", input, len(got), len(want), got, want)
	}
	for i := range got {
		if !samePoint(got[i], want[i]) {
			t.Fatalf("input %q: row %d differs\nscanner: %+v\noracle:  %+v", input, i, got[i], want[i])
		}
	}
}

func checkNDJSONOracle(t *testing.T, data []byte) {
	t.Helper()
	got, gotErr := scanNDJSON(data)
	want, wantErr := oracleNDJSON(data)
	if gotErr != wantErr {
		t.Fatalf("input %q: scanner errored=%v, oracle errored=%v (scanner rows %+v, oracle rows %+v)", data, gotErr, wantErr, got, want)
	}
	diffRows(t, data, got, want)
}

func checkBatchOracle(t *testing.T, data []byte) {
	t.Helper()
	got, gotOK := scanBatch(data)
	want, wantOK := oracleBatch(data)
	if gotOK != wantOK {
		t.Fatalf("input %q: scanner ok=%v, oracle ok=%v", data, gotOK, wantOK)
	}
	if gotOK {
		diffRows(t, data, got, want)
	}
}

// rowScannerCorpus is the seed corpus shared by the table tests and the
// fuzzers: every scanner fast path, every slow-path fallback, and the
// encoding/json quirks the scanner mirrors on purpose.
var rowScannerCorpus = []string{
	// The dominant well-formed shapes.
	`{"device":"urn:d/1","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":21.5}`,
	"{\"device\":\"a\",\"at\":\"2015-03-09T10:00:00Z\",\"value\":1}\n{\"device\":\"b\",\"at\":\"2015-03-09T10:00:01Z\",\"value\":2}\n",
	`{}`,
	``,
	`   ` + "\n\t",
	// Field-name matching: exact, folded, unknown, duplicate (last
	// wins), and null (never touches the field).
	`{"DEVICE":"a","Quantity":"q","AT":"2015-03-09T10:00:00Z","VaLuE":3}`,
	`{"device":"a","device":"b"}`,
	`{"device":"a","device":null}`,
	`{"device":null,"at":null,"value":null,"quantity":null}`,
	`{"unknown":{"nested":[1,2,{"x":"y"}],"b":true},"value":7}`,
	`{"extra":"😀","value":1}`,
	// Strings: escapes, surrogates (paired, lone, half-paired), invalid
	// UTF-8 (U+FFFD replacement), controls, and long tokens that force
	// window refills.
	`{"device":"A\n\t\"\\\/\b\f\r"}`,
	`{"device":"😀   "}`,
	`{"device":"\ud800"}`,
	`{"device":"\ud800A"}`,
	`{"device":"\udc00\ud800"}`,
	"{\"device\":\"\xff\xfe ok \xc3\x28\"}",
	"{\"device\":\"\x01\"}",
	`{"device":"` + strings.Repeat("x", 9000) + `"}`,
	`{"device":"unterminated`,
	`{"device":"bad \x escape"}`,
	`{"device":"bad \u00zz escape"}`,
	// Numbers: the exact-fast-path boundary (15 digits), exponents,
	// leading-zero rules, -0, overflow, and malformed grammar strconv
	// would have accepted.
	`{"value":0}`,
	`{"value":-0}`,
	`{"value":0.1}`,
	`{"value":123456789012345}`,
	`{"value":1234567890123456}`,
	`{"value":0.000000000000001}`,
	`{"value":1.7976931348623157e308}`,
	`{"value":1e400}`,
	`{"value":-1e-400}`,
	`{"value":2.5e-1}`,
	`{"value":5E+3}`,
	`{"value":01}`,
	`{"value":.5}`,
	`{"value":1.}`,
	`{"value":1e}`,
	`{"value":+1}`,
	`{"value":0x10}`,
	`{"value":Inf}`,
	`{"value":NaN}`,
	// Timestamps: the hand-parsed Z fast path, fractions, offsets and
	// malformed shapes that fall back to time.UnmarshalJSON, leap days,
	// and escapes inside the raw token (handed over still escaped).
	`{"at":"2015-03-09T10:00:00Z"}`,
	`{"at":"2015-03-09T10:00:00.123456789Z"}`,
	`{"at":"2015-03-09T10:00:00.1234567891Z"}`,
	`{"at":"2015-03-09T10:00:00+01:30"}`,
	`{"at":"2016-02-29T00:00:00Z"}`,
	`{"at":"2015-02-29T00:00:00Z"}`,
	`{"at":"2100-02-29T00:00:00Z"}`,
	`{"at":"2000-02-29T23:59:59.999999999Z"}`,
	`{"at":"2015-03-09T24:00:00Z"}`,
	`{"at":"2015-03-09 10:00:00Z"}`,
	`{"at":"2015-03-09T10:00:00Z"}`,
	`{"at":"not a time"}`,
	`{"at":5}`,
	`{"at":""}`,
	// Wrong value types and broken structure.
	`{"device":5}`,
	`{"value":"5"}`,
	`{"device":"a"`,
	`{"device":"a",}`,
	`{"device" "a"}`,
	`{device:"a"}`,
	`[{"value":1}]`,
	`"just a string"`,
	`42`,
	`true`,
	`null`,
	"null\n{\"value\":1}\nnull",
	`nul`,
	// Batch bodies: the rows field in every position, folded, duplicate
	// (element-reuse semantics), null rows, null elements, unknown
	// siblings, and trailing garbage after the top-level value.
	`{"rows":[{"device":"a","at":"2015-03-09T10:00:00Z","value":1}]}`,
	`{"rows":[]}`,
	`{"rows":null}`,
	`{"ROWS":[{"value":1}],"other":3}`,
	`{"before":{"rows":[9]},"rows":[{"value":1},null,{"value":2}]}`,
	`{"rows":[{"device":"a","value":1}],"rows":[{"value":2}]}`,
	`{"rows":[{"device":"a","value":1},{"device":"b"}],"rows":[null,{"quantity":"q"}]}`,
	`{"rows":[{"device":"a"}],"rows":null}`,
	`{"rows":[{"value":1}]} trailing garbage`,
	`{"rows":[{"value":1}]}{"rows":[{"value":2}]}`,
	`{"rows":[1]}`,
	`{"rows":{"not":"array"}}`,
	`{"rows":[{"value":1}`,
	// The seam between the in-place fast path and encoding/json: a stream
	// that leaves the canonical shape mid-way (and comes back, and breaks),
	// rows sharing a line, CRLF, Python-style separators, the escapes
	// json.Marshal emits for <>&, a repeated key after canonical rows, and
	// rows and bodies larger than the initial read buffer.
	canonRow + "\n" + `{"device":"a\u003cb","value":1}` + "\n" + canonRow + "\n",
	canonRow + "\n" + `{"device":"a","value":1,"extra":null}` + "\n" + canonRow + "\n{broken\n" + canonRow,
	canonRow + canonRow + ` ` + canonRow,
	canonRow + "\r\n" + canonRow + "\r\n",
	`{ "device" : "a", "quantity" : "q", "at" : "2015-03-09T10:00:00Z", "value" : 1.5 }`,
	"{\n\t\"device\": \"a\",\n\t\"value\": 2\n}\n" + canonRow,
	`{"device":"urn:d/\u003c1\u003e\u0026","quantity":"q","at":"2015-03-09T10:00:00Z","value":1}`,
	`{"device":"a","quantity":"q","at":"2015-03-09T11:30:00.5+01:30","value":1}`,
	`{"device":"a","quantity":"q","at":"2015-03-09T10:00:00-08:00","value":1e-07}`,
	`{"value":1e+21}`,
	canonRow + "\n" + `{"device":"a","quantity":"q","at":"2015-03-09T10:00:00Z","value":1,"value":2}`,
	`{"quantity":"` + strings.Repeat("q", 20000) + `","value":1}` + "\n" + canonRow,
	strings.Repeat(canonRow+"\n", 300),
	`{"rows":[` + strings.Repeat(canonRow+",", 300) + canonRow + `]}`,
	`{"rows":[` + canonRow + `,` + canonRow + `]} trailing garbage`,
	`{"rows":[` + canonRow + `,{"device":"a\u003cb","value":1}]}`,
	`{"rows":[` + canonRow + `],"rows":[{"value":2}]}`,
	`{"rows":[` + canonRow + `,]}`,
	`{"rows" : [ ` + canonRow + ` , ` + canonRow + ` ] }`,
	`{"samples":[{"at":"2015-03-09T10:00:00Z","value":1}]}`,
}

// canonRow is a row in the canonical shape: what encoding/json emits for
// a Point, and what the fast path decodes in place.
const canonRow = `{"device":"urn:district:turin/building:b001/device:d0","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":21.5}`

func TestRowScannerNDJSONOracle(t *testing.T) {
	for _, input := range rowScannerCorpus {
		checkNDJSONOracle(t, []byte(input))
	}
}

func TestRowScannerBatchOracle(t *testing.T) {
	for _, input := range rowScannerCorpus {
		checkBatchOracle(t, []byte(input))
	}
}

// TestRowScannerSmallReads re-runs the corpus through a one-byte-at-a-
// time reader, so every token shape crosses a refill boundary at every
// possible offset.
func TestRowScannerSmallReads(t *testing.T) {
	for _, input := range rowScannerCorpus {
		sc := NewRowScanner(iotest(strings.NewReader(input)))
		var got []Point
		var p Point
		gotErr := false
		for {
			err := sc.Next(&p)
			if err != nil {
				gotErr = !errors.Is(err, io.EOF)
				break
			}
			got = append(got, p)
		}
		sc.Release()
		want, wantErr := oracleNDJSON([]byte(input))
		if gotErr != wantErr {
			t.Fatalf("input %q (1-byte reads): scanner errored=%v, oracle errored=%v", input, gotErr, wantErr)
		}
		diffRows(t, []byte(input), got, want)
	}
}

// An NDJSON upload over http.MaxBytesReader's limit ends in a Read that
// returns bytes and *http.MaxBytesError together. Every whole row before
// the limit is delivered, then the error — never a silently shorter
// stream, and never an error that swallows rows already read. A batch
// body fails whole.
func TestRowScannerDeliversRowsBeforeAReadError(t *testing.T) {
	line := func(i int, deviceKey string) string {
		return fmt.Sprintf(`{%q:"urn:d/%d","quantity":"t","at":"2015-03-09T10:00:0%dZ","value":%d}`+"\n", deviceKey, i, i, i)
	}
	for _, tc := range []struct {
		name      string
		odd       int // row written with a key only encoding/json reads
		cutInside bool
	}{
		{"cut inside a row", -1, true},
		{"cut at a row's end", -1, false},
		{"encoding/json fallback", 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var body strings.Builder
			limit := 0
			for i := 0; i < 10; i++ {
				key := "device"
				if i == tc.odd {
					key = "Device"
				}
				body.WriteString(line(i, key))
				if i == 5 {
					limit = body.Len()
				}
			}
			if tc.cutInside {
				limit += 7
			}
			sc := NewRowScanner(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(body.String())), int64(limit)))
			defer sc.Release()
			var got []Point
			var p Point
			var err error
			for err == nil {
				if err = sc.Next(&p); err == nil {
					got = append(got, p)
				}
			}
			var tooLarge *http.MaxBytesError
			if !errors.As(err, &tooLarge) {
				t.Fatalf("stream ended with %v, want *http.MaxBytesError", err)
			}
			if len(got) != 6 {
				t.Fatalf("%d rows before the error, want the 6 whole rows under the limit: %+v", len(got), got)
			}
			for i, p := range got {
				if p.Device != fmt.Sprintf("urn:d/%d", i) {
					t.Fatalf("row %d is %+v", i, p)
				}
			}
		})
	}
	batch := `{"rows":[` + strings.Repeat(`{"device":"urn:d/1","quantity":"t","value":1},`, 9) + `{"device":"urn:d/1","quantity":"t","value":1}]}`
	sc := NewRowScanner(http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(batch)), int64(len(batch)-3)))
	defer sc.Release()
	var tooLarge *http.MaxBytesError
	if pts, err := sc.decodeBatch("rows"); !errors.As(err, &tooLarge) || len(pts) != 0 {
		t.Fatalf("over-long batch: %d rows, err %v; want none and *http.MaxBytesError", len(pts), err)
	}
}

// iotest wraps r to deliver one byte per Read.
func iotest(r io.Reader) io.Reader { return &oneByteReader{r: r} }

type oneByteReader struct{ r io.Reader }

func (o *oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func FuzzRowScannerNDJSON(f *testing.F) {
	for _, input := range rowScannerCorpus {
		f.Add([]byte(input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNDJSONOracle(t, data)
	})
}

func FuzzRowScannerBatch(f *testing.F) {
	for _, input := range rowScannerCorpus {
		f.Add([]byte(input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchOracle(t, data)
	})
}

// samplesPageCorpus seeds FuzzSamplesPage: a real page, an empty one,
// next_cursor first, and the shapes that are encoding/json's to decode.
var samplesPageCorpus = []string{
	`{"device":"urn:d/1","quantity":"temperature","samples":[{"at":"2015-03-09T10:00:00Z","value":21.5},{"at":"2015-03-09T10:00:01.5Z","value":-1e-7}],"count":2,"next_cursor":"MTQyNTg5NTIwMzAwMDAwMDAwMDox"}` + "\n",
	`{"device":"urn:d/1","quantity":"temperature","samples":[],"count":0}` + "\n",
	`{"next_cursor":"abc", "count": 1 ,"samples": [ {"value":1,"at":"2015-03-09T10:00:00+01:00"} ] ,"quantity":"q","device":"d"}`,
	`{"device":"a","device":"b","quantity":"q","samples":[],"count":0}`,
	`{"device":"a\u003cb","quantity":"q","samples":[{"at":"2015-03-09T10:00:00Z","value":1}],"count":1}`,
	`{"device":"d","quantity":"q","samples":[],"count":0} trailing`,
	`{"device":"d","quantity":"q","samples":null,"count":-1,"extra":true}`,
	`{"samples":[{"at":"2015-03-09T10:00:00Z","value":1},],"count":1}`,
	`{"samples":[{"device":"x","quantity":"y","at":"2015-03-09T10:00:00Z","value":1}],"count":01}`,
	`{"count":1.0}`, `{"count":99999999999999999999}`, `{"count":-0}`, `{"samples":[],"count":-12}`, `{"count":+1}`, `{"count":1e2}`, `{}`, ``, `[]`, `{"samples":[`,
}

// checkSamplesPageOracle: the in-place parse yields the page
// json.Unmarshal yields, or says "not canonical" — never a different
// page — and DecodeSamplesPage is json.Unmarshal either way.
func checkSamplesPageOracle(t *testing.T, data []byte) {
	t.Helper()
	var want, got, via SamplesPage
	wantErr := json.Unmarshal(data, &want)
	sc := NewRowScanner(nil)
	defer sc.Release()
	if sc.parseSamplesPage(data, &got) {
		if wantErr != nil {
			t.Fatalf("input %q: parsed in place, json.Unmarshal refuses it: %v", data, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q:\nin place:  %+v\nunmarshal: %+v", data, got, want)
		}
	}
	if err := DecodeSamplesPage(data, &via); (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(via, want) {
		t.Fatalf("input %q: DecodeSamplesPage %+v, %v; json.Unmarshal %+v, %v", data, via, err, want, wantErr)
	}
}

func TestSamplesPageOracle(t *testing.T) {
	for _, input := range samplesPageCorpus {
		checkSamplesPageOracle(t, []byte(input))
	}
	var page SamplesPage
	sc := NewRowScanner(nil)
	defer sc.Release()
	for _, input := range samplesPageCorpus[:3] {
		if !sc.parseSamplesPage([]byte(input), &page) {
			t.Errorf("a canonical page left the fast path: %s", input)
		}
	}
}

func FuzzSamplesPage(f *testing.F) {
	for _, input := range samplesPageCorpus {
		f.Add([]byte(input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSamplesPageOracle(t, data)
	})
}

// batchResponseCorpus seeds FuzzDecodeBatchResponse beside the goldens
// under testdata/batch: a canonical answer of every series shape, then
// that answer broken one way at a time — the shapes that are
// encoding/json's to decode, and the ones nobody may decode.
var batchResponseCorpus = func() []string {
	at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	canon := string(renderBatchJSON([]BatchResult{
		{Selector: SeriesSelector{Device: "urn:d/*", Quantity: "temperature"}, Series: []BatchSeries{
			{Device: "urn:d/1", Quantity: "temperature", Samples: []Point{{At: at, Value: 21.5}, {At: at.Add(1500 * time.Millisecond), Value: -1e-7}}, Truncated: true},
			{Device: "urn:d/2", Quantity: "temperature", Aggregate: &AggregateResponse{Device: "urn:d/2", Quantity: "temperature", Count: 3, Min: -0.5, Max: 1e21, Mean: 1.0 / 3, Sum: 0.1}},
			{Device: "urn:d/3", Quantity: "temperature"},
		}, Error: "tsdb: no such series"},
		{Selector: SeriesSelector{Device: "urn:nothing"}, Error: noMatch},
	}))
	mutants := []string{canon,
		`{"results":[],"series":0,"samples":0}`, `{"series":1}`, `{}`, ``, `null`, `[]`,
		`{"results":[{}]}`, `{"results":[{"selector":{}}]}`, `{"results":[{"series":[{}]}]}`,
		`{"results":[{"series":[{"aggregate":{}}]}]}`, `{"results":[{"series":[{"samples":[]}]}]}`,
		`{"results":null}`, `{"results":[{"series":null}]}`, `{"results":[{"series":[{"samples":null,"aggregate":null}]}]}`,
		`{"results":[{"series":[{"buckets":[{"Start":"2015-03-09T10:00:00Z","Count":1}]}]}]}`,
		`{"results":[{"series":[{"truncated":false}]}]}`, `{"results":[{"series":[{"truncated":"true"}]}]}`,
		`{"results":[{"series":[{"truncated":tru}]}]}`, `{"results":[{"series":[{"truncated":truex}]}]}`,
		` { "results" : [ { "selector" : { "device" : "d" } , "error" : "e" } ] , "series" : 0 } ` + "\n\t",
		// A repeated object or array is merged into, not replaced, by
		// encoding/json: only the refusal of repeated keys keeps these off
		// the fast path.
		`{"results":[{"selector":{"device":"a"},"error":"e"}],"results":[{"error":"f"}]}`,
	}
	for _, m := range [][2]string{
		{`"results"`, `"Results"`},
		{`"series":3`, `"series":3,"series":3`},
		{`"series":3`, `"series":3.0`},
		{`"series":3`, `"series":3e0`},
		{`"series":3`, `"series":99999999999999999999`},
		{`"samples":5`, `"samples":-0`},
		{`"count":3`, `"count":3,"count":4`},
		{`"count":3`, `"count":3.5`},
		{`"max":1e+21`, `"max":1e400`},
		{`"max":1e+21`, `"max":01`},
		{`"min":-0.5`, `"min":-0`},
		{`"min":-0.5`, `"min":-0.5,"extra":null`},
		{`"sum":0.1`, `"sum":0.1000000000000000055511151231257827`},
		{`"truncated":true`, `"truncated":true,"truncated":false`},
		{`"sum":0.1}`, `"sum":0.1},"aggregate":{"count":9}`},
		{`"error":"tsdb`, `"error":"tsd\u0062`},
		{`"device":"urn:d/1"`, `"device":"urn:d/\u00e0"`},
		{`"device":"urn:d/1"`, "\"device\":\"urn:d/\xff\""},
		{`"device":"urn:d/1"`, "\"device\":\"urn:d/\x01\""},
		{`"device":"urn:d/1"`, `"device":"urn:d/1","device":"urn:d/1"`},
		{`"device":"urn:nothing"`, `"device":"urn:nothing","quantity":"q","quantity":"q"`},
		{`"selector":{`, `"selector":{"x":1,`},
		{`"value":21.5`, `"value":21.5,"device":"urn:d/1"`},
		{`"at":"2015-03-09T10:00:00Z"`, `"at":"2015-03-09T11:00:00+01:00"`},
		{`"at":"2015-03-09T10:00:00Z"`, `"at":"2015-03-09T10:00:00"`},
		{`"aggregate":{`, `"aggregate":{"Count":9,`},
		{`,"quantity":"temperature","aggregate"`, `,"aggregate"`},
		{`"quantity":"temperature"}]`, `"quantity":"temperature","buckets":[]}]`},
		{"}\n", "} trailing\n"},
		{"}\n", "}{}"},
		{"}\n", ""},
		{`"error":"no matching series"}]`, `"error":"no matching series"},]`},
	} {
		if !strings.Contains(canon, m[0]) {
			panic("batchResponseCorpus: no " + m[0] + " in " + canon)
		}
		mutants = append(mutants, strings.Replace(canon, m[0], m[1], 1))
	}
	return mutants
}()

// checkBatchResponseOracle: the in-place parse yields the answer
// json.Unmarshal yields, or says "not canonical" — never a different
// answer — and DecodeBatchResponse is json.Unmarshal either way, nil
// against empty slices included. inPlace reports which path it took.
func checkBatchResponseOracle(t *testing.T, data []byte) (inPlace bool) {
	t.Helper()
	var want, got, via BatchResponse
	wantErr := json.Unmarshal(data, &want)
	sc := NewRowScanner(nil)
	defer sc.Release()
	if inPlace = sc.parseBatchResponse(data, &got); inPlace {
		if wantErr != nil {
			t.Fatalf("input %q: parsed in place, json.Unmarshal refuses it: %v", data, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q:\nin place:  %+v\nunmarshal: %+v", data, got, want)
		}
	}
	if err := DecodeBatchResponse(data, &via); (err == nil) != (wantErr == nil) || err == nil && !reflect.DeepEqual(via, want) {
		t.Fatalf("input %q: DecodeBatchResponse %+v, %v; json.Unmarshal %+v, %v", data, via, err, want, wantErr)
	} else if err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("input %q: DecodeBatchResponse says %q, json.Unmarshal %q", data, err, wantErr)
	}
	return inPlace
}

func TestBatchResponseOracle(t *testing.T) {
	for _, input := range batchResponseCorpus {
		checkBatchResponseOracle(t, []byte(input))
	}
	if !checkBatchResponseOracle(t, []byte(batchResponseCorpus[0])) {
		t.Fatalf("the canonical answer left the fast path: %s", batchResponseCorpus[0])
	}
}

func FuzzDecodeBatchResponse(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "batch", "*.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no batch goldens: %v", err)
	}
	for _, path := range goldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, input := range batchResponseCorpus {
		f.Add([]byte(input))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchResponseOracle(t, data)
	})
}

// TestOwnEncodersStayOnFastPath holds the traffic assumption the decoder
// is built on: whatever this repository's writers emit — AppendBatch
// (client.Ingest.Append, the Batcher; the bytes json.Marshal renders an
// IngestBatch to), an AppendPoint row stream (client.IngestStream, the
// node's NDJSON reads), the coordinator's forward — is canonical, so
// the fast-path functions take every row
// themselves and encoding/json is never consulted. The assumption has
// one boundary, pinned at the end: a name holding a byte the encoders
// escape (< > & " \, a control byte) is not canonical, and a body
// carrying one is decoded by encoding/json, to the same rows.
func TestOwnEncodersStayOnFastPath(t *testing.T) {
	at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	pts := []Point{
		{Device: "urn:district:turin/building:b001/device:d0", Quantity: "temperature", At: at, Value: 21.5},
		{Device: "urn:distretto:torino/edificio:più/dispositivo:π", Quantity: "umidità", At: at.Add(123456789), Value: -0.25},
		{At: at, Value: 1}, // a path-named samples row: device and quantity omitted
		{Device: "d", Quantity: "q", At: at.In(time.FixedZone("", 90*60)), Value: 0.1234567890123456},
		{Device: "d", Quantity: "q", At: at.In(time.FixedZone("", -8*3600)), Value: 1e-7},
		{Device: "d", Quantity: "q", Value: 1e21}, // zero time
		{Device: "d", Quantity: "q", At: at, Value: math.MaxFloat64},
		{Device: "d", Quantity: "q", At: at, Value: math.Copysign(0, -1)},
	}
	sc := NewRowScanner(nil)
	defer sc.Release()

	batch, err := json.Marshal(IngestBatch{Rows: pts})
	if err != nil {
		t.Fatal(err)
	}
	if appended, ok := AppendBatch(nil, "rows", pts); !ok || !bytes.Equal(appended, batch) {
		t.Fatalf("AppendBatch (ok=%v) and json.Marshal disagree:\n%s\n%s", ok, appended, batch)
	}
	if !sc.parseBatch(batch, "rows") {
		t.Fatalf("json.Marshal(IngestBatch) left the fast path: %s", batch)
	}
	diffRows(t, batch, sc.pts, pts)

	var stream, appended bytes.Buffer
	enc := json.NewEncoder(&stream)
	for _, p := range pts {
		if err := enc.Encode(p); err != nil {
			t.Fatal(err)
		}
		appended.Write(append(AppendPoint(nil, p), '\n'))
	}
	if !bytes.Equal(stream.Bytes(), appended.Bytes()) {
		t.Fatalf("AppendPoint and json.Encoder disagree:\n%s\n%s", appended.Bytes(), stream.Bytes())
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(stream.Bytes(), []byte("\n")), []byte("\n")) {
		var p Point
		if n, ok := sc.parseRow(line, &p); !ok || n != len(line) {
			t.Fatalf("encoded row left the fast path (consumed %d of %d, ok=%v): %s", n, len(line), ok, line)
		}
		diffRows(t, line, []Point{p}, pts[i:i+1])
	}

	escaped := []Point{pts[0], {Device: `urn:d/<1>&"2"\`, Quantity: "temperature", At: at, Value: 1}}
	batch, err = json.Marshal(IngestBatch{Rows: escaped})
	if err != nil {
		t.Fatal(err)
	}
	line := append(AppendPoint(nil, escaped[1]), '\n')
	var p Point
	if _, ok := sc.parseRow(line, &p); ok || sc.parseBatch(batch, "rows") {
		t.Fatalf("a name the encoders escape stayed on the fast path: %s", line)
	}
	checkBatchOracle(t, batch)
	checkNDJSONOracle(t, line)
	if rows, _ := scanBatch(batch); len(rows) != 2 || rows[1].Device != escaped[1].Device {
		t.Fatalf("fallback decoded %+v from %s", rows, batch)
	}
}

// TestRowsSharingALineStayLinear: rows concatenated without newlines
// are valid input that no writer sends. The fast path finds a line's end
// before it parses the row on it, so taking such rows one by one would
// search the rest of the body once per row — quadratic, minutes of CPU
// for one request at maxIngestBody. It must take the first row and give
// the rest of the line, and of the request, to encoding/json.
func TestRowsSharingALineStayLinear(t *testing.T) {
	want := (1 << 20) / len(canonRow)
	sc := NewRowScanner(bytes.NewReader(bytes.Repeat([]byte(canonRow), want)))
	defer sc.Release()
	var p Point
	if err := sc.Next(&p); err != nil || p.Value != 21.5 {
		t.Fatalf("first row: %+v, %v", p, err)
	}
	if sc.dec == nil {
		t.Fatal("the scanner kept the fast path on a line that holds more than one row")
	}
	rows := 1
	for ; ; rows++ {
		if err := sc.Next(&p); err != nil {
			if !errors.Is(err, io.EOF) {
				t.Fatal(err)
			}
			break
		}
	}
	if rows != want {
		t.Fatalf("decoded %d rows of %d", rows, want)
	}
}

// TestInternTableResets: a pooled scanner whose intern table filled up
// (one hostile body, or a district with more device URIs than
// maxInterned) must start the next request with a fresh table, not
// allocate every new name on every row for the rest of its life — and
// with an empty front table, which holds nothing the map does not.
func TestInternTableResets(t *testing.T) {
	var junk bytes.Buffer
	for i := 0; i <= maxInterned; i++ {
		fmt.Fprintf(&junk, `{"device":"junk-%d","value":1}`+"\n", i)
	}
	full := NewRowScanner(&junk)
	var p Point
	for n := 0; ; n++ {
		if err := full.Next(&p); err != nil {
			if !errors.Is(err, io.EOF) || n != maxInterned+1 || full.dec != nil {
				t.Fatalf("junk body: %d rows, fallback %v, %v", n, full.dec != nil, err)
			}
			break
		}
	}
	full.Release()
	// The pool hands the scanner just released back to this goroutine; a
	// new one would pass trivially, which is still the behavior wanted.
	sc := NewRowScanner(strings.NewReader(`{"device":"fresh-name","value":1}` + "\n" + `{"device":"fresh-name","value":2}`))
	defer sc.Release()
	if sc == full {
		for i, s := range sc.front {
			if s != "" {
				t.Fatalf("front slot %d still holds %q after the intern table was reset", i, s)
			}
		}
	}
	var rows [2]Point
	for i := range rows {
		if err := sc.Next(&rows[i]); err != nil {
			t.Fatalf("fresh body, row %d: %v", i, err)
		}
	}
	if unsafe.StringData(rows[0].Device) != unsafe.StringData(rows[1].Device) {
		t.Fatal("a repeated new device name was allocated twice: the full intern table was not reset")
	}
	if sc == full && len(sc.interned) != 1 {
		t.Fatalf("intern table after the fresh body holds %d names, want 1", len(sc.interned))
	}
}

// TestNoFallbackOnTheCorpusShape counts the times encoding/json is
// consulted while rows shaped like the benchmark's corpus (district
// device URNs, four quantities, readings quantised to 0.01, whole- and
// sub-second UTC stamps) cross all four ends: the client's ingest body
// on the node, the node's NDJSON stream and JSON page on the client's
// read side. It must be zero — the fallback is for foreign writers.
func TestNoFallbackOnTheCorpusShape(t *testing.T) {
	_, ts := newTestServer(t)
	base := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	const perSeries = 300
	var rows []Point
	for s := 0; s < 8; s++ {
		dev := fmt.Sprintf("urn:district:turin/building:b%02d/device:m%02d", s/4, s%4)
		for k := 0; k < perSeries; k++ {
			v := math.Round((18+float64(s%7)+3*math.Sin(float64(k)/229)+0.4*float64(k%13)/13)*100) / 100
			rows = append(rows, Point{Device: dev, Quantity: []string{"temperature", "humidity", "power", "co2"}[s%4],
				At: base.Add(time.Duration(k)*time.Minute + time.Duration(k%3)*1234567), Value: v})
		}
	}
	sc := NewRowScanner(nil)
	defer sc.Release()
	body, ok := AppendBatch(nil, "rows", rows)
	if !ok || !sc.parseBatch(body, "rows") || len(sc.pts) != len(rows) {
		t.Fatalf("the client's ingest body left the fast path (encoded ok=%v, %d of %d rows)", ok, len(sc.pts), len(rows))
	}
	var res IngestResult
	if status, _ := postJSON(t, ts.URL+"/v2/ingest", nil, json.RawMessage(body), &res); status != http.StatusOK || res.Accepted != len(rows) {
		t.Fatalf("ingest: status=%d res=%+v", status, res)
	}
	series := ts.URL + "/v2/series/" + url.PathEscape(rows[0].Device) + "/" + rows[0].Quantity + "/samples"
	_, stream := fetchWire(t, "GET", series, "gzip", NDJSONType, nil)
	st := NewRowScanner(bytes.NewReader(stream))
	defer st.Release()
	n := 0
	var p Point
	for ; st.Next(&p) == nil; n++ {
		if !samePoint(p, rows[n]) {
			t.Fatalf("streamed row %d = %+v, want %+v", n, p, rows[n])
		}
	}
	if n != perSeries || st.dec != nil {
		t.Fatalf("NDJSON stream: %d rows, fell back to encoding/json: %v", n, st.dec != nil)
	}
	_, raw := fetchWire(t, "GET", series+"?limit=200", "gzip", "", nil)
	var page SamplesPage
	if !sc.parseSamplesPage(raw, &page) || page.Count != 200 || len(page.Samples) != 200 || page.NextCursor == "" || page.Device != rows[0].Device {
		t.Fatalf("JSON page left the fast path or misread: %+v", page)
	}
}

// BenchmarkDecodeIngestBatch decodes one /v2/ingest body shaped like the
// benchmark's ingest_bulk batch: 1000 canonical rows over 128 device URIs
// × 2 quantities, interleaved (the device changes every second row),
// with whole-second UTC stamps. It prices the fast path alone: the
// string scan, the interning, the timestamp and the number.
func BenchmarkDecodeIngestBatch(b *testing.B) {
	base := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	rows := make([]Point, 1000)
	for r := range rows {
		s := r % 256
		rows[r] = Point{
			Device:   fmt.Sprintf("urn:district:turin/building:b%02d/device:m%02d", s/2/4, s/2%4),
			Quantity: []string{"temperature", "humidity"}[s%2],
			At:       base.Add(time.Duration(r/256) * time.Second),
			Value:    math.Round(2000+1000*math.Sin(float64(r))) / 100,
		}
	}
	body, ok := AppendBatch(nil, "rows", rows)
	if !ok {
		b.Fatal("unencodable rows")
	}
	sc := NewRowScanner(nil)
	defer sc.Release()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !sc.parseBatch(body, "rows") || len(sc.pts) != len(rows) {
			b.Fatal("the body left the fast path")
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rows)), "ns/row")
}
