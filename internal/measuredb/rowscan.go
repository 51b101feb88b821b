package measuredb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/bits"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
)

// The row decoder of the ingest plane, shared by the node, the
// clustered node and the coordinator — and by the Go client's read side
// (internal/client) and the coordinator's fan-in: a streamed NDJSON
// sample row is the canonical ingest row, a JSON samples page an
// envelope around an array of them, and a /v2/query JSON answer nests
// such arrays in its series.
// It has one rule. A row in the canonical shape is parsed in place over
// one pooled buffer, its device/quantity strings interned, so
// steady-state ingest of a known device fleet allocates nothing per
// row. Anything else is "not canonical", never "invalid": the untouched
// bytes go to encoding/json itself, which decides what they mean and
// words the error if they mean nothing.
//
// The canonical row is what encoding/json emits for a Point, and so
// what every writer in this repository sends: an object of "device",
// "quantity", "at" and "value" (exact keys, any order, each at most
// once) whose strings carry no escape, no control byte and only valid
// UTF-8, whose value is a JSON-grammar number, and whose timestamp
// parseRFC3339 or time.Time.UnmarshalJSON accepts; JSON whitespace may
// separate the tokens, and an NDJSON line holds one row. On that shape
// the fast path and encoding/json agree row for row, which the fuzz
// oracles in rowscan_test.go enforce.

const (
	// minScanBuf is the initial read buffer; it grows to hold the longest
	// line (NDJSON) or the whole body (JSON batch), then is reused via
	// the pool.
	minScanBuf = 8 << 10
	// maxScanBuf bounds what the fast path buffers and what the pool
	// keeps: an NDJSON line still incomplete at this length goes to
	// encoding/json, which streams it, and a batch body that grew the
	// buffer past it leaves the buffer to the collector.
	maxScanBuf = 4 << 20
	// maxInterned caps the device/quantity intern table a pooled scanner
	// carries across requests; a full table is dropped when the scanner
	// is next taken from the pool.
	maxInterned = 4096
	// frontBits sizes the direct-mapped table in front of the intern map
	// (1<<frontBits names): a name found there costs a few word loads and
	// one comparison instead of a hash of the whole string and a map probe.
	frontBits = 10
)

// RowScanner decodes Point rows from one request or response body.
// Scanners are pooled; the intern table survives across bodies on purpose.
type RowScanner struct {
	r     io.Reader
	buf   []byte
	pos   int  // next unread byte
	limit int  // end of valid data in buf
	eof   bool // r is exhausted, or failed with rerr
	// rerr is the read failure that ended the input. It is reported once
	// the whole rows read before it are delivered.
	rerr error

	// dec takes over an NDJSON stream at its first non-canonical row,
	// for the rest of the request.
	dec *json.Decoder

	interned map[string]string
	// front caches interned names by frontSlot; it is cleared with the
	// map, so it never outlives the table it fronts.
	front [1 << frontBits]string
	pts   []Point // pooled row slice: a batch's rows, or decodeIngest's NDJSON rows

	// The parts of a /v2/query answer as DecodeBatchResponse parses them,
	// before each kind is copied out into one block of its own.
	results []resultSpan
	series  []seriesSpan
	aggs    []AggregateResponse
}

var rowScannerPool = sync.Pool{New: func() any { return new(RowScanner) }}

// NewRowScanner readies a pooled scanner over r; Release it when done.
func NewRowScanner(r io.Reader) *RowScanner {
	sc := rowScannerPool.Get().(*RowScanner)
	sc.r = r
	sc.pos, sc.limit = 0, 0
	sc.eof, sc.rerr = false, nil
	if sc.buf == nil {
		sc.buf = make([]byte, minScanBuf)
	}
	if sc.interned == nil || len(sc.interned) >= maxInterned {
		sc.interned = make(map[string]string, 64)
		clear(sc.front[:])
	}
	return sc
}

// Release returns the scanner (and its row slice) to the pool. Rows
// returned by decodeBatch are invalid after this; Next's rows are not.
func (sc *RowScanner) Release() {
	sc.r, sc.dec, sc.rerr = nil, nil, nil
	sc.pts, sc.results, sc.series, sc.aggs = sc.pts[:0], sc.results[:0], sc.series[:0], sc.aggs[:0]
	if len(sc.buf) > maxScanBuf {
		sc.buf = nil
	}
	rowScannerPool.Put(sc)
}

// fill slides the unread window to the front of the buffer, growing it
// when full, and reads more input behind it. A source that ends sets
// eof, and rerr too when it ends by failing; a Read that returns bytes
// with its error keeps them, so the rows they complete still count.
func (sc *RowScanner) fill() {
	if sc.pos > 0 {
		sc.limit = copy(sc.buf, sc.buf[sc.pos:sc.limit])
		sc.pos = 0
	}
	if sc.limit == len(sc.buf) {
		nb := make([]byte, len(sc.buf)*2)
		copy(nb, sc.buf)
		sc.buf = nb
	}
	for {
		n, err := sc.r.Read(sc.buf[sc.limit:])
		sc.limit += n
		if err != nil {
			sc.eof = true
			if err != io.EOF {
				sc.rerr = err
			}
			return
		}
		if n > 0 {
			return
		}
	}
}

// line returns the unread input from its first non-blank byte up to the
// next newline, reading until the buffer holds all of it. Input that
// ends without a newline, or a line still open at maxScanBuf, is
// returned as far as it goes — unless the input ended in a read failure,
// which leaves that last line incomplete: the failure is returned
// instead. io.EOF reports a clean end of input.
func (sc *RowScanner) line() ([]byte, error) {
	searched := 0 // bytes after pos known to hold no newline
	for {
		if searched == 0 {
			sc.pos = skipWS(sc.buf[:sc.limit], sc.pos)
		}
		w := sc.buf[sc.pos:sc.limit]
		if i := bytes.IndexByte(w[searched:], '\n'); i >= 0 {
			return w[:searched+i], nil
		}
		if sc.rerr != nil {
			return nil, sc.rerr
		}
		if sc.eof || len(w) >= maxScanBuf {
			if len(w) == 0 {
				return nil, io.EOF
			}
			return w, nil
		}
		searched = len(w)
		sc.fill()
	}
}

// Next decodes the next NDJSON row into p. io.EOF reports a clean end
// of input; any other error poisons the rest of the stream.
//
// districtlint:hotpath
func (sc *RowScanner) Next(p *Point) error {
	if sc.dec == nil {
		line, err := sc.line()
		if err != nil {
			return err
		}
		n, ok := sc.parseRow(line, p)
		sc.pos += n
		if ok && skipWS(line, n) == len(line) {
			return nil
		}
		// Not canonical — or canonical with more on the same line, which no
		// writer sends: finding the line's end again for every row on it
		// would make a newline-free body quadratic, so encoding/json
		// streams the rest of that too.
		sc.fallBack()
		if ok {
			return nil
		}
	}
	*p = Point{}
	return sc.dec.Decode(p)
}

// fallBack hands the unread window and the rest of the reader to
// encoding/json. A json.Decoder keeps no state between top-level values,
// so starting one at a row boundary continues the stream exactly as one
// started at byte zero would have.
func (sc *RowScanner) fallBack() {
	rest := sc.r
	if sc.rerr != nil {
		rest = failedReader{sc.rerr}
	}
	sc.dec = json.NewDecoder(io.MultiReader(bytes.NewReader(sc.buf[sc.pos:sc.limit]), rest))
}

// failedReader stands in for a source that has failed: a reader need
// not repeat its error if read again, and the scanner has read it once.
type failedReader struct{ err error }

func (r failedReader) Read([]byte) (int, error) { return 0, r.err }

// decodeBatch decodes a whole {"<field>":[...]} request body ("rows" or
// "samples"). The body is read to its end first, so any error fails it
// before a single row is applied. Rows of a canonical body land in the
// scanner's pooled slice (valid until release); any other body is
// decoded again, from its first byte, by encoding/json.
func (sc *RowScanner) decodeBatch(field string) ([]Point, error) {
	for !sc.eof {
		sc.fill()
	}
	if sc.rerr != nil {
		return nil, sc.rerr
	}
	body := sc.buf[:sc.limit]
	if sc.parseBatch(body, field) {
		return sc.pts, nil
	}
	// One json.Decoder value, as the ingest plane has always read it:
	// bytes after the top-level value are ignored, an empty body is EOF.
	dec := json.NewDecoder(bytes.NewReader(body))
	if field == "samples" {
		var b SeriesAppend
		err := dec.Decode(&b)
		return b.Samples, err
	}
	var b IngestBatch
	err := dec.Decode(&b)
	return b.Rows, err
}

// parseBatch is the fast path of decodeBatch: an object whose only key
// is field, holding an array of canonical rows, decoded into sc.pts.
// false means "not canonical" and leaves sc.pts undefined.
//
// districtlint:hotpath
func (sc *RowScanner) parseBatch(b []byte, field string) bool {
	sc.pts = sc.pts[:0]
	i := token(b, 0, '{')
	if i < 0 {
		return false
	}
	key, i := plainString(b, i)
	if i < 0 || string(key) != field {
		return false
	}
	if i = token(b, i, ':'); i < 0 {
		return false
	}
	sc.pts, i = sc.parseRows(b, i, sc.pts)
	return i >= 0 && token(b, i, '}') >= 0
}

// parseRows appends the array of canonical rows at b[i] to dst and
// returns the index after its closing bracket, -1 for "not canonical".
//
// districtlint:hotpath
func (sc *RowScanner) parseRows(b []byte, i int, dst []Point) ([]Point, int) {
	i = array(b, i, func(i int) int {
		var p Point
		n, ok := sc.parseRow(b[i:], &p)
		if !ok {
			return -1
		}
		dst = append(dst, p)
		return i + n
	})
	return dst, i
}

// DecodeSamplesPage decodes the JSON body of GET /v2/.../samples into
// out (zero on entry) as json.Unmarshal would: the canonical page —
// what every server in this repository writes — in place, any other
// body by json.Unmarshal itself, from its first byte.
func DecodeSamplesPage(body []byte, out *SamplesPage) error {
	sc := NewRowScanner(nil)
	defer sc.Release()
	if sc.parseSamplesPage(body, out) {
		return nil
	}
	*out = SamplesPage{}
	return json.Unmarshal(body, out)
}

var samplesPageKeys = []string{"device", "quantity", "samples", "count", "next_cursor"}

// parseSamplesPage is the fast path of DecodeSamplesPage: one object of
// "device", "quantity", "samples" (an array of canonical rows), "count"
// (a plain integer) and "next_cursor", any order, each at most once,
// and nothing but whitespace after it. false means "not canonical" and
// leaves out undefined.
//
// districtlint:hotpath
func (sc *RowScanner) parseSamplesPage(b []byte, out *SamplesPage) bool {
	i := object(b, 0, samplesPageKeys, func(key string, i int) int {
		switch key {
		case "device":
			out.Device, i = sc.name(b, i)
		case "quantity":
			out.Quantity, i = sc.name(b, i)
		case "next_cursor":
			s, j := plainString(b, i)
			if j < 0 || !utf8.Valid(s) {
				return -1
			}
			out.NextCursor, i = string(s), j
		case "count":
			out.Count, i = jsonInt(b, i)
		case "samples":
			// ~45 bytes a row: one allocation for the page this returns.
			out.Samples, i = sc.parseRows(b, i, make([]Point, 0, (len(b)-i)/40+1))
		}
		return i
	})
	return i >= 0 && skipWS(b, i) == len(b)
}

// DecodeBatchResponse decodes the JSON body of POST /v2/query into out
// (zero on entry) as json.Unmarshal would: the canonical answer — what
// batchJSON writes, on a node and on the coordinator — in place, any
// other body by json.Unmarshal itself, from its first byte. A window
// answer is one of those: its buckets are encoding/json's to decode.
func DecodeBatchResponse(body []byte, out *BatchResponse) error {
	sc := NewRowScanner(nil)
	defer sc.Release()
	if sc.parseBatchResponse(body, out) {
		return nil
	}
	*out = BatchResponse{}
	return json.Unmarshal(body, out)
}

// resultSpan is one BatchResult as parsed: its series are
// sc.series[lo:hi], and hi < 0 when it has no "series" key.
type resultSpan struct {
	sel    SeriesSelector
	err    string
	lo, hi int
}

// seriesSpan is one BatchSeries as parsed: its samples are
// sc.pts[lo:hi] (lo < 0: no "samples" key), its aggregate sc.aggs[agg]
// (agg < 0: none).
type seriesSpan struct {
	device, quantity string
	lo, hi, agg      int
	truncated        bool
}

var (
	batchResponseKeys = []string{"results", "series", "samples"}
	batchResultKeys   = []string{"selector", "series", "error"}
	selectorKeys      = []string{"device", "quantity"}
	batchSeriesKeys   = []string{"device", "quantity", "samples", "aggregate", "truncated"}
	aggregateKeys     = []string{"device", "quantity", "count", "min", "max", "mean", "sum"}
)

// parseBatchResponse is the fast path of DecodeBatchResponse: the
// BatchResponse object whose every key is one of its fields' JSON names
// ("buckets" excluded), at most once per object, whose strings are
// plain and valid UTF-8, whose numbers are JSON-grammar ones that fit
// their field, whose sample rows are canonical, and nothing but
// whitespace after it. The parts land in the scanner's scratch first,
// then in one block per kind — results, series, samples, aggregates —
// so an answer costs four allocations however many series it holds.
// false means "not canonical" and leaves out undefined.
//
// districtlint:hotpath
func (sc *RowScanner) parseBatchResponse(b []byte, out *BatchResponse) bool {
	sc.pts, sc.results, sc.series, sc.aggs = sc.pts[:0], sc.results[:0], sc.series[:0], sc.aggs[:0]
	hasResults := false
	i := object(b, 0, batchResponseKeys, func(key string, i int) int {
		switch key {
		case "results":
			hasResults = true
			return array(b, i, func(i int) int { return sc.parseResult(b, i) })
		case "series":
			out.Series, i = jsonInt(b, i)
		case "samples":
			out.Samples, i = jsonInt(b, i)
		}
		return i
	})
	if i < 0 || skipWS(b, i) != len(b) {
		return false
	}
	if !hasResults {
		return true
	}
	pts := append(make([]Point, 0, len(sc.pts)), sc.pts...)
	aggs := append(make([]AggregateResponse, 0, len(sc.aggs)), sc.aggs...)
	series := make([]BatchSeries, len(sc.series))
	for k, s := range sc.series {
		bs := &series[k]
		bs.Device, bs.Quantity, bs.Truncated = s.device, s.quantity, s.truncated
		if s.lo >= 0 {
			bs.Samples = pts[s.lo:s.hi:s.hi]
		}
		if s.agg >= 0 {
			bs.Aggregate = &aggs[s.agg]
		}
	}
	out.Results = make([]BatchResult, len(sc.results))
	for k, r := range sc.results {
		res := &out.Results[k]
		res.Selector, res.Error = r.sel, r.err
		if r.hi >= 0 {
			res.Series = series[r.lo:r.hi:r.hi]
		}
	}
	return true
}

// parseResult parses the BatchResult object at b[i] into sc.results.
//
// districtlint:hotpath
func (sc *RowScanner) parseResult(b []byte, i int) int {
	r := resultSpan{hi: -1}
	i = object(b, i, batchResultKeys, func(key string, i int) int {
		switch key {
		case "selector":
			return object(b, i, selectorKeys, func(key string, i int) int {
				if key == "device" {
					r.sel.Device, i = sc.name(b, i)
				} else {
					r.sel.Quantity, i = sc.name(b, i)
				}
				return i
			})
		case "series":
			r.lo = len(sc.series)
			i = array(b, i, func(i int) int { return sc.parseSeries(b, i) })
			r.hi = len(sc.series)
		case "error":
			r.err, i = sc.name(b, i)
		}
		return i
	})
	sc.results = append(sc.results, r)
	return i
}

// parseSeries parses the BatchSeries object at b[i] into sc.series, its
// samples into sc.pts and its aggregate into sc.aggs.
//
// districtlint:hotpath
func (sc *RowScanner) parseSeries(b []byte, i int) int {
	s := seriesSpan{lo: -1, agg: -1}
	i = object(b, i, batchSeriesKeys, func(key string, i int) int {
		switch key {
		case "device":
			s.device, i = sc.name(b, i)
		case "quantity":
			s.quantity, i = sc.name(b, i)
		case "samples":
			s.lo = len(sc.pts)
			sc.pts, i = sc.parseRows(b, i, sc.pts)
			s.hi = len(sc.pts)
		case "aggregate":
			s.agg = len(sc.aggs)
			sc.aggs = append(sc.aggs, AggregateResponse{})
			i = sc.parseAggregate(b, i, &sc.aggs[s.agg])
		case "truncated":
			s.truncated, i = jsonBool(b, i)
		}
		return i
	})
	sc.series = append(sc.series, s)
	return i
}

// parseAggregate parses the AggregateResponse object at b[i] into a.
//
// districtlint:hotpath
func (sc *RowScanner) parseAggregate(b []byte, i int, a *AggregateResponse) int {
	return object(b, i, aggregateKeys, func(key string, i int) int {
		switch key {
		case "device":
			a.Device, i = sc.name(b, i)
		case "quantity":
			a.Quantity, i = sc.name(b, i)
		case "count":
			a.Count, i = jsonInt(b, i)
		case "min":
			a.Min, i = jsonFloat(b, i)
		case "max":
			a.Max, i = jsonFloat(b, i)
		case "mean":
			a.Mean, i = jsonFloat(b, i)
		case "sum":
			a.Sum, i = jsonFloat(b, i)
		}
		return i
	})
}

// object walks the JSON object at b[i], handing field each key — as
// spelled in keys — with the index of its value; field returns the
// index after the value, -1 for "not canonical". A key not in keys, or
// written with an escape, or repeated (last-wins is encoding/json's to
// apply), is not canonical either. It returns the index after the
// closing brace, or -1.
func object(b []byte, i int, keys []string, field func(key string, i int) int) int {
	if i = token(b, i, '{'); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == '}' {
		return i + 1
	}
	seen := 0
	for {
		name, j := plainString(b, i)
		if j < 0 {
			return -1
		}
		k := 0
		for k < len(keys) && string(name) != keys[k] {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return -1
		}
		seen |= 1 << k
		if i = token(b, j, ':'); i < 0 {
			return -1
		}
		if i = field(keys[k], i); i < 0 {
			return -1
		}
		if i = skipWS(b, i); i < len(b) && b[i] == '}' {
			return i + 1
		}
		if i = token(b, i, ','); i < 0 {
			return -1
		}
	}
}

// array walks the JSON array at b[i], handing elem the index of each
// element; elem returns the index after it, -1 for "not canonical". It
// returns the index after the closing bracket, or -1.
func array(b []byte, i int, elem func(i int) int) int {
	if i = token(b, i, '['); i < 0 {
		return -1
	}
	if i < len(b) && b[i] == ']' {
		return i + 1
	}
	for {
		if i = elem(i); i < 0 {
			return -1
		}
		if i = skipWS(b, i); i < len(b) && b[i] == ']' {
			return i + 1
		}
		if i = token(b, i, ','); i < 0 {
			return -1
		}
	}
}

// jsonInt decodes the JSON-grammar integer at b[i] that fits an int and
// returns the index after it; -1 for a fraction, an exponent, a number
// out of range or none at all, which encoding/json refuses for an int.
func jsonInt(b []byte, i int) (int, int) {
	j := numberEnd(b, i)
	n, err := strconv.Atoi(string(b[i:j]))
	if err != nil {
		return 0, -1
	}
	return n, j
}

// jsonFloat decodes the JSON-grammar number at b[i] as encoding/json
// decodes a float64 and returns the index after it; -1 when there is
// none, or it is out of range.
func jsonFloat(b []byte, i int) (float64, int) {
	j := numberEnd(b, i)
	if j == i {
		return 0, -1
	}
	v, ok := fastFloat(b[i:j])
	if !ok {
		var err error
		if v, err = strconv.ParseFloat(string(b[i:j]), 64); err != nil {
			return 0, -1
		}
	}
	return v, j
}

// jsonBool decodes the literal true or false at b[i] and returns the
// index after it, -1 for anything else.
func jsonBool(b []byte, i int) (bool, int) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, i + 4
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, i + 5
	}
	return false, -1
}

// parseRow is the fast path: it decodes the canonical row at the start
// of b into p and returns the bytes consumed. ok=false means "not
// canonical" — b may still be valid JSON, only encoding/json can say —
// and leaves p undefined.
//
// districtlint:hotpath
func (sc *RowScanner) parseRow(b []byte, p *Point) (n int, ok bool) {
	*p = Point{}
	i := token(b, 0, '{')
	if i < 0 {
		return 0, false
	}
	seen := 0
	for {
		key, j := plainString(b, i)
		if j < 0 {
			return 0, false
		}
		if i = token(b, j, ':'); i < 0 {
			return 0, false
		}
		// The four keys differ in length, so the length tells them apart.
		bit := 1 << len(key)
		if seen&bit != 0 {
			return 0, false // a repeated key: last-wins is encoding/json's to apply
		}
		seen |= bit
		switch string(key) {
		case "device":
			if p.Device, i = sc.name(b, i); i < 0 {
				return 0, false
			}
		case "quantity":
			if p.Quantity, i = sc.name(b, i); i < 0 {
				return 0, false
			}
		case "at":
			s, j := plainString(b, i)
			if j < 0 {
				return 0, false
			}
			if t, ok := parseRFC3339(s); ok {
				p.At = t
			} else if p.At.UnmarshalJSON(b[i:j]) != nil {
				// The raw quoted token, exactly the bytes encoding/json
				// would hand it; its refusal is worded by the fallback.
				return 0, false
			}
			i = j
		case "value":
			if p.Value, i = jsonFloat(b, i); i < 0 {
				return 0, false
			}
		default:
			return 0, false
		}
		if i = skipWS(b, i); i < len(b) && b[i] == '}' {
			return i + 1, true
		}
		if i = token(b, i, ','); i < 0 {
			return 0, false
		}
	}
}

// skipWS returns the index of the first byte of b at or after i that is
// not JSON whitespace.
func skipWS(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\r' || b[i] == '\t') {
		i++
	}
	return i
}

// token skips whitespace, the byte c, and the whitespace after it, and
// returns the index reached; -1 when the next token is not c.
func token(b []byte, i int, c byte) int {
	if i >= len(b) || b[i] != c {
		if i = skipWS(b, i); i >= len(b) || b[i] != c {
			return -1
		}
	}
	if i+1 < len(b) && b[i+1] > ' ' {
		return i + 1 // every JSON whitespace byte is <= ' '
	}
	return skipWS(b, i+1)
}

// plainString scans the string token at b[i] that needs no decoding:
// closed inside b, no escape, no control byte. It returns the bytes
// between the quotes and the index after the closing quote, -1 when
// b[i] is not such a string.
func plainString(b []byte, i int) (body []byte, end int) {
	body, end, _ = scanString(b, i)
	return body, end
}

const (
	lsb = 0x0101010101010101 // 0x01 in every byte of a word
	msb = 0x8080808080808080 // 0x80 in every byte of a word
)

// scanString is plainString that also reports whether the body holds a
// byte >= 0x80, the only bytes utf8.Valid has to look at. It takes the
// body eight bytes at a time: in each little-endian word the zero-byte
// trick, (x - lsb) &^ x & msb, flags the bytes that equal '"' or '\\',
// and (w - 0x20*lsb) &^ w & msb those below 0x20. A borrow can flag a
// byte above a true hit, never below one, so the lowest flag is exact
// and decides the string: its closing quote, or not plain. The last
// bytes of b, fewer than eight, take the byte loop.
func scanString(b []byte, i int) (body []byte, end int, high bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, -1, false
	}
	var seen uint64 // every body byte OR-ed in, to test bit 7 once
	j := i + 1
	for ; j+8 <= len(b); j += 8 {
		w := binary.LittleEndian.Uint64(b[j:])
		q, bs := w^('"'*lsb), w^('\\'*lsb)
		if m := ((q-lsb)&^q | (bs-lsb)&^bs | (w-0x20*lsb)&^w) & msb; m != 0 {
			k := bits.TrailingZeros64(m) >> 3
			if b[j+k] != '"' {
				return nil, -1, false
			}
			seen |= w & (1<<(8*k) - 1) // the bytes before the quote
			return b[i+1 : j+k], j + k + 1, seen&msb != 0
		}
		seen |= w
	}
	for ; j < len(b) && b[j] != '\\' && b[j] >= 0x20; j++ {
		if b[j] == '"' {
			return b[i+1 : j], j + 1, seen&msb != 0
		}
		seen |= uint64(b[j])
	}
	return nil, -1, false
}

// name decodes the device or quantity string at b[i], interned, and
// returns the index after it; -1 when it is not a plain string of valid
// UTF-8 (encoding/json would substitute U+FFFD).
func (sc *RowScanner) name(b []byte, i int) (string, int) {
	s, end, high := scanString(b, i)
	if end < 0 || high && !utf8.Valid(s) {
		return "", -1
	}
	return sc.intern(s), end
}

// intern returns b as a string, reusing the previous allocation for a
// repeated value. The front table answers a repeat without hashing all
// of b; the map behind it holds every name of the table's lifetime.
func (sc *RowScanner) intern(b []byte) string {
	slot := &sc.front[frontSlot(b)]
	if *slot == string(b) {
		return *slot
	}
	s, ok := sc.interned[string(b)]
	if !ok {
		s = string(b)
		if len(sc.interned) < maxInterned {
			sc.interned[s] = s
		}
	}
	*slot = s
	return s
}

// frontSlot picks b's front-table slot from its length, its last 16
// bytes and a word from its middle. A district's device URIs differ
// only near their end, and often not within the last 8 bytes
// (".../building:b03/device:m01"), so those alone would pile the fleet
// into a few slots.
func frontSlot(b []byte) int {
	n := len(b)
	h := uint64(n)
	if n >= 8 {
		h = mixWord(h, binary.LittleEndian.Uint64(b[max(n-16, 0):]))
		h = mixWord(h, binary.LittleEndian.Uint64(b[n/2-4:]))
		h = mixWord(h, binary.LittleEndian.Uint64(b[n-8:]))
	} else {
		for _, c := range b {
			h = h<<8 | uint64(c)
		}
		h = mixWord(h, 0)
	}
	return int(h >> (64 - frontBits))
}

// mixWord folds w into the hash h. The multiply carries every bit of
// h^w upward; the shift brings the high half back down, so a later
// word's low bits are not the only ones the next product sees.
func mixWord(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// numberEnd returns the end of the JSON-grammar number starting at
// b[i] (strconv alone would accept hex floats, a leading '+', "Inf" —
// all invalid JSON), or i when none starts there.
func numberEnd(b []byte, i int) int {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	k := digits(b, j)
	if k == j || b[j] == '0' && k > j+1 {
		return i // no integer part, or a leading zero that does not stand alone
	}
	if j = k; j < len(b) && b[j] == '.' {
		if k = digits(b, j+1); k == j+1 {
			return i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		if k = j + 1; k < len(b) && (b[k] == '+' || b[k] == '-') {
			k++
		}
		if j = digits(b, k); j == k {
			return i
		}
	}
	return j
}

// digits returns the end of the run of decimal digits starting at b[i].
func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// pow10 holds the exactly-representable powers of ten of the fast
// float path.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// fastFloat converts plain decimals of up to 15 significant digits and
// no exponent without allocating: mantissa and scale are both exact in
// float64, and the correctly-rounded division yields bit-identical
// results to strconv.ParseFloat.
func fastFloat(tok []byte) (float64, bool) {
	i := 0
	neg := false
	if i < len(tok) && tok[i] == '-' {
		neg = true
		i++
	}
	var mant uint64
	ndig, scale := 0, 0
	seenDot := false
	for ; i < len(tok); i++ {
		c := tok[i]
		switch {
		case c >= '0' && c <= '9':
			mant = mant*10 + uint64(c-'0')
			ndig++
			if seenDot {
				scale++
			}
		case c == '.':
			seenDot = true
		default:
			return 0, false // exponent form: let strconv handle it
		}
	}
	if ndig > 15 {
		return 0, false
	}
	v := float64(mant) / pow10[scale]
	if neg {
		v = -v
	}
	return v, true
}

// daysIn is the day count of each month in a non-leap year.
var daysIn = [13]int{0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}

// parseRFC3339 parses the strict, dominant RFC 3339 shape —
// YYYY-MM-DDThh:mm:ss[.fffffffff]Z — without allocating. ok=false
// sends the caller to time.Time.UnmarshalJSON, which handles numeric
// offsets, leap seconds, and every malformed case exactly as
// encoding/json would.
func parseRFC3339(b []byte) (time.Time, bool) {
	num2 := func(i int) (int, bool) {
		d1, d2 := b[i]-'0', b[i+1]-'0'
		if d1 > 9 || d2 > 9 {
			return 0, false
		}
		return int(d1)*10 + int(d2), true
	}
	if len(b) < 20 || b[4] != '-' || b[7] != '-' || b[10] != 'T' || b[13] != ':' || b[16] != ':' {
		return time.Time{}, false
	}
	y1, ok1 := num2(0)
	y2, ok2 := num2(2)
	month, ok3 := num2(5)
	day, ok4 := num2(8)
	hour, ok5 := num2(11)
	minute, ok6 := num2(14)
	sec, ok7 := num2(17)
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) {
		return time.Time{}, false
	}
	year := y1*100 + y2
	i := 19
	nanos := 0
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		mult := 100000000
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			if i-start >= 9 {
				return time.Time{}, false // over-long fraction: slow path
			}
			nanos += int(b[i]-'0') * mult
			mult /= 10
			i++
		}
		if i == start {
			return time.Time{}, false
		}
	}
	if i != len(b)-1 || b[i] != 'Z' {
		return time.Time{}, false // numeric offsets: slow path
	}
	maxDay := daysIn[month%13]
	if month == 2 && year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		maxDay = 29
	}
	if month < 1 || month > 12 || day < 1 || day > maxDay ||
		hour > 23 || minute > 59 || sec > 59 {
		return time.Time{}, false
	}
	secs := int64(daysFromCivil(year, month, day))*86400 + int64(hour*3600+minute*60+sec)
	return time.Unix(secs, int64(nanos)).UTC(), true
}

// daysFromCivil counts the days from 1970-01-01 to a valid proleptic
// Gregorian date, negative before it (H. Hinnant's algorithm). Years
// run March to February, so a leap day ends its year, and a 400-year era
// is 146097 days. The era division floors: year 0000 in January or
// February is year −1 of the era before.
func daysFromCivil(year, month, day int) int {
	if month <= 2 {
		year--
	}
	era := year / 400
	if year < 0 {
		era = (year - 399) / 400
	}
	yoe := year - era*400                     // [0, 399]
	doy := (153*((month+9)%12)+2)/5 + day - 1 // [0, 365], from March 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy    // [0, 146096]
	return era*146097 + doe - 719468          // 719468: 0000-03-01 to 1970-01-01
}
