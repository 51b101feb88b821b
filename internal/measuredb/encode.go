package measuredb

import (
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/jsonwire"
	"repro/internal/tsdb"
)

// Hand-rolled row encoders for the read plane (NDJSON streams, JSON
// sample pages) and the bodies the Go client and the coordinator send
// to /v2/ingest. The per-row cost of json.Encoder (reflection, interface
// boxing, the pointer fields of BatchRow) dominated both hot paths;
// these append into one buffer per response or request and, built on
// the jsonwire value encoders, produce byte-identical output to
// encoding/json, so a consumer sees no wire change between releases.

// rowBuf is one response's reusable row-encode buffer.
type rowBuf struct{ b []byte }

var rowBufPool = sync.Pool{New: func() any { return &rowBuf{b: make([]byte, 0, 256)} }}

func getRowBuf() *rowBuf { return rowBufPool.Get().(*rowBuf) }

// maxPooledRowBuf caps what returns to the pool; one giant device URI
// should not pin its high-water mark forever.
const maxPooledRowBuf = 64 << 10

func putRowBuf(buf *rowBuf) {
	if cap(buf.b) <= maxPooledRowBuf {
		rowBufPool.Put(buf)
	}
}

// AppendPoint appends p as encoding/json encodes a Point — the one row
// encoder of the tree: an NDJSON samples row once the caller adds the
// newline json.Encoder ends rows with, an element of an ingest body or
// a samples page otherwise. Device and quantity carry omitempty, so
// empty values vanish just as they would through reflection. A row
// encoding/json refuses (PointOK) is the caller's to keep away.
//
// districtlint:hotpath
func AppendPoint(b []byte, p Point) []byte {
	b = append(b, '{')
	if p.Device != "" {
		b = append(b, `"device":`...)
		b = jsonwire.AppendString(b, p.Device)
		b = append(b, ',')
	}
	if p.Quantity != "" {
		b = append(b, `"quantity":`...)
		b = jsonwire.AppendString(b, p.Quantity)
		b = append(b, ',')
	}
	b = append(b, `"at":`...)
	b = jsonwire.AppendTime(b, p.At)
	b = append(b, `,"value":`...)
	b = jsonwire.AppendFloat(b, p.Value)
	return append(b, '}')
}

// PointOK reports whether encoding/json accepts p: a finite value and a
// timestamp time.Time.MarshalJSON can render.
func PointOK(p Point) bool {
	return !math.IsNaN(p.Value) && !math.IsInf(p.Value, 0) && jsonwire.TimeOK(p.At)
}

// AppendBatch appends the body json.Marshal renders for an IngestBatch
// (field "rows") or a SeriesAppend ("samples") of non-nil rows. ok=false
// means a row is one encoding/json refuses and b is to be discarded:
// json.Marshal of the whole batch words that error.
//
// districtlint:hotpath
func AppendBatch(b []byte, field string, rows []Point) (_ []byte, ok bool) {
	b = append(append(append(b, '{', '"'), field...), `":[`...)
	for i := range rows {
		if !PointOK(rows[i]) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendPoint(b, rows[i])
	}
	return append(b, ']', '}'), true
}

// appendSamplesPage appends the JSON body of GET /v2/.../samples — a
// SamplesPage as json.Encoder writes it, trailing newline included —
// straight from the store's page. The ingester admits only finite
// values, stamped with a time encoding/json parsed or the server's now,
// so no sample here is one it would refuse.
//
// districtlint:hotpath
func appendSamplesPage(b []byte, key tsdb.SeriesKey, samples []tsdb.Sample, nextCursor string) []byte {
	b = append(b, `{"device":`...)
	b = jsonwire.AppendString(b, key.Device)
	b = append(b, `,"quantity":`...)
	b = jsonwire.AppendString(b, key.Quantity)
	b = append(b, `,"samples":[`...)
	for i, smp := range samples {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendPoint(b, Point{At: smp.At, Value: smp.Value})
	}
	b = append(b, `],"count":`...)
	b = strconv.AppendInt(b, int64(len(samples)), 10)
	if nextCursor != "" {
		b = append(b, `,"next_cursor":`...)
		b = jsonwire.AppendString(b, nextCursor)
	}
	return append(b, '}', '\n')
}

// appendBatchSampleRow appends one raw-sample row of an NDJSON batch
// stream: the BatchRow shape with only the sample fields set.
//
// districtlint:hotpath
func appendBatchSampleRow(b []byte, selector int, device, quantity string, at time.Time, v float64) []byte {
	b = append(b, `{"selector":`...)
	b = strconv.AppendInt(b, int64(selector), 10)
	if device != "" {
		b = append(b, `,"device":`...)
		b = jsonwire.AppendString(b, device)
	}
	if quantity != "" {
		b = append(b, `,"quantity":`...)
		b = jsonwire.AppendString(b, quantity)
	}
	b = append(b, `,"at":`...)
	b = jsonwire.AppendTime(b, at)
	b = append(b, `,"value":`...)
	b = jsonwire.AppendFloat(b, v)
	return append(b, '}', '\n')
}
