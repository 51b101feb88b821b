package measuredb

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/jsonwire"
)

// Hand-rolled NDJSON row encoders for the streaming read plane. The
// per-row cost of json.Encoder (reflection, interface boxing, the
// pointer fields of BatchRow) dominated the query hot path; these
// append into one pooled buffer per response and, built on the jsonwire
// value encoders, produce byte-identical output to encoding/json, so
// switching a stream consumer between releases sees no wire change.

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

// appendPointNDJSON appends one streamed samples row (a Point with the
// series named on it) plus the newline json.Encoder terminates rows
// with. Device and quantity carry omitempty, so empty values vanish
// just as they would through reflection.
//
// districtlint:hotpath
func appendPointNDJSON(b []byte, p Point) []byte {
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
