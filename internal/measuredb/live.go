package measuredb

import (
	"repro/internal/dataformat"
	"repro/internal/jsonwire"
	"repro/internal/middleware"
	"repro/internal/tsdb"
)

// The live path: rows accepted by the ingest plane republished to the
// service's stream hub for SSE subscribers. The unit is the ingest
// chunk — its events are built in one pass and handed to the hub in
// one PublishBatch — and everything per row is an append into a buffer
// the chunk allocates once.

// liveHeaders is the header map every live measurement event carries.
// It is shared by all of them and by every in-process hub subscriber:
// read-only.
var liveHeaders = map[string]string{"content-type": "application/json"}

// appendTopic appends Topic(deviceURI, quantity): TopicRoot, the device
// URI's path segments (the urn:district: prefix dropped, empty segments
// skipped, wildcard segments replaced by "_"), then the quantity.
//
// districtlint:hotpath
func appendTopic(b []byte, deviceURI, quantity string) []byte {
	b = append(b, TopicRoot...)
	rest := deviceURI
	const prefix = "urn:district:"
	if len(rest) > len(prefix) && rest[:len(prefix)] == prefix {
		rest = rest[len(prefix):]
	}
	for start, i := 0, 0; i <= len(rest); i++ {
		if i < len(rest) && rest[i] != '/' {
			continue
		}
		if seg := rest[start:i]; seg == "+" || seg == "#" {
			b = append(b, '/', '_')
		} else if seg != "" {
			b = append(b, '/')
			b = append(b, seg...)
		}
		start = i + 1
	}
	b = append(b, '/')
	return append(b, quantity...)
}

// measurementDocHead is the constant lead-in of a measurement document.
const measurementDocHead = `{"version":"` + dataformat.Version + `","kind":"` + string(dataformat.KindMeasurement) + `","measurement":{"source":`

// appendMeasurementDoc appends the common-format JSON document of one
// stored sample: byte for byte what
// dataformat.NewMeasurementDoc(measurementsOf(key, {smp}, source)[0]).Encode(dataformat.JSON)
// produces (the fields measurementsOf leaves empty are omitempty there).
//
// districtlint:hotpath
func appendMeasurementDoc(b []byte, source string, key tsdb.SeriesKey, unit dataformat.Unit, smp tsdb.Sample) []byte {
	b = append(b, measurementDocHead...)
	b = jsonwire.AppendString(b, source)
	b = append(b, `,"device":`...)
	b = jsonwire.AppendString(b, key.Device)
	b = append(b, `,"quantity":`...)
	b = jsonwire.AppendString(b, key.Quantity)
	b = append(b, `,"unit":`...)
	b = jsonwire.AppendString(b, string(unit))
	b = append(b, `,"value":`...)
	b = jsonwire.AppendFloat(b, smp.Value)
	b = append(b, `,"timestamp":`...)
	b = jsonwire.AppendTime(b, smp.At)
	return append(b, '}', '}')
}

// liveChunk is an ingester's staging area for one chunk's live events.
// Everything in it is scratch reused across chunks: the hub copies the
// events it sequences, and the bytes they point into (payloads, topics)
// are allocated per chunk, once, because the hub's ring keeps them.
type liveChunk struct {
	evs     []middleware.Event
	payload []byte // this chunk's payloads, back to back
	topics  []byte // this chunk's topics, back to back
	ends    []int  // ends[i]: where event i's topic ends in topics
	source  string
}

// begin sizes the chunk's payload buffer for rows and pins the source
// address the documents name.
func (c *liveChunk) begin(rows []tsdb.Row, source string) {
	n := 0
	for i := range rows {
		n += len(rows[i].Key.Device) + len(rows[i].Key.Quantity)
	}
	// Beyond the strings counted above: the fixed member names and
	// punctuation (~60 bytes), a unit, a float and a timestamp.
	const perRow = len(measurementDocHead) + 128
	c.payload = make([]byte, 0, n+len(rows)*(perRow+len(source)))
	c.source = source
}

// add stages the live event of one accepted row.
//
// districtlint:hotpath
func (c *liveChunk) add(r *tsdb.Row) {
	c.topics = appendTopic(c.topics, r.Key.Device, r.Key.Quantity)
	c.ends = append(c.ends, len(c.topics))
	unit, _ := dataformat.CanonicalUnit(dataformat.Quantity(r.Key.Quantity))
	start := len(c.payload)
	c.payload = appendMeasurementDoc(c.payload, c.source, r.Key, unit, r.Sample)
	c.evs = append(c.evs, middleware.Event{
		Payload: c.payload[start:len(c.payload):len(c.payload)],
		Headers: liveHeaders,
		At:      r.Sample.At,
	})
}

// events finishes the staged events — one string holds every topic —
// and returns them; reset must follow once they have been published.
func (c *liveChunk) events() []middleware.Event {
	topics, start := string(c.topics), 0
	for i, end := range c.ends {
		c.evs[i].Topic = topics[start:end]
		start = end
	}
	return c.evs
}

// reset forgets the chunk, keeping the scratch capacity.
func (c *liveChunk) reset() {
	clear(c.evs) // drop the references into the published chunk's buffers
	c.evs, c.topics, c.ends = c.evs[:0], c.topics[:0], c.ends[:0]
	c.payload, c.source = nil, ""
}
