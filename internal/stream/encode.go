package stream

import (
	"slices"

	"repro/internal/jsonwire"
	"repro/internal/middleware"
)

// appendEvent appends the JSON of ev — byte for byte what
// json.Marshal(ev) produces: fields in declaration order, the payload
// as base64 (null when nil), headers omitted when empty and otherwise
// in sorted key order, the timestamp as RFC 3339 with nanoseconds. The
// caller has checked the timestamp (checkEvent); nothing else in an
// Event can fail to encode.
//
// districtlint:hotpath
func appendEvent(b []byte, ev *middleware.Event) []byte {
	b = append(b, `{"topic":`...)
	b = jsonwire.AppendString(b, ev.Topic)
	b = append(b, `,"payload":`...)
	b = jsonwire.AppendBytes(b, ev.Payload)
	if len(ev.Headers) > 0 {
		b = append(b, `,"headers":{`...)
		b = appendHeaders(b, ev.Headers)
		b = append(b, '}')
	}
	b = append(b, `,"at":`...)
	b = jsonwire.AppendTime(b, ev.At)
	return append(b, '}')
}

// appendHeaders appends the members of a non-empty string map in sorted
// key order, as encoding/json orders map keys.
//
// districtlint:hotpath
func appendHeaders(b []byte, h map[string]string) []byte {
	if len(h) == 1 { // the common shape (content-type only): nothing to sort
		for k, v := range h {
			b = jsonwire.AppendString(b, k)
			b = append(b, ':')
			b = jsonwire.AppendString(b, v)
		}
		return b
	}
	var arr [8]string
	keys := arr[:0]
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonwire.AppendString(b, k)
		b = append(b, ':')
		b = jsonwire.AppendString(b, h[k])
	}
	return b
}

// eventsWireLen estimates the bytes appendEvent produces for evs, so a
// batch's wire buffer is allocated once; exact unless a string needs
// escaping, in which case append grows the buffer.
//
// districtlint:hotpath
func eventsWireLen(evs []middleware.Event) int {
	const fixed = len(`{"topic":"","payload":"","at":"2006-01-02T15:04:05.999999999+00:00"}`)
	n := 0
	for i := range evs {
		ev := &evs[i]
		n += fixed + len(ev.Topic) + (len(ev.Payload)+2)/3*4
		if len(ev.Headers) > 0 {
			n += len(`,"headers":{}`)
			for k, v := range ev.Headers {
				n += len(k) + len(v) + len(`"":"",`)
			}
		}
	}
	return n
}
