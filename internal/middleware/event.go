package middleware

import "time"

// Event is one published message.
type Event struct {
	// Topic is the concrete hierarchical topic the event was published on.
	Topic string `json:"topic"`
	// Payload is an opaque body; proxies put common-format documents here.
	Payload []byte `json:"payload"`
	// Headers carries small metadata (content type, source URI, ...).
	Headers map[string]string `json:"headers,omitempty"`
	// At is the publication timestamp, UTC.
	At time.Time `json:"at"`
}
