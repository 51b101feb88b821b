package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strings"
	"sync"
	"time"
)

// Cross-service tracing, W3C traceparent flavoured: the middleware
// chain parses (or mints) a trace ID per request, api.Transport
// forwards it on outbound calls, handlers accumulate named stage
// timings through the context, and each service keeps its finished
// span records in a bounded ring served at /v1/trace/{id}.

// TraceHeader is the propagation header, in canonical form.
const TraceHeader = "Traceparent"

// randHex returns n (at most 16) random bytes as lowercase hex.
func randHex(n int) string {
	var b [16]byte
	var out [32]byte
	if _, err := rand.Read(b[:n]); err != nil {
		// crypto/rand failing means the platform is broken; a
		// time-derived ID would silently collide, so fail loudly.
		panic("obs: crypto/rand: " + err.Error())
	}
	return string(out[:hex.Encode(out[:], b[:n])])
}

// NewTraceID mints a 16-byte (32 hex char) trace ID.
func NewTraceID() string { return randHex(16) }

// NewSpanID mints an 8-byte (16 hex char) span ID.
func NewSpanID() string { return randHex(8) }

// FormatTraceparent renders a version-00 traceparent value with the
// sampled flag set.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

// ParseTraceparent extracts the trace and parent-span IDs from a
// traceparent header value. Unknown versions are accepted (per the
// spec) as long as the version-00 prefix fields parse; all-zero IDs
// and malformed values are rejected.
func ParseTraceparent(v string) (traceID, spanID string, ok bool) {
	ver, rest, _ := strings.Cut(strings.TrimSpace(v), "-")
	tid, rest, _ := strings.Cut(rest, "-")
	sid, _, ok := strings.Cut(rest, "-")
	if !ok || len(ver) != 2 || !isLowerHex(ver) || ver == "ff" {
		return "", "", false
	}
	if len(tid) != 32 || !isLowerHex(tid) || strings.Trim(tid, "0") == "" {
		return "", "", false
	}
	if len(sid) != 16 || !isLowerHex(sid) || strings.Trim(sid, "0") == "" {
		return "", "", false
	}
	return tid, sid, true
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') {
			continue
		}
		return false
	}
	return true
}

type ctxKey int

const (
	ctxKeyTraceID ctxKey = iota
	ctxKeyStages
)

// WithTraceID stores the request's trace ID in the context.
func WithTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyTraceID, id)
}

// TraceIDFrom reads the trace ID, "" when the request is untraced.
func TraceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyTraceID).(string)
	return id
}

// WithStages stores a stage collector in the context.
func WithStages(ctx context.Context, st *Stages) context.Context {
	return context.WithValue(ctx, ctxKeyStages, st)
}

// StagesFrom reads the request's stage collector; nil when absent.
// Stages methods are nil-safe, so instrumentation points call
// StagesFrom(ctx).Observe(...) unconditionally.
func StagesFrom(ctx context.Context) *Stages {
	st, _ := ctx.Value(ctxKeyStages).(*Stages)
	return st
}

// Stage is one named slice of a request's time.
type Stage struct {
	Name       string  `json:"name"`
	DurationMS float64 `json:"durationMs"`
}

// Stages accumulates named stage durations for one request. Repeat
// observations of the same name sum (a chunked ingest crosses the WAL
// several times; the stage is the total time the request spent there).
// Safe for concurrent use: shard workers on different goroutines
// report into the same request's collector.
type Stages struct {
	mu     sync.Mutex
	names  []string
	totals []time.Duration
}

// Observe adds d under name. Nil-safe.
func (s *Stages) Observe(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range s.names {
		if n == name {
			s.totals[i] += d
			return
		}
	}
	s.names = append(s.names, name)
	s.totals = append(s.totals, d)
}

// Snapshot renders the stages in first-observed order. Nil-safe.
func (s *Stages) Snapshot() []Stage {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Stage, len(s.names))
	for i := range s.names {
		out[i] = Stage{Name: s.names[i], DurationMS: float64(s.totals[i]) / float64(time.Millisecond)}
	}
	return out
}

// SpanRecord is one service's finished view of one request.
type SpanRecord struct {
	TraceID    string    `json:"traceId"`
	RequestID  string    `json:"requestId,omitempty"`
	Service    string    `json:"service,omitempty"`
	Method     string    `json:"method"`
	Route      string    `json:"route"`
	Status     int       `json:"status"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"durationMs"`
	Stages     []Stage   `json:"stages,omitempty"`
}

// defaultTracerCap bounds the span ring when the caller passes 0.
const defaultTracerCap = 512

// Tracer keeps the most recent span records in a fixed ring.
type Tracer struct {
	mu   sync.Mutex
	ring []SpanRecord
	next int
	n    int
}

// NewTracer creates a tracer retaining up to capacity spans
// (defaultTracerCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultTracerCap
	}
	return &Tracer{ring: make([]SpanRecord, capacity)}
}

// Record stores one finished span, evicting the oldest when full.
func (t *Tracer) Record(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.n < len(t.ring) {
		t.n++
	}
}

// Get returns the retained spans of one trace, oldest first.
func (t *Tracer) Get(traceID string) []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []SpanRecord
	for i := 0; i < t.n; i++ {
		idx := (t.next - t.n + i + len(t.ring)) % len(t.ring)
		if t.ring[idx].TraceID == traceID {
			out = append(out, t.ring[idx])
		}
	}
	return out
}
