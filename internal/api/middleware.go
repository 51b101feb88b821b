package api

import (
	"compress/gzip"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Middleware wraps an http.Handler with cross-cutting behaviour.
type Middleware func(http.Handler) http.Handler

// Chain applies middlewares to h with the first middleware outermost:
// Chain(h, a, b) serves a(b(h)).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// ctxKey namespaces the layer's context values.
type ctxKey int

const (
	ctxKeyRequestID ctxKey = iota
	ctxKeyRouteInfo
)

// RouteInfo carries the matched route label from the router back out
// to the observing middlewares (which run outside the router).
type RouteInfo struct {
	Pattern string
	// plainBytes is the pre-compression body size, set by Gzip when it
	// wrapped the response.
	plainBytes int64
}

func routeInfoFrom(ctx context.Context) *RouteInfo {
	ri, _ := ctx.Value(ctxKeyRouteInfo).(*RouteInfo)
	return ri
}

// labelled records the route label the observing middlewares report,
// then runs handler; the router wraps every route in it once.
func labelled(label string, handler http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ri := routeInfoFrom(r.Context()); ri != nil {
			ri.Pattern = label
		}
		handler.ServeHTTP(w, r)
	})
}

// RequestIDFrom returns the request ID middleware-injected into ctx, or
// "" outside a request.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// NewRequestID mints a 16-hex-char random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// RequestID injects a request ID (honouring an inbound X-Request-ID so
// IDs propagate across service hops) into the context and echoes it on
// the response.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Request-ID")
			if id == "" {
				id = NewRequestID()
			}
			ctx := context.WithValue(r.Context(), ctxKeyRequestID, id)
			ctx = context.WithValue(ctx, ctxKeyRouteInfo, &RouteInfo{})
			w.Header().Set("X-Request-ID", id)
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// Trace is the cross-service tracing middleware: it adopts an inbound
// Traceparent header's trace ID (minting one otherwise, so every
// request is traceable), exposes the ID and a stage-timing collector
// through the context (obs.TraceIDFrom / obs.StagesFrom), echoes a
// traceparent on the response so callers learn the ID, and records a
// span into the tracer's ring when the handler returns. The built-in
// /healthz and /metrics routes are not recorded — scrapes would churn
// the ring out of its useful spans.
func Trace(service string, t *obs.Tracer) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			traceID, _, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader))
			if !ok {
				traceID = obs.NewTraceID()
			}
			stages := &obs.Stages{}
			ctx := obs.WithTraceID(r.Context(), traceID)
			ctx = obs.WithStages(ctx, stages)
			w.Header().Set(obs.TraceHeader, obs.FormatTraceparent(traceID, obs.NewSpanID()))
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r.WithContext(ctx))
			pattern := "unmatched"
			if ri := routeInfoFrom(ctx); ri != nil && ri.Pattern != "" {
				pattern = ri.Pattern
			}
			switch pattern {
			case "/healthz", "/metrics", "/debug/pprof":
				return
			}
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			t.Record(obs.SpanRecord{
				TraceID:    traceID,
				RequestID:  RequestIDFrom(ctx),
				Service:    service,
				Method:     r.Method,
				Route:      pattern,
				Status:     status,
				Start:      start.UTC(),
				DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
				Stages:     stages.Snapshot(),
			})
		})
	}
}

// statusWriter records the response status and size.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status != 0 {
		return // first write wins; avoids superfluous-WriteHeader noise
	}
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so streaming endpoints
// (Server-Sent Events) keep working through the observing middlewares.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLog logs one line per request: service, method, path, matched
// route, status, bytes, duration, and request ID.
func AccessLog(service string, logger Logger) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			pattern := r.URL.Path
			if ri := routeInfoFrom(r.Context()); ri != nil && ri.Pattern != "" {
				pattern = ri.Pattern
			}
			logger.Printf("%s: %s %s -> %s %d %dB %s rid=%s",
				service, r.Method, r.URL.RequestURI(), pattern,
				sw.status, sw.bytes, time.Since(start).Round(time.Microsecond),
				RequestIDFrom(r.Context()))
		})
	}
}

// Observe records per-route count, error count, and latency.
func Observe(m *Metrics) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := &statusWriter{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sw, r)
			pattern := "unmatched"
			ri := routeInfoFrom(r.Context())
			if ri != nil && ri.Pattern != "" {
				pattern = ri.Pattern
			}
			m.observe(r.Method, pattern, sw.status, time.Since(start))
			plain := sw.bytes
			if ri != nil && ri.plainBytes > 0 {
				plain = ri.plainBytes
			}
			m.observeBytes(sw.Header().Get("Content-Encoding") == "gzip", sw.bytes, plain)
		})
	}
}

// Recover converts handler panics into a 500 envelope instead of a
// dropped connection. http.ErrAbortHandler is re-raised: a handler
// panics with it precisely to drop the connection.
func Recover() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				if v := recover(); v != nil {
					if v == http.ErrAbortHandler {
						panic(v)
					}
					WriteErrorStatus(w, r, http.StatusInternalServerError,
						fmt.Errorf("internal error: %v", v))
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// gzipMinBytes is the body size below which a response goes out plain:
// acks, latest, healthz and error envelopes save nothing worth the gzip
// framing and a pooled-writer reset.
const gzipMinBytes = 1024

// gzipPool recycles gzip writers across requests. BestSpeed: the
// payloads are JSON/NDJSON/CSV rows, where level 1 keeps most of the
// ratio at a fraction of level 6's CPU and resets without clearing
// 640 KiB of hash tables.
var gzipPool = sync.Pool{New: func() any {
	gz, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed) // a valid level cannot fail
	return gz
}}

// gzipWriter defers the response header until it knows whether a gzip
// stream will exist: body bytes are held back until gzipMinBytes have
// been written or the handler flushes, and only then are the status and
// the Content-Encoding/Vary/Content-Length headers committed. A body
// that ends under the threshold goes out plain with an exact
// Content-Length.
type gzipWriter struct {
	http.ResponseWriter
	status  int          // deferred WriteHeader status; 0 = none yet
	decided bool         // header committed
	gz      *gzip.Writer // non-nil once a gzip stream has started
	plain   int64        // body bytes written by the handler
	n       int          // bytes held in buf
	buf     [gzipMinBytes]byte
}

func (w *gzipWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status // first write wins, as in net/http
	}
}

func (w *gzipWriter) Write(p []byte) (int, error) {
	w.plain += int64(len(p))
	if !w.decided {
		if w.n+len(p) < gzipMinBytes {
			w.n += copy(w.buf[w.n:], p)
			return len(p), nil
		}
		if err := w.start(); err != nil {
			return 0, err
		}
	}
	return w.body().Write(p)
}

// body is where committed body bytes go: the gzip stream if one started.
func (w *gzipWriter) body() io.Writer {
	if w.gz != nil {
		return w.gz
	}
	return w.ResponseWriter
}

// bodyAllowed mirrors net/http: 1xx, 204 and 304 carry no body (0 is
// the implicit 200).
func bodyAllowed(status int) bool {
	return status == 0 || (status >= 200 && status != http.StatusNoContent && status != http.StatusNotModified)
}

// commit sends the deferred header, gzip-coded or not.
func (w *gzipWriter) commit(coded bool) {
	w.decided = true
	h := w.Header()
	h.Add("Vary", "Accept-Encoding")
	if coded {
		h.Set("Content-Encoding", "gzip")
		h.Del("Content-Length") // length of the plain body no longer applies
		w.gz = gzipPool.Get().(*gzip.Writer)
		w.gz.Reset(w.ResponseWriter)
	}
	if w.status != 0 {
		w.ResponseWriter.WriteHeader(w.status)
	}
}

// start commits a gzip stream and drains the held-back bytes into it.
// A status that forbids a body stays plain.
func (w *gzipWriter) start() error {
	w.commit(bodyAllowed(w.status))
	if w.n == 0 {
		return nil
	}
	_, err := w.body().Write(w.buf[:w.n])
	w.n = 0
	return err
}

// Flush starts the gzip stream if it has not started yet — a handler
// that flushes is streaming, whatever it has written so far — then ends
// the current gzip block and flushes the underlying writer, so rows
// make progress on the wire.
func (w *gzipWriter) Flush() {
	if !w.decided {
		_ = w.start() // a dead client surfaces on the next Write
	}
	if w.gz != nil {
		_ = w.gz.Flush()
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// close ends the response: the gzip trailer when a stream started,
// otherwise the held-back body, plain. The pooled writer is reset on
// its next use, not here.
func (w *gzipWriter) close() {
	if w.gz != nil {
		_ = w.gz.Close()
		gzipPool.Put(w.gz)
		w.gz = nil
		return
	}
	if w.decided {
		return
	}
	if h := w.Header(); bodyAllowed(w.status) && h.Get("Content-Length") == "" {
		h.Set("Content-Length", strconv.Itoa(w.n))
	}
	w.commit(false)
	if w.n > 0 {
		_, _ = w.ResponseWriter.Write(w.buf[:w.n])
	}
}

// acceptsGzip reports whether the client accepts gzip coding (with the
// same q-value care as media-type negotiation: "gzip;q=0" is a refusal,
// wherever the q parameter appears in the member). The exact values Go
// clients send are answered without parsing.
func acceptsGzip(r *http.Request) bool {
	ae := r.Header.Get("Accept-Encoding")
	switch ae {
	case "gzip":
		return true
	case "", "identity":
		return false
	}
	for _, part := range strings.Split(ae, ",") {
		fields := strings.Split(part, ";")
		coding := strings.ToLower(strings.TrimSpace(fields[0]))
		if coding != "gzip" && coding != "*" {
			continue
		}
		refused := false
		for _, p := range fields[1:] {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || !strings.EqualFold(strings.TrimSpace(k), "q") {
				continue
			}
			q := strings.TrimSpace(v)
			refused = strings.HasPrefix(q, "0") && !strings.ContainsAny(q, "123456789")
		}
		if !refused {
			return true
		}
	}
	return false
}

// Gzip compresses responses of at least gzipMinBytes (or flushed
// streams) for clients that accept it. Event-stream requests are
// exempt: compressing an unbounded SSE response trades per-event
// latency for ratio, the opposite of what live subscribers want.
func Gzip() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !acceptsGzip(r) || strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
				next.ServeHTTP(w, r)
				return
			}
			gw := &gzipWriter{ResponseWriter: w}
			defer gw.close()
			next.ServeHTTP(gw, r)
			if ri := routeInfoFrom(r.Context()); ri != nil {
				ri.plainBytes = gw.plain
			}
		})
	}
}
