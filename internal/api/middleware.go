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

// ctxKey is the context key of a request's routeInfo.
type ctxKey struct{}

// routeInfo is one request's observer state, carried in its context:
// the request ID, the label the router counted it under (set by
// labelled, or by notFound), the body size gzip saw before
// compressing, and the stage timings of its span.
type routeInfo struct {
	id         string
	route      *routeLabel
	plainBytes int64
	stages     obs.Stages
}

func routeInfoFrom(ctx context.Context) *routeInfo {
	ri, _ := ctx.Value(ctxKey{}).(*routeInfo)
	return ri
}

// labelled records route as the request's label, then runs handler;
// the router wraps every route in it once.
func labelled(route *routeLabel, handler http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		routeInfoFrom(r.Context()).route = route
		handler.ServeHTTP(w, r)
	})
}

// RequestIDFrom returns the request ID of the request ctx belongs to,
// or "" outside a request.
func RequestIDFrom(ctx context.Context) string {
	if ri := routeInfoFrom(ctx); ri != nil {
		return ri.id
	}
	return ""
}

// NewRequestID mints a 16-hex-char random request ID.
func NewRequestID() string {
	var b [8]byte
	var out [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	hex.Encode(out[:], b[:])
	return string(out[:])
}

// requestIDHeader carries a request ID across service hops. It is
// spelled in canonical form so that Header.Get and Header.Set need not
// build that form per call.
const requestIDHeader = "X-Request-Id"

// slowRequest is the span duration from which a request is also logged
// with its stage timings, on a server with a logger.
const slowRequest = time.Second

// observe wraps next (gzip, recover and the router) in the request
// observer. It adopts the inbound X-Request-ID and Traceparent trace ID
// (so IDs propagate across service hops), mints whichever is missing,
// echoes both and stores them in the context once. Around one
// statusWriter and one timing it then counts the request under its
// route and records its span; on a server with a logger it also logs
// a slow request's span and writes the access-log line. The /healthz,
// /metrics and /debug/pprof routes get no span: scrapes would churn the
// ring out of its useful spans.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ri := &routeInfo{id: r.Header.Get(requestIDHeader)}
		if ri.id == "" {
			ri.id = NewRequestID()
		}
		traceID, _, ok := obs.ParseTraceparent(r.Header.Get(obs.TraceHeader))
		if !ok {
			traceID = obs.NewTraceID()
		}
		h := w.Header()
		h.Set(requestIDHeader, ri.id)
		h.Set(obs.TraceHeader, obs.FormatTraceparent(traceID, obs.NewSpanID()))
		ctx := obs.WithTraceID(context.WithValue(r.Context(), ctxKey{}, ri), traceID)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r.WithContext(obs.WithStages(ctx, &ri.stages)))
		d := time.Since(start)

		route := ri.route
		if route == nil {
			route = s.unmatched
		}
		m := s.metrics
		route.metrics(m, r.Method).observe(sw.status, start.Add(d), d)
		wire, plain := m.wireIdentity, sw.bytes
		if h.Get("Content-Encoding") == "gzip" {
			wire = m.wireGzip
		}
		if ri.plainBytes > 0 {
			plain = ri.plainBytes
		}
		wire.Add(uint64(sw.bytes))
		m.plainBytes.Add(uint64(plain))
		switch route.name {
		case "/healthz", "/metrics", "/debug/pprof":
		default:
			status := sw.status
			if status == 0 {
				status = http.StatusOK
			}
			rec := obs.SpanRecord{
				TraceID:    traceID,
				RequestID:  ri.id,
				Service:    s.opts.Service,
				Method:     r.Method,
				Route:      route.name,
				Status:     status,
				Start:      start.UTC(),
				DurationMS: float64(d) / float64(time.Millisecond),
				Stages:     ri.stages.Snapshot(),
			}
			s.tracer.Record(rec)
			if s.opts.Logger != nil && d >= slowRequest {
				s.opts.Logger.Printf("slow request trace=%s %s %s status=%d %.1fms stages=%v",
					traceID, r.Method, route.name, status, rec.DurationMS, rec.Stages)
			}
		}
		if s.opts.Logger != nil {
			label := r.URL.Path
			if ri.route != nil {
				label = ri.route.name
			}
			s.opts.Logger.Printf("%s: %s %s -> %s %d %dB %s rid=%s trace=%s",
				s.opts.Service, r.Method, r.URL.RequestURI(), label,
				sw.status, sw.bytes, d.Round(time.Microsecond), ri.id, traceID)
		}
	})
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
// (Server-Sent Events) keep working through the observer.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Recover converts handler panics into a 500 envelope instead of a
// dropped connection. http.ErrAbortHandler is re-raised: a handler
// panics with it precisely to drop the connection.
func Recover(next http.Handler) http.Handler {
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
func Gzip(next http.Handler) http.Handler {
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
