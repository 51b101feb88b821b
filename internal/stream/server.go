package stream

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/api"
	"repro/internal/middleware"
	"repro/internal/obs"
)

// Options configure a Service.
type Options struct {
	// Hub configures the fan-out hub.
	Hub HubOptions
	// PublishLimiter, when set, rate-limits the /publish ingress per
	// client IP (429 + Retry-After on rejection).
	PublishLimiter *api.RateLimiter
}

// keepAlive is the SSE comment heartbeat period, so half-open
// connections are detected.
const keepAlive = 15 * time.Second

// Service bundles a Hub with the HTTP endpoints that expose it: GET
// /v1/stream (SSE out) and POST /v1/publish (event ingress). The owning
// service publishes on Hub() and mounts the endpoints on its api.Server.
type Service struct {
	hub     *Hub
	limiter *api.RateLimiter
}

// NewService opens the hub opts.Hub describes; it can only fail opening
// a durable replay ring.
func NewService(opts Options) (*Service, error) {
	hub, err := OpenHub(opts.Hub)
	if err != nil {
		return nil, err
	}
	return &Service{hub: hub, limiter: opts.PublishLimiter}, nil
}

// Hub exposes the fan-out hub: Publish, Subscribe, stats, KickAll.
func (s *Service) Hub() *Hub { return s.hub }

// RegisterMetrics registers the hub's counters and live state on reg.
// Everything is a scrape-time callback over Hub.Stats()/QueueDepth(),
// so the fan-out path pays nothing for being observed.
func (s *Service) RegisterMetrics(reg *obs.Registry) {
	h := s.hub
	reg.CounterFunc("repro_stream_published_total",
		"Events sequenced into the hub.", nil,
		func() float64 { return float64(h.Stats().Published) })
	reg.CounterFunc("repro_stream_publish_errors_total",
		"Events the hub refused to sequence (bad topic or timestamp, hub closed).", nil,
		func() float64 { return float64(h.Stats().PublishErrors) })
	reg.CounterFunc("repro_stream_delivered_total",
		"Event deliveries into subscriber queues.", nil,
		func() float64 { return float64(h.Stats().Delivered) })
	reg.CounterFunc("repro_stream_evicted_total",
		"Subscribers evicted for falling behind.", nil,
		func() float64 { return float64(h.Stats().Evicted) })
	reg.CounterFunc("repro_stream_replayed_total",
		"Entries replayed to resuming subscribers.", nil,
		func() float64 { return float64(h.Stats().Replayed) })
	reg.CounterFunc("repro_stream_persist_errors_total",
		"Ring-log write failures of a durable hub.", nil,
		func() float64 { return float64(h.Stats().PersistErrors) })
	reg.GaugeFunc("repro_stream_subscribers",
		"Live hub subscribers.", nil,
		func() float64 { return float64(h.Stats().Subscribers) })
	reg.GaugeFunc("repro_stream_retained_events",
		"Entries held in the replay ring.", nil,
		func() float64 { return float64(h.Stats().Retained) })
	reg.GaugeFunc("repro_stream_subscriber_queue_depth",
		"Entries buffered across all subscriber queues.", nil,
		func() float64 { return float64(h.QueueDepth()) })
}

// Close shuts the hub down; every SSE subscriber's stream ends. The
// error is the hub ring log's close error (nil for a memory-only hub).
func (s *Service) Close() error { return s.hub.Close() }

// Mount registers the streaming endpoints on an api.Server:
//
//	GET  /v1/stream?topic=<pattern>   Server-Sent Events (Last-Event-ID resume)
//	POST /v1/publish                  body: middleware.Event JSON
func (s *Service) Mount(srv *api.Server) {
	srv.HandleFunc(http.MethodGet, "/stream", s.handleStream)
	var publish http.Handler = http.HandlerFunc(s.handlePublish)
	if s.limiter != nil {
		publish = api.RateLimit(s.limiter)(publish)
	}
	srv.Handle(http.MethodPost, "/publish", publish)
}

// handlePublish sequences a remote event into the hub and answers with
// the hub's verdict: a closed hub (the service is shutting down) is a
// retryable 503, an event the hub cannot carry a 400.
func (s *Service) handlePublish(w http.ResponseWriter, r *http.Request) {
	api.Body(func(_ context.Context, ev middleware.Event) (map[string]any, error) {
		err := s.hub.Publish(ev)
		switch {
		case errors.Is(err, ErrHubClosed):
			w.Header().Set("Retry-After", "1")
			return nil, api.WithStatus(http.StatusServiceUnavailable, err)
		case err != nil:
			return nil, api.BadRequest(fmt.Errorf("event on topic %q: %w", ev.Topic, err))
		}
		return map[string]any{"status": "published", "topic": ev.Topic}, nil
	}).ServeHTTP(w, r)
}

// lastEventID reads the resume position: the standard Last-Event-ID
// header (what EventSource and our client send on reconnect) or a
// lastId query parameter (curl-friendly).
func lastEventID(r *http.Request) (uint64, error) {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("lastId")
	}
	if raw == "" {
		return 0, nil
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad Last-Event-ID %q: %v", raw, err)
	}
	return id, nil
}

// appendFrame appends one SSE frame: the id line and the event's JSON
// as the data line — the wire bytes the entry was published with, or,
// for an entry that had no reader then, encoded now.
//
// districtlint:hotpath
func appendFrame(b []byte, e *Entry) []byte {
	b = append(b, "id: "...)
	b = strconv.AppendUint(b, e.ID, 10)
	b = append(b, "\ndata: "...)
	if e.wire != nil {
		b = append(b, e.wire...)
	} else {
		b = appendEvent(b, &e.Event)
	}
	return append(b, "\n\n"...)
}

// maxWaveBytes bounds the coalescing buffer: a wave larger than this is
// written out in chunks, so a deep replay cannot balloon memory.
const maxWaveBytes = 64 << 10

// handleStream serves one SSE subscription until the client goes away,
// the hub evicts it, or the service closes.
func (s *Service) handleStream(w http.ResponseWriter, r *http.Request) {
	pattern := r.URL.Query().Get("topic")
	if pattern == "" {
		pattern = middleware.WildcardRest
	}
	afterID, err := lastEventID(r)
	if err != nil {
		api.WriteError(w, r, api.BadRequest(err))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		api.WriteError(w, r, api.Internal(fmt.Errorf("response writer cannot stream")))
		return
	}
	sub, replay, err := s.hub.Subscribe(pattern, afterID)
	if err != nil {
		api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad pattern %q: %v", pattern, err)))
		return
	}
	defer sub.Close()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // keep reverse proxies from buffering
	w.WriteHeader(http.StatusOK)

	// Frames are coalesced per wave: every frame ready to go out (the
	// replay, or one delivered batch plus every batch queued behind it)
	// is rendered into one buffer and hits the wire as a single
	// Write+Flush. Syscall and flush cost is paid per wave, not per
	// event — the dominant share of the SSE fan-out cost at high rates.
	var buf []byte
	flushBuf := func() bool {
		if len(buf) == 0 {
			return true
		}
		if _, err := w.Write(buf); err != nil {
			return false
		}
		buf = buf[:0]
		flusher.Flush()
		return true
	}
	// render appends the frames of es; a wave that passes maxWaveBytes
	// is written out on the way.
	render := func(es []Entry) bool {
		for i := range es {
			buf = appendFrame(buf, &es[i])
			if len(buf) >= maxWaveBytes && !flushBuf() {
				return false
			}
		}
		return true
	}

	buf = append(buf, "retry: 1000\n\n"...)
	if sub.Gap {
		// The client resumed past the replay ring; it gets everything
		// still retained plus a marker that the stream has a hole.
		buf = append(buf, ": gap: resume point expired from replay buffer\n\n"...)
	}
	if !render(replay) || !flushBuf() {
		return
	}

	ticker := time.NewTicker(keepAlive)
	defer ticker.Stop()
	for {
		select {
		case batch, ok := <-sub.C:
			if !ok {
				return // evicted or hub closed: client reconnects and resumes
			}
			if !render(batch) {
				return
			}
			// Coalesce whatever queued behind it into the same wave.
			for drained := false; !drained && len(buf) < maxWaveBytes; {
				select {
				case batch, ok := <-sub.C:
					if !ok {
						flushBuf()
						return
					}
					if !render(batch) {
						return
					}
				default:
					drained = true
				}
			}
			if !flushBuf() {
				return
			}
		case <-ticker.C:
			buf = append(buf, ": keep-alive\n\n"...)
			if !flushBuf() {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
