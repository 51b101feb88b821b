package stream

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/middleware"
)

// IDHeader is stamped on every event a Subscription delivers: the
// event's stream ID at the server it came from. A consumer that wants
// exactly-once across its own death records EventID(ev) of the last
// event it fully processed and resumes a new Subscribe with it as
// AfterID — Subscription.LastID() alone counts events buffered into the
// channel, which the consumer may never have drained.
const IDHeader = "x-stream-id"

// EventID extracts the delivering stream's event ID stamped by the
// subscription (0 when the event didn't come through one).
func EventID(ev middleware.Event) uint64 {
	id, _ := strconv.ParseUint(ev.Headers[IDHeader], 10, 64)
	return id
}

// SubscribeOptions tune a client subscription.
type SubscribeOptions struct {
	// HTTP overrides the streaming HTTP client (must not set a
	// whole-request Timeout).
	HTTP *http.Client
	// Buffer is the delivery channel capacity (default 64). When the
	// consumer stops draining, backpressure propagates to the server,
	// which eventually evicts the subscription; the reconnect then
	// resumes from the last delivered ID.
	Buffer int
	// AfterID starts the subscription after a known event ID (resume of
	// an earlier subscription); zero starts live.
	AfterID uint64
	// BaseDelay is the first reconnect backoff step (default 200ms);
	// MaxDelay caps it (default 5s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (o SubscribeOptions) withDefaults() SubscribeOptions {
	if o.HTTP == nil {
		o.HTTP = api.StreamHTTPClient()
	}
	if o.Buffer <= 0 {
		o.Buffer = 64
	}
	if o.BaseDelay <= 0 {
		o.BaseDelay = 200 * time.Millisecond
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 5 * time.Second
	}
	return o
}

// Subscription is a live client subscription to a remote stream. It
// survives connection loss: every reconnect resumes with Last-Event-ID,
// and IDs at or below the last delivered one are dropped, so the Events
// channel sees every remote event at most once and — as long as the
// server's replay ring reaches back far enough — at least once.
type Subscription struct {
	// Events delivers the remote events in order. It closes when the
	// subscription ends: context cancellation, Close, or a terminal
	// server error (check Err).
	Events <-chan middleware.Event

	events     chan middleware.Event
	cancel     context.CancelFunc
	done       chan struct{}
	lastID     atomic.Uint64
	reconnects atomic.Uint64
	badFrames  atomic.Uint64
	err        atomic.Value // error
}

// Subscribe opens a subscription to the stream endpoint of the service
// at baseURL for a topic pattern. It returns immediately; the network
// work happens behind the Events channel.
func Subscribe(ctx context.Context, baseURL, pattern string, opts SubscribeOptions) (*Subscription, error) {
	if err := middleware.ValidatePattern(pattern); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(ctx)
	s := &Subscription{
		events: make(chan middleware.Event, opts.Buffer),
		cancel: cancel,
		done:   make(chan struct{}),
	}
	s.Events = s.events
	s.lastID.Store(opts.AfterID)
	streamURL := api.URL(baseURL, "/stream?topic="+url.QueryEscape(pattern))
	go s.run(ctx, streamURL, opts)
	return s, nil
}

// LastID returns the ID of the last event delivered (or the AfterID the
// subscription started from). Pass it as AfterID to a later Subscribe to
// resume where this subscription stopped.
func (s *Subscription) LastID() uint64 { return s.lastID.Load() }

// Reconnects returns how many times the subscription re-established its
// connection after the first.
func (s *Subscription) Reconnects() uint64 { return s.reconnects.Load() }

// BadFrames returns how many event frames were skipped because their
// data was not a decodable event; each is a hole in what Events
// delivered.
func (s *Subscription) BadFrames() uint64 { return s.badFrames.Load() }

// Err returns the terminal error, if any, once Events is closed.
// Cancellation (of ctx or via Close) is a clean shutdown, not an error.
func (s *Subscription) Err() error {
	err, _ := s.err.Load().(error)
	return err
}

// Close ends the subscription and waits for Events to close.
func (s *Subscription) Close() {
	s.cancel()
	<-s.done
}

// terminalStatus reports server responses that retrying cannot fix
// (bad pattern, wrong endpoint, wrong method...).
func terminalStatus(status int) bool {
	return status >= 400 && status < 500 && status != http.StatusTooManyRequests
}

// run is the reconnect loop.
func (s *Subscription) run(ctx context.Context, streamURL string, opts SubscribeOptions) {
	defer close(s.done)
	defer close(s.events)
	attempt := 0
	for {
		gotEvents, err := s.consume(ctx, streamURL, opts)
		if ctx.Err() != nil {
			return // clean shutdown
		}
		var se *api.StatusError
		if errors.As(err, &se) && terminalStatus(se.Status) {
			s.err.Store(err)
			return
		}
		if gotEvents {
			attempt = 0 // the link worked; start backoff over
		}
		delay := opts.BaseDelay << attempt
		if delay > opts.MaxDelay || delay <= 0 {
			delay = opts.MaxDelay
		} else {
			attempt++
		}
		// Jitter to 50-150% so a restarted server isn't stampeded.
		delay = time.Duration(float64(delay) * (0.5 + rand.Float64()))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return
		}
		s.reconnects.Add(1)
	}
}

// consume opens one connection and pumps events until it breaks.
func (s *Subscription) consume(ctx context.Context, streamURL string, opts SubscribeOptions) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, streamURL, nil)
	if err != nil {
		return false, err
	}
	req.Header.Set("Accept", "text/event-stream")
	req.Header.Set("Accept-Encoding", "identity")
	req.Header.Set("Cache-Control", "no-cache")
	if id := s.lastID.Load(); id > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatUint(id, 10))
	}
	if rid := api.RequestIDFrom(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	rsp, err := opts.HTTP.Do(req)
	if err != nil {
		return false, err
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(rsp.Body, 512))
		return false, &api.StatusError{
			Method: http.MethodGet, URL: streamURL,
			Status: rsp.StatusCode, Body: strings.TrimSpace(string(body)),
		}
	}
	return s.pump(ctx, rsp.Body)
}

// pump parses SSE frames off one response body and delivers them.
func (s *Subscription) pump(ctx context.Context, body io.Reader) (bool, error) {
	br := bufio.NewReader(body)
	delivered := false
	var id uint64
	var data []byte
	flush := func() error {
		defer func() { id = 0; data = nil }()
		if len(data) == 0 {
			return nil // keep-alive comment or id-only frame
		}
		if id != 0 && id <= s.lastID.Load() {
			return nil // duplicate across a reconnect boundary
		}
		var ev middleware.Event
		if err := json.Unmarshal(data, &ev); err != nil {
			// A frame this client cannot decode is skipped, not retried:
			// reconnecting with the same Last-Event-ID would only have
			// the server replay the same bytes, forever. Moving the
			// cursor past it keeps the subscription making progress.
			s.badFrames.Add(1)
			if id != 0 {
				s.lastID.Store(id)
			}
			return nil
		}
		if id != 0 {
			if ev.Headers == nil {
				ev.Headers = make(map[string]string, 1)
			}
			ev.Headers[IDHeader] = strconv.FormatUint(id, 10)
		}
		select {
		case s.events <- ev:
		case <-ctx.Done():
			return ctx.Err()
		}
		if id != 0 {
			s.lastID.Store(id)
		}
		delivered = true
		return nil
	}
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return delivered, err // EOF or broken link: reconnect
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if err := flush(); err != nil {
				return delivered, err
			}
		case strings.HasPrefix(line, ":"):
			// comment (keep-alive / gap marker)
		case strings.HasPrefix(line, "id:"):
			if v, err := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64); err == nil {
				id = v
			}
		case strings.HasPrefix(line, "data:"):
			chunk := strings.TrimPrefix(line[5:], " ")
			if len(data) > 0 {
				data = append(data, '\n')
			}
			data = append(data, chunk...)
		default:
			// event:/retry:/unknown fields are irrelevant here
		}
	}
}
