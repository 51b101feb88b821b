package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataformat"
	"repro/internal/obs"
)

// sharedHTTPClient pools connections across every Transport that does
// not bring its own http.Client, so concurrent proxy fetches reuse
// keep-alive connections instead of re-dialling per request.
var sharedHTTPClient = &http.Client{
	Timeout: 15 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 32,
		IdleConnTimeout:     90 * time.Second,
	},
}

// SharedHTTPClient returns the process-wide pooled HTTP client.
func SharedHTTPClient() *http.Client { return sharedHTTPClient }

// streamHTTPClient carries bodies read as they arrive: NDJSON/CSV
// ranges, uploads, SSE streams and the coordinator's relays. It has no
// whole-request timeout, which would cut a long body mid-read; a peer
// that never answers is bounded by the response-header timeout, the
// body by the caller's context.
var streamHTTPClient = &http.Client{
	Transport: &http.Transport{
		MaxIdleConns:          64,
		MaxIdleConnsPerHost:   16,
		IdleConnTimeout:       90 * time.Second,
		ResponseHeaderTimeout: 10 * time.Second,
	},
}

// StreamHTTPClient returns the process-wide pooled HTTP client for
// streamed bodies.
func StreamHTTPClient() *http.Client { return streamHTTPClient }

// StatusError reports a non-2xx response, preserving the status for
// callers that branch on it and a trimmed body excerpt for logs.
type StatusError struct {
	Method string
	URL    string
	Status int
	Body   string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	msg := fmt.Sprintf("api: %s %s returned %d", e.Method, e.URL, e.Status)
	if e.Body != "" {
		msg += ": " + e.Body
	}
	return msg
}

// Transport is the typed, context-aware client transport every consumer
// shares: the end-user client, proxy registration, and heartbeats.
// Transient failures (network errors and 429/502/503/504) retry with
// capped exponential backoff plus jitter; context cancellation aborts
// both in-flight requests and backoff sleeps.
type Transport struct {
	// Client overrides the pooled default HTTP client.
	Client *http.Client
	// MaxAttempts bounds tries per request (default 3; 1 disables retry).
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration
}

func (t *Transport) httpClient() *http.Client {
	if t != nil && t.Client != nil {
		return t.Client
	}
	return sharedHTTPClient
}

func (t *Transport) attempts() int {
	if t != nil && t.MaxAttempts > 0 {
		return t.MaxAttempts
	}
	return 3
}

// backoff returns the sleep before attempt n (0-based), jittered to
// 50–150% of min(BaseDelay·2ⁿ, MaxDelay) so synchronized clients spread
// out.
func (t *Transport) backoff(attempt int) time.Duration {
	base, maxd := 100*time.Millisecond, 2*time.Second
	if t != nil && t.BaseDelay > 0 {
		base = t.BaseDelay
	}
	if t != nil && t.MaxDelay > 0 {
		maxd = t.MaxDelay
	}
	d := base << attempt
	if d > maxd || d <= 0 {
		d = maxd
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// retryableStatus reports statuses worth another attempt.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// sleep waits d or until ctx is done.
func sleep(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter parses a 429/503 Retry-After header (delta-seconds form;
// the HTTP-date form is not used by this infrastructure). Zero means
// absent or unparsable.
func retryAfter(rsp *http.Response) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(rsp.Header.Get("Retry-After")))
	if err != nil || secs <= 0 {
		return 0
	}
	const maxRetryAfter = 30 * time.Second // cap hostile/buggy server hints
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// MaxResponseBytes bounds a response body read into memory (Do and its
// typed wrappers, ReadBody). Streamed responses (Open) have no bound.
const MaxResponseBytes = maxBodyBytes

var errBodyTooLarge = fmt.Errorf("response body exceeds the %d-byte limit", MaxResponseBytes)

// ReadBody reads a response body into memory. A body over
// MaxResponseBytes is an error, never a silently shortened slice.
func ReadBody(body io.Reader) ([]byte, error) {
	raw, err := io.ReadAll(io.LimitReader(body, MaxResponseBytes+1))
	if err == nil && len(raw) > MaxResponseBytes {
		return nil, errBodyTooLarge
	}
	return raw, err
}

// Do performs one logical request with retries. body may be nil; it is
// replayed from the byte slice on every attempt. The response body is
// fully read, so connections always return to the pool; non-2xx
// responses come back as *StatusError, and a body over MaxResponseBytes
// is an error.
//
// Every request carries an X-Request-ID: an inbound one from ctx (when
// the caller is itself serving a request through this layer) or a fresh
// one minted per logical request, so cross-service traces line up in
// access logs. All attempts of one request share the same ID. A trace
// ID travels the same way: a caller-set Traceparent header wins,
// otherwise a ctx trace ID (set by the Trace middleware) is forwarded
// with a fresh span ID — the downstream service's span records then
// carry the same trace ID as the caller's.
func (t *Transport) Do(ctx context.Context, method, url string, header http.Header, body []byte) ([]byte, *http.Response, error) {
	return t.do(ctx, method, url, header, body, nil, true)
}

// Send is Do for a body read as it is sent, such as another response's
// body relayed unbuffered: one attempt, since what was read cannot be
// sent again.
func (t *Transport) Send(ctx context.Context, method, url string, header http.Header, body io.Reader) ([]byte, *http.Response, error) {
	return t.do(ctx, method, url, header, nil, body, true)
}

// Open is Do for responses the caller relays or decodes as they arrive:
// a 2xx response comes back with its body unread and unbounded, and the
// caller must close it. Retries cover everything up to the response
// header; failures come back exactly as from Do.
func (t *Transport) Open(ctx context.Context, method, url string, header http.Header, body []byte) (*http.Response, error) {
	_, rsp, err := t.do(ctx, method, url, header, body, nil, false)
	if err != nil {
		return nil, err
	}
	return rsp, nil
}

// do is the attempt loop behind Do, Open and Send. A stream body is
// sent in one attempt; body is replayed on each. With buffer unset, a
// 2xx response is returned with its body still open.
func (t *Transport) do(ctx context.Context, method, url string, header http.Header, body []byte, stream io.Reader, buffer bool) ([]byte, *http.Response, error) {
	requestID := header.Get(requestIDHeader)
	if requestID == "" {
		if requestID = RequestIDFrom(ctx); requestID == "" {
			requestID = NewRequestID()
		}
	}
	traceparent := header.Get(obs.TraceHeader)
	if traceparent == "" {
		if id := obs.TraceIDFrom(ctx); id != "" {
			traceparent = obs.FormatTraceparent(id, obs.NewSpanID())
		}
	}
	attempts := t.attempts()
	if stream != nil {
		attempts = 1
	}
	var lastErr error
	var serverWait time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			wait := t.backoff(attempt - 1)
			if serverWait > wait {
				wait = serverWait // a Retry-After hint overrides shorter backoff
			}
			serverWait = 0
			if err := sleep(ctx, wait); err != nil {
				return nil, nil, err
			}
		}
		reader := stream
		if body != nil {
			reader = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, reader)
		if err != nil {
			return nil, nil, err // malformed request: retrying cannot help
		}
		for k, vs := range header {
			req.Header[k] = vs
		}
		req.Header.Set(requestIDHeader, requestID)
		if traceparent != "" {
			req.Header.Set(obs.TraceHeader, traceparent)
		}
		rsp, err := t.httpClient().Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			lastErr = err
			continue // network-level failure: retry
		}
		ok := rsp.StatusCode >= 200 && rsp.StatusCode <= 299
		if ok && !buffer {
			return nil, rsp, nil
		}
		var raw []byte
		if ok {
			raw, err = ReadBody(rsp.Body)
		} else {
			// Only an excerpt of an error body is kept; cutting it is fine.
			raw, err = io.ReadAll(io.LimitReader(rsp.Body, MaxResponseBytes))
		}
		rsp.Body.Close()
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			if errors.Is(err, errBodyTooLarge) {
				return nil, nil, fmt.Errorf("api: %s %s: %w", method, url, err) // not transient
			}
			lastErr = err
			continue
		}
		if !ok {
			serr := &StatusError{
				Method: method, URL: url, Status: rsp.StatusCode,
				Body: strings.TrimSpace(string(raw[:min(len(raw), 512)])),
			}
			if retryableStatus(rsp.StatusCode) {
				lastErr = serr
				serverWait = retryAfter(rsp)
				continue
			}
			return raw, rsp, serr
		}
		return raw, rsp, nil
	}
	return nil, nil, fmt.Errorf("api: %s %s failed after %d attempts: %w", method, url, attempts, lastErr)
}

// GetJSON fetches url and decodes the JSON response into out (out may
// be nil to discard the body).
func (t *Transport) GetJSON(ctx context.Context, url string, out any) error {
	h := http.Header{"Accept": {"application/json"}}
	raw, _, err := t.Do(ctx, http.MethodGet, url, h, nil)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// PostJSON sends in as a JSON body (nil for an empty body) and decodes
// the JSON response into out (nil to discard).
func (t *Transport) PostJSON(ctx context.Context, url string, in, out any) error {
	var body []byte
	h := http.Header{"Accept": {"application/json"}}
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
		h.Set("Content-Type", "application/json")
	}
	raw, _, err := t.Do(ctx, http.MethodPost, url, h, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Delete issues a DELETE and discards the response body.
func (t *Transport) Delete(ctx context.Context, url string) error {
	_, _, err := t.Do(ctx, http.MethodDelete, url, nil, nil)
	return err
}

// GetDoc fetches and decodes a common-format document, asking for enc
// via the Accept header.
func (t *Transport) GetDoc(ctx context.Context, url string, enc dataformat.Encoding) (*dataformat.Document, error) {
	doc, _, err := t.GetDocIfChanged(ctx, url, enc, "")
	return doc, err
}

// GetDocIfChanged is GetDoc for a caller that may hold the document
// already: held, the ETag it holds it under ("" for none), goes out as
// If-None-Match. A 304 answers a nil document and held; a 200 the
// document and the response's ETag ("" when the server sent none). A
// 304 nobody asked for stays the *StatusError Do makes of it.
func (t *Transport) GetDocIfChanged(ctx context.Context, url string, enc dataformat.Encoding, held string) (*dataformat.Document, string, error) {
	h := http.Header{"Accept": {enc.ContentType()}}
	if held != "" {
		h.Set("If-None-Match", held)
	}
	raw, rsp, err := t.Do(ctx, http.MethodGet, url, h, nil)
	var se *StatusError
	if held != "" && errors.As(err, &se) && se.Status == http.StatusNotModified {
		return nil, held, nil
	}
	if err != nil {
		return nil, "", err
	}
	doc, err := dataformat.Decode(raw, responseEncoding(rsp))
	return doc, rsp.Header.Get("ETag"), err
}

// PostDoc sends a common-format document and decodes the reply document
// (nil when the response has no body).
func (t *Transport) PostDoc(ctx context.Context, url string, doc *dataformat.Document, enc dataformat.Encoding) (*dataformat.Document, error) {
	body, err := doc.Encode(enc)
	if err != nil {
		return nil, err
	}
	h := http.Header{
		"Content-Type": {enc.ContentType()},
		"Accept":       {enc.ContentType()},
	}
	raw, rsp, err := t.Do(ctx, http.MethodPost, url, h, body)
	if err != nil {
		return nil, err
	}
	if len(bytes.TrimSpace(raw)) == 0 {
		return nil, nil
	}
	return dataformat.Decode(raw, responseEncoding(rsp))
}

// responseEncoding resolves the wire encoding of a response.
func responseEncoding(rsp *http.Response) dataformat.Encoding {
	ct, _, _ := strings.Cut(rsp.Header.Get("Content-Type"), ";")
	return dataformat.ParseEncoding(strings.TrimSpace(ct))
}
