package api

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataformat"
)

// fastTransport retries quickly so tests stay subsecond.
func fastTransport() *Transport {
	return &Transport{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond}
}

func TestTransportRetriesTransientFailures(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	var out map[string]bool
	if err := fastTransport().GetJSON(context.Background(), ts.URL, &out); err != nil {
		t.Fatal(err)
	}
	if !out["ok"] || hits.Load() != 3 {
		t.Fatalf("out=%v hits=%d", out, hits.Load())
	}
}

func TestTransportDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	}))
	defer ts.Close()

	err := fastTransport().GetJSON(context.Background(), ts.URL, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadRequest {
		t.Fatalf("err = %v", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("400 was retried: %d hits", hits.Load())
	}
}

func TestTransportGivesUpAfterMaxAttempts(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusBadGateway)
	}))
	defer ts.Close()

	tr := fastTransport()
	tr.MaxAttempts = 2
	err := tr.GetJSON(context.Background(), ts.URL, nil)
	if err == nil || hits.Load() != 2 {
		t.Fatalf("err=%v hits=%d", err, hits.Load())
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusBadGateway {
		t.Fatalf("final error does not carry the status: %v", err)
	}
}

func TestTransportContextCancelsBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer ts.Close()

	tr := &Transport{BaseDelay: time.Hour, MaxDelay: time.Hour} // would hang without ctx
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := tr.GetJSON(ctx, ts.URL, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the backoff sleep")
	}
}

func TestTransportBodyReplayedOnRetry(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc, err := ReadDoc(r)
		if err != nil || doc.Measurement == nil {
			t.Errorf("attempt %d: bad body: %v", hits.Load(), err)
		}
		if hits.Add(1) < 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		WriteDoc(w, r, doc)
	}))
	defer ts.Close()

	doc := dataformat.NewMeasurementDoc(dataformat.Measurement{
		Device: "urn:d", Quantity: dataformat.Temperature, Unit: dataformat.Celsius,
		Value: 21, Timestamp: time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC),
	})
	got, err := fastTransport().PostDoc(context.Background(), ts.URL, doc, dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Measurement == nil || got.Measurement.Value != 21 {
		t.Fatalf("echo = %+v", got)
	}
	if hits.Load() != 2 {
		t.Fatalf("hits = %d", hits.Load())
	}
}

func TestTransportBackoffIsCappedAndJittered(t *testing.T) {
	tr := &Transport{BaseDelay: 100 * time.Millisecond, MaxDelay: 300 * time.Millisecond}
	for attempt := 0; attempt < 10; attempt++ {
		d := tr.backoff(attempt)
		if d < 50*time.Millisecond || d > 450*time.Millisecond {
			t.Fatalf("attempt %d: backoff %v outside jittered cap", attempt, d)
		}
	}
}

// bigBodyServer serves size bytes of JSON-array filler on every request.
func bigBodyServer(t *testing.T, size int, hits *atomic.Int32) *httptest.Server {
	t.Helper()
	chunk := bytes.Repeat([]byte("1,"), 32<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("["))
		for sent := 1; sent < size-2; sent += len(chunk) {
			_, _ = w.Write(chunk[:min(len(chunk), size-2-sent)])
		}
		_, _ = w.Write([]byte("0]"))
	}))
	t.Cleanup(ts.Close)
	return ts
}

// A buffered read of a body over the limit is an error naming the
// limit — never a shortened slice under a nil error — and is not
// retried; Open hands the same body over whole.
func TestTransportOversizeBodyIsAnError(t *testing.T) {
	var hits atomic.Int32
	ts := bigBodyServer(t, MaxResponseBytes+4096, &hits)

	raw, _, err := fastTransport().Do(context.Background(), http.MethodGet, ts.URL, nil, nil)
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(MaxResponseBytes)) {
		t.Fatalf("oversize body: %d bytes, err = %v", len(raw), err)
	}
	if hits.Load() != 1 {
		t.Fatalf("oversize body fetched %d times", hits.Load())
	}

	rsp, err := fastTransport().Open(context.Background(), http.MethodGet, ts.URL, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if n, err := io.Copy(io.Discard, rsp.Body); err != nil || n != MaxResponseBytes+4096 {
		t.Fatalf("streamed %d bytes (%v), want %d", n, err, MaxResponseBytes+4096)
	}

	// Exactly at the limit still fits.
	ts = bigBodyServer(t, MaxResponseBytes, &hits)
	if raw, _, err = fastTransport().Do(context.Background(), http.MethodGet, ts.URL, nil, nil); err != nil || len(raw) != MaxResponseBytes {
		t.Fatalf("at-limit body: %d bytes, err = %v", len(raw), err)
	}
}

// Open retries and reports failures like Do: everything before the
// response header.
func TestTransportOpenRetriesBeforeTheHeader(t *testing.T) {
	var hits atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch hits.Add(1) {
		case 1:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			_, _ = w.Write([]byte("rows"))
		}
	}))
	defer ts.Close()
	rsp, err := fastTransport().Open(context.Background(), http.MethodGet, ts.URL, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rsp.Body)
	rsp.Body.Close()
	if string(body) != "rows" || hits.Load() != 2 {
		t.Fatalf("body %q after %d hits", body, hits.Load())
	}

	gone := httptest.NewServer(http.NotFoundHandler())
	defer gone.Close()
	_, err = fastTransport().Open(context.Background(), http.MethodGet, gone.URL, nil, nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusNotFound {
		t.Fatalf("err = %v", err)
	}
}
