package api

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestRateLimiterTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	rl := NewRateLimiter(10, 3).WithClock(func() time.Time { return now })

	for i := 0; i < 3; i++ {
		if ok, _ := rl.Allow("k"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, wait := rl.Allow("k")
	if ok {
		t.Fatal("request beyond burst allowed")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("wait = %v, want ~1/rate", wait)
	}
	// Other keys have their own buckets.
	if ok, _ := rl.Allow("other"); !ok {
		t.Fatal("independent key throttled")
	}
	// Refill at 10/s: 100ms buys one token back.
	now = now.Add(100 * time.Millisecond)
	if ok, _ := rl.Allow("k"); !ok {
		t.Fatal("token not refilled")
	}
	if ok, _ := rl.Allow("k"); ok {
		t.Fatal("second token appeared from nowhere")
	}
}

func TestRateLimitMiddleware429(t *testing.T) {
	rl := NewRateLimiter(1, 1)
	var hits atomic.Int64
	h := RateLimit(rl)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.WriteHeader(http.StatusOK)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	rsp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d", rsp.StatusCode)
	}
	rsp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", rsp.StatusCode)
	}
	if rsp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if hits.Load() != 1 {
		t.Fatalf("handler ran %d times", hits.Load())
	}
}

func TestTransportHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var firstRetryAt atomic.Int64
	start := time.Now()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		firstRetryAt.Store(int64(time.Since(start)))
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()

	tr := &Transport{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	if _, _, err := tr.Do(context.Background(), http.MethodGet, ts.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	// The 1s server hint must override the ~1ms client backoff.
	if got := time.Duration(firstRetryAt.Load()); got < 900*time.Millisecond {
		t.Fatalf("retried after %v, ignoring Retry-After", got)
	}
}

func TestTransportPropagatesRequestID(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("X-Request-ID"))
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	tr := &Transport{}

	// Outside a request: a fresh ID is minted.
	if _, _, err := tr.Do(context.Background(), http.MethodGet, ts.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	if id, _ := got.Load().(string); len(id) != 16 {
		t.Fatalf("minted request ID = %q", id)
	}

	// Inside a request served by the layer: the inbound ID rides along,
	// so two hops share one trace ID.
	front := NewServer(Options{Service: "front"})
	front.HandleFunc(http.MethodGet, "/hop", func(w http.ResponseWriter, r *http.Request) {
		if _, _, err := tr.Do(r.Context(), http.MethodGet, ts.URL, nil, nil); err != nil {
			WriteError(w, r, err)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	fts := httptest.NewServer(front.Handler())
	defer fts.Close()

	req, _ := http.NewRequest(http.MethodGet, fts.URL+"/v1/hop", nil)
	req.Header.Set("X-Request-ID", "trace-me-0001")
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if id, _ := got.Load().(string); id != "trace-me-0001" {
		t.Fatalf("downstream saw %q, want the inbound trace ID", id)
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	s := NewServer(Options{Service: "promtest"})
	s.HandleFunc(http.MethodGet, "/thing", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		rsp, err := http.Get(ts.URL + "/v1/thing")
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
	}

	// format=prometheus forces the text exposition.
	rsp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if ct := rsp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams := parseProm(t, string(raw))
	want := obs.Labels{"service": "promtest", "method": "GET", "route": "/thing"}
	if v, ok := promValue(fams, "repro_http_requests_total", want); !ok || v != 3 {
		t.Fatalf("repro_http_requests_total%v = %v (present %v), want 3:\n%s", want, v, ok, raw)
	}
	if fams["repro_http_requests_total"].Type != "counter" {
		t.Fatal("missing TYPE header")
	}

	// Accept negotiation reaches the same output; JSON stays default.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rsp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rsp2.Body.Close()
	if ct := rsp2.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("negotiated Content-Type = %q", ct)
	}
	rsp3, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	rsp3.Body.Close()
	if ct := rsp3.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("default Content-Type = %q", ct)
	}
}
