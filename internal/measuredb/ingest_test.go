package measuredb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/middleware"
	"repro/internal/stream"
	"repro/internal/tsdb"
)

const ingestDevice = "urn:district:turin/building:b07/device:w-1"

// ingestURL posts body to /v2/ingest with the given content type and
// optional idempotency key, returning status and body.
func postIngest(t *testing.T, base, contentType, idem, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v2/ingest", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if idem != "" {
		req.Header.Set("Idempotency-Key", idem)
	}
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	raw, _ := io.ReadAll(rsp.Body)
	return rsp.StatusCode, string(raw)
}

func TestV2IngestJSONBatch(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"rows":[
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20.5},
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:01:00Z","value":21},
		{"device":"` + ingestDevice + `","quantity":"humidity","at":"2015-03-09T10:00:00Z","value":45}
	]}`
	code, rspBody := postIngest(t, ts.URL, "application/json", "", body)
	if code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, rspBody)
	}
	var res IngestResult
	if err := json.Unmarshal([]byte(rspBody), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 3 || res.Rejected != 0 {
		t.Fatalf("result = %+v", res)
	}
	if got := s.Store().Len(tsdb.SeriesKey{Device: ingestDevice, Quantity: "temperature"}); got != 2 {
		t.Fatalf("stored temperature samples = %d", got)
	}
	if got := s.Stats().Ingested; got != 3 {
		t.Fatalf("ingested counter = %d", got)
	}

	// The ingested rows are immediately readable through the /v2 query
	// data plane.
	var page SamplesPage
	if code := getJSON(t, samplesURL(ts.URL, ingestDevice, "temperature", ""), &page); code != http.StatusOK {
		t.Fatalf("samples read = %d", code)
	}
	if page.Count != 2 || page.Samples[0].Value != 20.5 {
		t.Fatalf("read back page = %+v", page)
	}
}

// TestV2IngestNDJSONErrorRowsGolden pins the exact summary envelope for
// an NDJSON stream holding both valid and invalid rows: rejected rows
// are located by index, accepted rows stand.
func TestV2IngestNDJSONErrorRowsGolden(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20}
{"quantity":"temperature","at":"2015-03-09T10:01:00Z","value":21}
{"device":"` + ingestDevice + `","at":"2015-03-09T10:02:00Z","value":22}
{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:03:00Z","value":23}
`
	code, rspBody := postIngest(t, ts.URL, NDJSONType, "", body)
	if code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, rspBody)
	}
	want := `{"accepted":2,"rejected":2,"errors":[{"row":1,"error":"missing device"},{"row":2,"error":"missing quantity"}]}
`
	if rspBody != want {
		t.Fatalf("ingest golden mismatch:\ngot:  %q\nwant: %q", rspBody, want)
	}
	if got := s.Store().Len(tsdb.SeriesKey{Device: ingestDevice, Quantity: "temperature"}); got != 2 {
		t.Fatalf("stored samples = %d, want 2", got)
	}
	if st := s.Stats(); st.Ingested != 2 || st.Rejected != 2 {
		t.Fatalf("counters = %+v", st)
	}
}

// TestV2IngestNDJSONMalformedRowStops checks a syntactically broken line
// is reported at its index and ends the request without failing it.
func TestV2IngestNDJSONMalformedRowStops(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20}
this is not json
{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:01:00Z","value":21}
`
	code, rspBody := postIngest(t, ts.URL, NDJSONType, "", body)
	if code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, rspBody)
	}
	var res IngestResult
	if err := json.Unmarshal([]byte(rspBody), &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 1 || res.Rejected != 1 || len(res.Errors) != 1 || res.Errors[0].Row != 1 {
		t.Fatalf("result = %+v", res)
	}
	if !strings.HasPrefix(res.Errors[0].Error, "malformed row") {
		t.Fatalf("error = %q", res.Errors[0].Error)
	}
	if got := s.Store().Len(tsdb.SeriesKey{Device: ingestDevice, Quantity: "temperature"}); got != 1 {
		t.Fatalf("stored samples = %d, want 1", got)
	}
}

func TestV2PutSeriesSamples(t *testing.T) {
	s, ts := newTestServer(t)
	target := ts.URL + "/v2/series/" + url.PathEscape(ingestDevice) + "/temperature/samples"
	body := `{"samples":[{"at":"2015-03-09T10:00:00Z","value":19},{"at":"2015-03-09T10:05:00Z","value":19.5}]}`
	req, _ := http.NewRequest(http.MethodPut, target, strings.NewReader(body))
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(rsp.Body)
	rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("put = %d: %s", rsp.StatusCode, raw)
	}
	var res IngestResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Rejected != 0 {
		t.Fatalf("result = %+v", res)
	}
	smp, err := s.Store().Latest(tsdb.SeriesKey{Device: ingestDevice, Quantity: "temperature"})
	if err != nil || smp.Value != 19.5 {
		t.Fatalf("latest = %+v, err %v", smp, err)
	}
}

// TestV2IngestIdempotencyWindow retries one keyed batch and checks the
// rows are applied once, with the stored outcome replayed.
func TestV2IngestIdempotencyWindow(t *testing.T) {
	s, ts := newTestServer(t)
	body := `{"rows":[{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20}]}`

	code, first := postIngest(t, ts.URL, "application/json", "retry-123", body)
	if code != http.StatusOK {
		t.Fatalf("first = %d: %s", code, first)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/ingest", strings.NewReader(body))
	req.Header.Set("Idempotency-Key", "retry-123")
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(rsp.Body)
	rsp.Body.Close()
	if rsp.Header.Get("Idempotent-Replay") != "true" {
		t.Fatalf("replay header missing; body %s", raw)
	}
	var res IngestResult
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Replayed || res.Accepted != 1 {
		t.Fatalf("replayed result = %+v", res)
	}
	if got := s.Store().Len(tsdb.SeriesKey{Device: ingestDevice, Quantity: "temperature"}); got != 1 {
		t.Fatalf("stored samples = %d, want 1 (replay re-applied rows)", got)
	}
	// A different key applies normally.
	if code, _ := postIngest(t, ts.URL, "application/json", "retry-124", body); code != http.StatusOK {
		t.Fatalf("second key = %d", code)
	}
	if got := s.Store().Len(tsdb.SeriesKey{Device: ingestDevice, Quantity: "temperature"}); got != 2 {
		t.Fatalf("stored samples = %d, want 2", got)
	}
}

// TestV2IngestFeedsLiveStream checks /v2-ingested rows reach live
// stream subscribers and are counted once.
func TestV2IngestFeedsLiveStream(t *testing.T) {
	s, ts := newTestServer(t)
	sub, _, err := s.Stream().Hub().Subscribe("measurements/#", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	body := `{"rows":[{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20}]}`
	if code, rsp := postIngest(t, ts.URL, "application/json", "", body); code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, rsp)
	}
	select {
	case batch := <-sub.C:
		if len(batch) != 1 || !strings.Contains(batch[0].Event.Topic, "temperature") {
			t.Fatalf("live batch = %+v, want the one temperature row", batch)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no live event for ingested row")
	}
	if got := s.Stats().Ingested; got != 1 {
		t.Fatalf("ingested = %d, want 1", got)
	}
}

// TestPublishIngressStreamsButDoesNotStore: the store has one writer.
// A measurement document POSTed to /v1/publish reaches an SSE subscriber
// of the measurement topics and leaves the store untouched.
func TestPublishIngressStreamsButDoesNotStore(t *testing.T) {
	s, ts := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sub, err := stream.Subscribe(ctx, ts.URL, IngestPattern, stream.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	waitHubSubscribers(t, s, 1)

	m := sampleMeasurement(0)
	payload, err := dataformat.NewMeasurementDoc(m).Encode(dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	ev := middleware.Event{Topic: Topic(m.Device, m.Quantity), Payload: payload, At: m.Timestamp}
	if code, _ := postJSON(t, ts.URL+"/v1/publish", nil, ev, nil); code != http.StatusOK {
		t.Fatalf("publish = %d", code)
	}
	select {
	case got := <-sub.Events:
		if got.Topic != ev.Topic || !bytes.Equal(got.Payload, payload) {
			t.Fatalf("streamed event = %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("published event never reached the SSE subscriber")
	}
	if st := s.Stats(); st.Ingested != 0 || st.Rejected != 0 || st.Store.Samples != 0 {
		t.Fatalf("a published event touched the store: %+v", st)
	}
	var page SeriesPage
	if code := getJSON(t, ts.URL+"/v2/series", &page); code != http.StatusOK || page.Count != 0 {
		t.Fatalf("GET /v2/series = %d %+v, want an empty catalog", code, page)
	}
}

// TestV2QueryNDJSONStreamGolden pins the streamed batch response: sample
// rows through the iterator, per-selector error rows, a summary trailer.
func TestV2QueryNDJSONStreamGolden(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, "temperature", 3)

	body := `{"selectors":[{"device":"` + v2Device + `","quantity":"temperature"},{"device":"urn:nothing"}]}`
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v2/query", strings.NewReader(body))
	req.Header.Set("Accept", NDJSONType)
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if ct := rsp.Header.Get("Content-Type"); !strings.HasPrefix(ct, NDJSONType) {
		t.Fatalf("content type = %q", ct)
	}
	raw, _ := io.ReadAll(rsp.Body)
	want := `{"selector":0,"device":"` + v2Device + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":0}
{"selector":0,"device":"` + v2Device + `","quantity":"temperature","at":"2015-03-09T10:01:00Z","value":1}
{"selector":0,"device":"` + v2Device + `","quantity":"temperature","at":"2015-03-09T10:02:00Z","value":2}
{"selector":1,"error":"no matching series"}
{"summary":true,"series":1,"samples":3}
`
	if string(raw) != want {
		t.Fatalf("ndjson query golden mismatch:\ngot:  %q\nwant: %q", raw, want)
	}
}

// TestV2QueryNDJSONAggregateAndTruncation covers the pushed-down and
// limited shapes of the streamed batch response.
func TestV2QueryNDJSONAggregateAndTruncation(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, "temperature", 10)

	post := func(body string) []string {
		t.Helper()
		rsp, err := http.Post(ts.URL+"/v2/query?encoding=ndjson", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer rsp.Body.Close()
		raw, _ := io.ReadAll(rsp.Body)
		return strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	}

	lines := post(`{"selectors":[{"device":"` + v2Device + `","quantity":"temperature"}],"aggregate":true}`)
	if len(lines) != 2 {
		t.Fatalf("aggregate stream = %d lines: %v", len(lines), lines)
	}
	var row BatchRow
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Aggregate == nil || row.Aggregate.Count != 10 {
		t.Fatalf("aggregate row = %+v", row)
	}

	lines = post(`{"selectors":[{"device":"` + v2Device + `","quantity":"temperature"}],"limit":4}`)
	// 4 sample rows + truncation marker + trailer.
	if len(lines) != 6 {
		t.Fatalf("limited stream = %d lines: %v", len(lines), lines)
	}
	var marker BatchRow
	if err := json.Unmarshal([]byte(lines[4]), &marker); err != nil {
		t.Fatal(err)
	}
	if !marker.Truncated {
		t.Fatalf("line 4 = %q, want truncation marker", lines[4])
	}
	var trailer BatchTrailer
	if err := json.Unmarshal([]byte(lines[5]), &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Summary || trailer.Samples != 4 || trailer.Series != 1 {
		t.Fatalf("trailer = %+v", trailer)
	}
}

// TestV2WriteRateLimitTier checks the write tier trips independently of
// reads and surfaces in the metrics.
func TestV2WriteRateLimitTier(t *testing.T) {
	// A frozen clock: no token refills however slowly the runner gets
	// from the first request to the second.
	writeRL := api.NewRateLimiter(1000, 1).WithClock(func() time.Time { return time.Unix(0, 0) })
	s := New(Options{WriteLimiter: writeRL})
	defer s.Close()
	fillSeries(t, s, v2Device, "temperature", 2)
	h := s.Handler()

	do := func(method, target, body string) int {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, _ := http.NewRequest(method, target, rd)
		req.RemoteAddr = "10.9.9.9:1"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	ingestBody := `{"rows":[{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":1}]}`
	if code := do(http.MethodPost, "/v2/ingest", ingestBody); code != http.StatusOK {
		t.Fatalf("first ingest = %d", code)
	}
	if code := do(http.MethodPost, "/v2/ingest", ingestBody); code != http.StatusTooManyRequests {
		t.Fatalf("second ingest = %d, want 429", code)
	}
	target := "/v2/series/" + url.PathEscape(v2Device) + "/temperature/samples"
	if code := do(http.MethodGet, target, ""); code != http.StatusOK {
		t.Fatalf("read after write trip = %d (tiers not independent)", code)
	}
	req, _ := http.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var snap api.MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range snap.Limiters {
		if l.Tier == "write" {
			found = true
			// Allowed: the seeding batch (its own client bucket) and the
			// first ingest.
			if l.Allowed != 2 || l.Rejected != 1 {
				t.Fatalf("write tier stats = %+v", l)
			}
		}
	}
	if !found {
		t.Fatal("write tier missing from /v1/metrics")
	}
}

// TestDedupWindowInFlightRetry pins the timed-out-retry race the window
// exists for: a retry arriving while the first delivery is still being
// applied must wait and replay its outcome, never re-execute.
func TestDedupWindowInFlightRetry(t *testing.T) {
	d := newDedupWindow()
	ctx := context.Background()

	tok, res, err := d.begin(ctx, "k")
	if err != nil || res != nil || tok == nil {
		t.Fatalf("first begin = tok %v res %v err %v", tok, res, err)
	}

	got := make(chan *IngestResult, 1)
	go func() {
		_, res, err := d.begin(ctx, "k") // lands while the first is in flight
		if err != nil {
			t.Errorf("retry begin: %v", err)
		}
		got <- res
	}()
	select {
	case <-got:
		t.Fatal("retry returned before the in-flight delivery finished")
	case <-time.After(20 * time.Millisecond):
	}
	tok.store(IngestResult{Accepted: 7})
	select {
	case res := <-got:
		if res == nil || !res.Replayed || res.Accepted != 7 {
			t.Fatalf("retry replayed %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("retry never unblocked")
	}

	// An abandoned claim hands the key to the waiter for re-execution.
	tok2, res, _ := d.begin(ctx, "k2")
	if tok2 == nil || res != nil {
		t.Fatalf("claim k2 = tok %v res %v", tok2, res)
	}
	reclaim := make(chan *dedupToken, 1)
	go func() {
		tok3, res, err := d.begin(ctx, "k2")
		if err != nil || res != nil {
			t.Errorf("waiter after abandon: res %v err %v", res, err)
		}
		reclaim <- tok3
	}()
	time.Sleep(10 * time.Millisecond)
	tok2.abandon()
	select {
	case tok3 := <-reclaim:
		if tok3 == nil {
			t.Fatal("waiter did not reclaim the abandoned key")
		}
		tok3.store(IngestResult{Accepted: 1})
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never unblocked after abandon")
	}

	// A canceled waiter errors out instead of hanging.
	tok4, _, _ := d.begin(ctx, "k3")
	cctx, cancel := context.WithCancel(ctx)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := d.begin(cctx, "k3")
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled waiter returned nil error")
	}
	tok4.abandon()
}

// TestDedupCapSparesInFlightClaims: filling the window past its key cap
// must not evict a claim whose delivery is still in flight — a retry of
// it waits (and here times out) instead of re-executing its rows.
func TestDedupCapSparesInFlightClaims(t *testing.T) {
	d := newDedupWindow()
	ctx := context.Background()
	slow, _, _ := d.begin(ctx, "slow")
	for i := 0; i < maxDedupEntries; i++ {
		tok, _, _ := d.begin(ctx, fmt.Sprintf("k%d", i))
		tok.store(IngestResult{Accepted: 1})
	}
	cctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	retry, res, err := d.begin(cctx, "slow")
	if retry != nil || res != nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("retry of an in-flight claim past the cap = tok %v res %v err %v, want it to wait", retry, res, err)
	}
	if n := d.size(); n != maxDedupEntries {
		t.Fatalf("window holds %d keys, want the cap %d", n, maxDedupEntries)
	}
	slow.store(IngestResult{Accepted: 9})
	if _, res, _ := d.begin(ctx, "slow"); res == nil || res.Accepted != 9 || !res.Replayed {
		t.Fatalf("replay after the in-flight delivery stored = %+v", res)
	}
}
