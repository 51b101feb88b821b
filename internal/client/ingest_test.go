package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/measuredb"
	"repro/internal/tsdb"
)

// newEmptyMeasureService boots an empty measurements DB over HTTP.
func newEmptyMeasureService(t *testing.T) (*measuredb.Service, *httptest.Server) {
	t.Helper()
	svc := measuredb.New(measuredb.Options{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

// newIngestFixture boots an empty measurements DB and returns both the
// write and read sub-clients plus the service.
func newIngestFixture(t *testing.T) (*measuredb.Service, *Ingest, *Measurements) {
	t.Helper()
	svc, ts := newEmptyMeasureService(t)
	c := &Client{MasterURL: "http://unused/"}
	return svc, c.Ingest(ts.URL), c.Measurements(ts.URL)
}

func ingestRow(i int) measuredb.Point {
	return measuredb.Point{
		Device: measDevice, Quantity: "temperature",
		At: m0.Add(time.Duration(i) * time.Minute), Value: float64(i),
	}
}

func TestIngestAppendBatch(t *testing.T) {
	svc, ic, mc := newIngestFixture(t)
	rows := make([]measuredb.Point, 10)
	for i := range rows {
		rows[i] = ingestRow(i)
	}
	rows[3].Device = "" // one bad row: located, not fatal
	res, err := ic.Append(context.Background(), rows)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 9 || res.Rejected != 1 || len(res.Errors) != 1 || res.Errors[0].Row != 3 {
		t.Fatalf("result = %+v", res)
	}
	if got := svc.Store().Len(tsdb.SeriesKey{Device: measDevice, Quantity: "temperature"}); got != 9 {
		t.Fatalf("stored = %d", got)
	}
	agg, err := mc.Aggregate(context.Background(), measDevice, "temperature")
	if err != nil || agg.Count != 9 {
		t.Fatalf("read back aggregate = %+v, err %v", agg, err)
	}
}

func TestIngestAppendSeries(t *testing.T) {
	svc, ic, _ := newIngestFixture(t)
	samples := []measuredb.Point{
		{At: m0, Value: 1},
		{At: m0.Add(time.Minute), Value: 2},
	}
	res, err := ic.AppendSeries(context.Background(), measDevice, "humidity", samples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != 2 || res.Rejected != 0 {
		t.Fatalf("result = %+v", res)
	}
	smp, err := svc.Store().Latest(tsdb.SeriesKey{Device: measDevice, Quantity: "humidity"})
	if err != nil || smp.Value != 2 {
		t.Fatalf("latest = %+v, err %v", smp, err)
	}
}

// TestIngestIdempotentRetry re-sends one keyed batch and checks the
// server replays the summary instead of double-appending.
func TestIngestIdempotentRetry(t *testing.T) {
	svc, ic, _ := newIngestFixture(t)
	rows := []measuredb.Point{ingestRow(0)}
	if _, err := ic.Append(context.Background(), rows, WithIdempotencyKey("k1")); err != nil {
		t.Fatal(err)
	}
	res, err := ic.Append(context.Background(), rows, WithIdempotencyKey("k1"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Replayed || res.Accepted != 1 {
		t.Fatalf("retry result = %+v", res)
	}
	if got := svc.Store().Len(tsdb.SeriesKey{Device: measDevice, Quantity: "temperature"}); got != 1 {
		t.Fatalf("stored = %d, want 1", got)
	}
}

// TestIngestBatcherSizeFlush checks the builder ships a batch as soon as
// the size threshold fires, without waiting for the interval.
func TestIngestBatcherSizeFlush(t *testing.T) {
	svc, ic, _ := newIngestFixture(t)
	var delivered atomic.Int64
	b := ic.Batcher(BatcherOptions{
		MaxRows:    8,
		FlushEvery: -1, // size-only: prove the threshold alone ships
		OnError:    func(_ int, err error) { t.Errorf("flush: %v", err) },
		OnResult:   func(r *measuredb.IngestResult) { delivered.Add(int64(r.Accepted)) },
	})
	for i := 0; i < 20; i++ {
		if err := b.Add(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := delivered.Load(); got != 16 {
		t.Fatalf("delivered before close = %d, want 16 (two full batches)", got)
	}
	b.Close() // ships the 4-row tail
	if got := delivered.Load(); got != 20 {
		t.Fatalf("delivered after close = %d", got)
	}
	if got := svc.Store().Len(tsdb.SeriesKey{Device: measDevice, Quantity: "temperature"}); got != 20 {
		t.Fatalf("stored = %d", got)
	}
	if err := b.Add(ingestRow(99)); err != ErrBatcherClosed {
		t.Fatalf("Add after close = %v", err)
	}
}

// TestIngestBatcherRetryAppliesOnce: a batch the node applied but whose
// answer was lost — the first POST passes through and is answered 503
// anyway — is retried by the transport under the same Idempotency-Key,
// so the node replays it and holds every row once.
func TestIngestBatcherRetryAppliesOnce(t *testing.T) {
	svc := measuredb.New(measuredb.Options{})
	t.Cleanup(svc.Close)
	node := svc.Handler()
	var mu sync.Mutex
	var keys []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			node.ServeHTTP(w, r)
			return
		}
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		first := len(keys) == 1
		mu.Unlock()
		if !first {
			node.ServeHTTP(w, r)
			return
		}
		node.ServeHTTP(httptest.NewRecorder(), r) // applied, answer lost
		w.Header().Set("Retry-After", "0")
		http.Error(w, "lost", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	c := &Client{MasterURL: "http://unused/", BaseDelay: time.Millisecond}
	var delivered atomic.Int64
	b := c.Ingest(ts.URL).Batcher(BatcherOptions{
		MaxRows:    4,
		FlushEvery: -1,
		OnError:    func(_ int, err error) { t.Errorf("flush: %v", err) },
		OnResult:   func(r *measuredb.IngestResult) { delivered.Add(int64(r.Accepted)) },
	})
	for i := 0; i < 8; i++ {
		if err := b.Add(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	b.Close()
	mu.Lock()
	defer mu.Unlock()
	if got := svc.Store().Len(tsdb.SeriesKey{Device: measDevice, Quantity: "temperature"}); got != 8 || delivered.Load() != 8 {
		t.Fatalf("stored %d rows, delivered %d; want each of 8 once", got, delivered.Load())
	}
	if len(keys) != 3 || keys[0] == "" || keys[0] != keys[1] || keys[2] == keys[0] {
		t.Fatalf("Idempotency-Keys of the attempts = %q; want the retry under its batch's key and a fresh one per batch", keys)
	}
}

// TestIngestBatcherIntervalFlush checks a sub-threshold batch still
// ships on the timer.
func TestIngestBatcherIntervalFlush(t *testing.T) {
	svc, ic, _ := newIngestFixture(t)
	b := ic.Batcher(BatcherOptions{MaxRows: 1000, FlushEvery: 20 * time.Millisecond})
	defer b.Close()
	for i := 0; i < 3; i++ {
		if err := b.Add(ingestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	key := tsdb.SeriesKey{Device: measDevice, Quantity: "temperature"}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Store().Len(key) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("interval flush never delivered: %d stored", svc.Store().Len(key))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestIngestStreamNDJSON streams rows through the pipe writer and reads
// the summary at Close.
func TestIngestStreamNDJSON(t *testing.T) {
	svc, ic, _ := newIngestFixture(t)
	st, err := ic.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const rows = 5000
	for i := 0; i < rows; i++ {
		if err := st.Write(ingestRow(i)); err != nil {
			t.Fatalf("write row %d: %v", i, err)
		}
	}
	res, err := st.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != rows || res.Rejected != 0 {
		t.Fatalf("summary = %+v", res)
	}
	if got := svc.Store().Len(tsdb.SeriesKey{Device: measDevice, Quantity: "temperature"}); got != rows {
		t.Fatalf("stored = %d", got)
	}
}

// recordingIngest is a stub /v2/ingest that keeps the NDJSON body it
// was sent (as far as it arrived) and acks its line count.
func recordingIngest(t *testing.T) (*Ingest, <-chan []byte) {
	t.Helper()
	got := make(chan []byte, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body) // an aborted upload ends in an error; what arrived is the point
		got <- body
		_ = json.NewEncoder(w).Encode(measuredb.IngestResult{Accepted: bytes.Count(body, []byte("\n"))})
	}))
	t.Cleanup(ts.Close)
	return (&Client{MasterURL: "http://unused/"}).Ingest(ts.URL), got
}

// TestIngestStreamBuffersWholeRows: rows gather in the stream's buffer
// and cross the pipe a buffer at a time — all of them, in order, as the
// lines json.Encoder wrote; an Abort mid-buffer leaves the server with
// whole rows only; a Write after Close or Abort is an error.
func TestIngestStreamBuffersWholeRows(t *testing.T) {
	ic, got := recordingIngest(t)
	st, err := ic.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const rows = 10000
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := 0; i < rows; i++ {
		if err := st.Write(ingestRow(i)); err != nil {
			t.Fatalf("write row %d: %v", i, err)
		}
		_ = enc.Encode(ingestRow(i))
	}
	res, err := st.Close()
	if err != nil || res.Accepted != rows {
		t.Fatalf("summary = %+v, %v", res, err)
	}
	if body := <-got; !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("the server read %d bytes, want the %d json.Encoder writes for the same rows", len(body), want.Len())
	}
	if err := st.Write(ingestRow(0)); err == nil {
		t.Fatal("Write after Close succeeded")
	}
	if _, err := st.Close(); err == nil {
		t.Fatal("second Close succeeded")
	}

	// 1,000 rows are more than one buffer and less than two.
	if st, err = ic.Stream(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if err := st.Write(ingestRow(i)); err != nil {
			t.Fatalf("write row %d: %v", i, err)
		}
	}
	st.Abort(errors.New("producer failed"))
	body := <-got
	lines := bytes.Count(body, []byte("\n"))
	if lines == 0 || lines >= 1000 || !bytes.HasSuffix(body, []byte("\n")) || !bytes.Equal(body, want.Bytes()[:len(body)]) {
		t.Fatalf("after Abort the server holds %d bytes (%d lines): want a whole-row prefix short of the 1000 written", len(body), lines)
	}
	if err := st.Write(ingestRow(0)); err == nil {
		t.Fatal("Write after Abort succeeded")
	}
}

// TestIngestRefusesWhatEncodingJSONRefuses: a row json.Marshal does not
// accept fails the delivery with json.Marshal's own words, on every
// entrance, and sends nothing.
func TestIngestRefusesWhatEncodingJSONRefuses(t *testing.T) {
	ic, got := recordingIngest(t)
	for _, bad := range []measuredb.Point{
		{Device: "d", Quantity: "q", At: m0, Value: math.NaN()},
		{Device: "d", Quantity: "q", At: m0, Value: math.Inf(-1)},
		{Device: "d", Quantity: "q", At: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Value: 1},
		{Device: "d", Quantity: "q", At: m0.In(time.FixedZone("far", 24*3600)), Value: 1},
	} {
		rows := []measuredb.Point{ingestRow(0), bad}
		_, want := json.Marshal(measuredb.IngestBatch{Rows: rows})
		if _, err := ic.Append(context.Background(), rows); want == nil || err == nil || err.Error() != want.Error() {
			t.Errorf("Append(%+v): %v, want json.Marshal's %v", bad, err, want)
		}
		_, want = json.Marshal(measuredb.SeriesAppend{Samples: rows})
		if _, err := ic.AppendSeries(context.Background(), "d", "q", rows); err == nil || err.Error() != want.Error() {
			t.Errorf("AppendSeries(%+v): %v, want json.Marshal's %v", bad, err, want)
		}
		st, err := ic.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want = json.NewEncoder(io.Discard).Encode(bad)
		if err := st.Write(bad); err == nil || err.Error() != want.Error() {
			t.Errorf("Stream.Write(%+v): %v, want json.Encoder's %v", bad, err, want)
		}
		st.Abort(err) // the request may or may not have reached the server; its body did not
	}
	for {
		select {
		case body := <-got:
			if len(body) > 0 {
				t.Fatalf("a refused delivery reached the server: %s", body)
			}
		default:
			return
		}
	}
}
