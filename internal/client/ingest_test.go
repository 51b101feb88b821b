package client

import (
	"context"
	"net/http/httptest"
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
