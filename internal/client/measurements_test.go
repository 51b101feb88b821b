package client

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/measuredb"
	"repro/internal/tsdb"
)

var m0 = time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)

const measDevice = "urn:district:turin/building:b01/device:t-1"

// newMeasureFixture boots a measurements DB with n samples in one
// temperature series and returns the bound sub-client.
func newMeasureFixture(t *testing.T, n int) *Measurements {
	t.Helper()
	svc := measuredb.New(measuredb.Options{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	c := &Client{MasterURL: "http://unused/"}
	rows := make([]measuredb.Point, n)
	for i := range rows {
		rows[i] = measuredb.Point{Device: measDevice, Quantity: "temperature",
			At: m0.Add(time.Duration(i) * time.Minute), Value: float64(i)}
	}
	if res, err := c.Ingest(ts.URL).Append(context.Background(), rows); err != nil || res.Accepted != n {
		t.Fatalf("seed: %+v, %v", res, err)
	}
	return c.Measurements(ts.URL)
}

func TestMeasurementsSamplesPage(t *testing.T) {
	mc := newMeasureFixture(t, 50)
	page, err := mc.Samples(context.Background(), measDevice, "temperature", WithLimit(20))
	if err != nil {
		t.Fatal(err)
	}
	if page.Count != 20 || page.NextCursor == "" {
		t.Fatalf("page = count %d cursor %q", page.Count, page.NextCursor)
	}
	next, err := mc.Samples(context.Background(), measDevice, "temperature",
		WithLimit(20), WithCursor(page.NextCursor))
	if err != nil {
		t.Fatal(err)
	}
	if next.Count != 20 || next.Samples[0].Value != 20 {
		t.Fatalf("second page starts at %v with %d samples", next.Samples[0].Value, next.Count)
	}
}

func TestMeasurementsIterDepaginates(t *testing.T) {
	mc := newMeasureFixture(t, 95)
	it := mc.Iter(context.Background(), measDevice, "temperature", WithLimit(20))
	var got []float64
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, p.Value)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 95 || it.Pages() != 5 {
		t.Fatalf("iterator walked %d samples over %d pages, want 95 over 5", len(got), it.Pages())
	}
	for i, v := range got {
		if v != float64(i) {
			t.Fatalf("sample %d = %v (gap or duplicate across pages)", i, v)
		}
	}

	// A range bound propagates into every page request.
	it = mc.Iter(context.Background(), measDevice, "temperature",
		WithLimit(10), WithRange(m0.Add(30*time.Minute), m0.Add(49*time.Minute)))
	n := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		n++
	}
	if it.Err() != nil || n != 20 {
		t.Fatalf("bounded walk = %d samples (%v), want 20", n, it.Err())
	}
}

func TestMeasurementsIterMissingSeries(t *testing.T) {
	mc := newMeasureFixture(t, 3)
	it := mc.Iter(context.Background(), "urn:nope", "temperature")
	if _, ok := it.Next(); ok {
		t.Fatal("iterator over a missing series yielded a sample")
	}
	if it.Err() == nil {
		t.Fatal("missing series produced no error")
	}
}

func TestMeasurementsNDJSONStream(t *testing.T) {
	mc := newMeasureFixture(t, 1200) // larger than one default page
	st, err := mc.Stream(context.Background(), measDevice, "temperature")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for {
		p, ok := st.Next()
		if !ok {
			break
		}
		if p.Device != measDevice || p.Value != float64(n) {
			t.Fatalf("row %d = %+v", n, p)
		}
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 1200 {
		t.Fatalf("streamed %d rows, want 1200", n)
	}
}

func TestMeasurementsCatalogAndAggregate(t *testing.T) {
	mc := newMeasureFixture(t, 10)
	series, err := mc.AllSeries(context.Background())
	if err != nil || len(series) != 1 {
		t.Fatalf("catalog = %+v (%v)", series, err)
	}
	if series[0].Device != measDevice || series[0].Samples != 10 {
		t.Fatalf("catalog entry = %+v", series[0])
	}

	agg, err := mc.Aggregate(context.Background(), measDevice, "temperature")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 10 || agg.Mean != 4.5 {
		t.Fatalf("aggregate = %+v", agg)
	}

	buckets, err := mc.Downsample(context.Background(), measDevice, "temperature", 5*time.Minute)
	if err != nil || len(buckets) != 2 {
		t.Fatalf("buckets = %+v (%v)", buckets, err)
	}

	latest, err := mc.Latest(context.Background(), measDevice, "temperature")
	if err != nil || latest.Value != 9 {
		t.Fatalf("latest = %+v (%v)", latest, err)
	}
}

func TestMeasurementsBatchQuery(t *testing.T) {
	mc := newMeasureFixture(t, 25)
	out, err := mc.Query(context.Background(), measuredb.BatchQuery{
		Selectors: []measuredb.SeriesSelector{
			{Device: "urn:district:turin/*", Quantity: "temperature"},
			{Device: "urn:ghost"},
		},
		Aggregate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Series != 1 {
		t.Fatalf("batch = %+v", out)
	}
	if agg := out.Results[0].Series[0].Aggregate; agg == nil || agg.Count != 25 {
		t.Fatalf("aggregate pushdown = %+v", out.Results[0])
	}
	if out.Results[1].Error == "" {
		t.Fatalf("miss selector = %+v", out.Results[1])
	}
}

func TestMeasurementsIterResumesFromCursor(t *testing.T) {
	mc := newMeasureFixture(t, 50)
	// Walk the first page by hand, then hand its cursor to Iter.
	page, err := mc.Samples(context.Background(), measDevice, "temperature", WithLimit(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Samples) != 20 || page.NextCursor == "" {
		t.Fatalf("first page = %d samples, cursor %q", len(page.Samples), page.NextCursor)
	}
	it := mc.Iter(context.Background(), measDevice, "temperature",
		WithLimit(20), WithCursor(page.NextCursor))
	var got []float64
	for p, ok := it.Next(); ok; p, ok = it.Next() {
		got = append(got, p.Value)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 || got[0] != 20 {
		t.Fatalf("resumed walk = %d samples starting at %v, want 30 starting at 20 (cursor ignored?)", len(got), got[0])
	}
}

// pageFailEngine's scans serve `good` pages of DefaultPageLimit rows
// in all, then fail: a later page of a streamed read that cannot be
// served.
type pageFailEngine struct {
	tsdb.Engine
	good atomic.Int32
}

func (e *pageFailEngine) Scan(key tsdb.SeriesKey, from, to time.Time, cur tsdb.Cursor) tsdb.Iterator {
	return &pageFailIter{Iterator: e.Engine.Scan(key, from, to, cur), good: &e.good}
}

// pageFailIter takes one of good's pages at every DefaultPageLimit
// rows, and fails once none is left.
type pageFailIter struct {
	tsdb.Iterator
	good *atomic.Int32
	rows int
	err  error
}

func (it *pageFailIter) Next() (tsdb.Sample, bool) {
	if it.err == nil && it.rows%tsdb.DefaultPageLimit == 0 && it.good.Add(-1) < 0 {
		it.err = errors.New("injected: series dropped mid-read")
	}
	if it.err != nil {
		return tsdb.Sample{}, false
	}
	it.rows++
	return it.Iterator.Next()
}

func (it *pageFailIter) Err() error {
	if it.err != nil {
		return it.err
	}
	return it.Iterator.Err()
}

// TestStreamCutMidWayIsAnError: a node whose second page fails delivers
// the first page's rows and then an error — never a short clean end.
func TestStreamCutMidWayIsAnError(t *testing.T) {
	eng := &pageFailEngine{Engine: tsdb.NewSharded(tsdb.ShardedOptions{})}
	svc := measuredb.New(measuredb.Options{Engine: eng})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	for i := 0; i < tsdb.DefaultPageLimit+200; i++ {
		key := tsdb.SeriesKey{Device: measDevice, Quantity: "temperature"}
		if err := eng.Append(key, tsdb.Sample{At: m0.Add(time.Duration(i) * time.Minute), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	eng.good.Store(1)
	st, err := (&Client{MasterURL: "http://unused/"}).Measurements(ts.URL).Stream(context.Background(), measDevice, "temperature")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for p, ok := st.Next(); ok; p, ok = st.Next() {
		if p.Device != measDevice || p.Value != float64(n) {
			t.Fatalf("row %d = %+v", n, p)
		}
		n++
	}
	if n != tsdb.DefaultPageLimit || st.Err() == nil {
		t.Fatalf("streamed %d rows, Err() = %v; want the first page's %d and an error", n, st.Err(), tsdb.DefaultPageLimit)
	}
}

// TestStreamCutBetweenAndInsideRows: whatever cuts the response — an
// aborted connection or a body that just ends — after a whole row or
// inside one, the rows before the cut are delivered and a cut that
// left a row unfinished, or a connection unfinished, is an error.
func TestStreamCutBetweenAndInsideRows(t *testing.T) {
	const row = `{"device":"urn:d","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20.25}` + "\n"
	for _, tc := range []struct {
		name    string
		body    string
		abort   bool
		wantErr bool
	}{
		{"abort between rows", row + row + row, true, true},
		{"abort inside a row", row + row + row + row[:40], true, true},
		{"end inside a row", row + row + row + row[:40], false, true},
		{"end between rows", row + row + row, false, false},
		{"end after a row without newline", row + row + row[:len(row)-1], false, false},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", measuredb.NDJSONType)
			_, _ = io.WriteString(w, tc.body)
			if tc.abort {
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			}
		}))
		st, err := (&Client{MasterURL: "http://unused/"}).Measurements(ts.URL).Stream(context.Background(), "urn:d", "temperature")
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		n := 0
		for p, ok := st.Next(); ok; p, ok = st.Next() {
			if p.Device != "urn:d" || p.Value != 20.25 {
				t.Fatalf("%s: row %d = %+v", tc.name, n, p)
			}
			n++
		}
		if n != 3 || (st.Err() != nil) != tc.wantErr {
			t.Errorf("%s: %d rows, Err() = %v; want 3 rows, error %v", tc.name, n, st.Err(), tc.wantErr)
		}
		if _, ok := st.Next(); ok {
			t.Errorf("%s: a row after the end", tc.name)
		}
		st.Close()
		if _, ok := st.Next(); ok {
			t.Errorf("%s: a row after Close", tc.name)
		}
		ts.Close()
	}
}

// TestSamplesPageFallsBackToEncodingJSON: a page no server here writes
// (folded keys, an escaped name, an unknown field) still decodes, by
// json.Unmarshal, and a broken one fails with its words.
func TestSamplesPageFallsBackToEncodingJSON(t *testing.T) {
	body := `{"Device":"a<b","quantity":"q","note":1,"samples":[{"at":"2015-03-09T10:00:00+01:00","value":1e0}],"count":1}`
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { _, _ = io.WriteString(w, body) }))
	defer ts.Close()
	mc := (&Client{MasterURL: "http://unused/", MaxAttempts: 1}).Measurements(ts.URL)
	page, err := mc.Samples(context.Background(), "a<b", "q")
	if err != nil || page.Device != "a<b" || page.Count != 1 || len(page.Samples) != 1 || !page.Samples[0].At.Equal(m0.Add(-time.Hour)) {
		t.Fatalf("page = %+v, %v", page, err)
	}
	body = `{"device":"d","samples":[{"at":"yesterday","value":1}]}`
	var want measuredb.SamplesPage
	wantErr := json.Unmarshal([]byte(body), &want)
	if _, err := mc.Samples(context.Background(), "d", "q"); wantErr == nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("broken page: %v, want json.Unmarshal's %v", err, wantErr)
	}
}
