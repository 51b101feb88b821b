package client

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/measuredb"
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
