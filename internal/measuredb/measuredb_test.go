package measuredb

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/middleware"
	"repro/internal/tsdb"
)

var t0 = time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)

func sampleMeasurement(i int) dataformat.Measurement {
	return dataformat.Measurement{
		Source:    "http://devproxy/",
		Device:    v2Device,
		Quantity:  dataformat.Temperature,
		Unit:      dataformat.Celsius,
		Value:     20 + float64(i),
		Timestamp: t0.Add(time.Duration(i) * time.Minute),
	}
}

func TestIngestAndQueryDirect(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 10; i++ {
		seed(t, s, sampleMeasurement(i))
	}
	st := s.Stats()
	if st.Ingested != 10 || st.Store.Samples != 10 || st.Store.Series != 1 {
		t.Errorf("Stats = %+v", st)
	}
	// A row naming no series is rejected in the envelope and counted.
	if code, body := postIngest(t, ts.URL, "application/json", "", `{"rows":[{"value":1}]}`); code != http.StatusOK {
		t.Fatalf("invalid row: %d %s", code, body)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Ingested != 10 {
		t.Errorf("after invalid row: %+v", st)
	}
}

func TestTopicConstruction(t *testing.T) {
	got := Topic("urn:district:turin/building:b01/device:t-1", dataformat.Temperature)
	want := "measurements/turin/building:b01/device:t-1/temperature"
	if got != want {
		t.Errorf("Topic = %q, want %q", got, want)
	}
	if err := middleware.ValidateTopic(got); err != nil {
		t.Errorf("topic invalid for middleware: %v", err)
	}
	// Weird URIs never produce wildcard segments.
	got = Topic("urn:district:x/+/#//", dataformat.CO2)
	if err := middleware.ValidateTopic(got); err != nil {
		t.Errorf("sanitization failed: %q %v", got, err)
	}
}

func newTestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s := New(Options{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

// temperatureURL is a /v2 resource of v2Device's temperature series.
func temperatureURL(base, leaf string) string {
	return base + "/v2/series/" + url.PathEscape(v2Device) + "/temperature/" + leaf
}

func TestQueryEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 30; i++ {
		seed(t, s, sampleMeasurement(i))
	}
	u := temperatureURL(ts.URL, "samples") + fmt.Sprintf("?from=%s&to=%s",
		url.QueryEscape(t0.Add(5*time.Minute).Format(time.RFC3339)),
		url.QueryEscape(t0.Add(9*time.Minute).Format(time.RFC3339)))
	var page SamplesPage
	if code := getJSON(t, u, &page); code != http.StatusOK {
		t.Fatalf("samples = %d", code)
	}
	if len(page.Samples) != 5 || page.NextCursor != "" {
		t.Fatalf("samples = %d (next %q), want 5", len(page.Samples), page.NextCursor)
	}
	if page.Samples[0].Value != 25 || !page.Samples[0].At.Equal(t0.Add(5*time.Minute)) {
		t.Errorf("first = %+v", page.Samples[0])
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t)
	ghost := ts.URL + "/v2/series/x/temperature/"
	for _, tc := range []struct {
		url  string
		want int
	}{
		{ghost + "samples", http.StatusNotFound},
		{ghost + "samples?from=garbage", http.StatusBadRequest},
		{ghost + "latest", http.StatusNotFound},
		{ghost + "aggregate", http.StatusNotFound},
		{ghost + "aggregate?to=garbage", http.StatusBadRequest},
	} {
		if code := getJSON(t, tc.url, nil); code != tc.want {
			t.Errorf("%s = %d, want %d", tc.url, code, tc.want)
		}
	}
}

func TestLatestEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 5; i++ {
		seed(t, s, sampleMeasurement(i))
	}
	// The latest sample is a common-format document, negotiated like
	// every other document route.
	for _, enc := range []dataformat.Encoding{dataformat.JSON, dataformat.XML} {
		doc, err := (&api.Transport{}).GetDoc(context.Background(), temperatureURL(ts.URL, "latest"), enc)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Measurement == nil || doc.Measurement.Value != 24 || doc.Measurement.Unit != dataformat.Celsius {
			t.Errorf("%s latest = %+v", enc.ContentType(), doc.Measurement)
		}
	}
}

func TestSeriesEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	m := sampleMeasurement(0)
	m2 := m
	m2.Quantity = dataformat.Humidity
	m3 := m
	m3.Device = "urn:district:turin/building:b02/device:x"
	seed(t, s, m, m2, m3)

	var all SeriesPage
	if code := getJSON(t, ts.URL+"/v2/series", &all); code != http.StatusOK || all.Count != 3 {
		t.Fatalf("series = %d %+v", code, all)
	}
	var one SeriesPage
	if code := getJSON(t, ts.URL+"/v2/series?device="+url.QueryEscape(m.Device), &one); code != http.StatusOK {
		t.Fatalf("device series = %d", code)
	}
	if one.Count != 2 || one.Series[0].Quantity != "humidity" || one.Series[0].Samples != 1 {
		t.Errorf("device series = %+v", one)
	}
}

func TestAggregateEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	for i := 0; i < 10; i++ {
		seed(t, s, sampleMeasurement(i)) // values 20..29
	}
	u := temperatureURL(ts.URL, "aggregate")
	var agg AggregateResponse
	if code := getJSON(t, u, &agg); code != http.StatusOK {
		t.Fatalf("aggregate = %d", code)
	}
	if agg.Count != 10 || agg.Min != 20 || agg.Max != 29 || agg.Mean != 24.5 {
		t.Errorf("aggregate = %+v", agg)
	}

	// Downsampled buckets.
	var buckets []tsdb.Bucket
	if code := getJSON(t, u+"?window=5m", &buckets); code != http.StatusOK {
		t.Fatalf("windowed aggregate = %d", code)
	}
	if len(buckets) != 2 || buckets[0].Count != 5 {
		t.Errorf("buckets = %+v", buckets)
	}
	if code := getJSON(t, u+"?window=banana", nil); code != http.StatusBadRequest {
		t.Errorf("bad window = %d", code)
	}
}

func TestServeAndClose(t *testing.T) {
	s := New(Options{})
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	s.Close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("server alive after Close")
	}
}
