package client

import (
	"bytes"
	"context"
	"flag"
	"io"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/measuredb"
)

// The goldens under testdata were written with -update by the commit
// before the client and the node's samples page left encoding/json
// (PR 23: json.Marshal(IngestBatch) on the client, api.WriteJSON over a
// SamplesPage on the node). This file uses only what both sides have —
// Ingest.Append, AppendSeries, the /v2 samples route — so it runs
// unchanged on either and pins that neither body moved by a byte.
var update = flag.Bool("update", false, "rewrite the testdata goldens from this tree")

// goldenRows is the fixed input: every shape the row encoder
// distinguishes (escapes and non-ASCII in names, omitted names, whole-
// and sub-second UTC times, a zone offset, the zero time, both float
// notations, negative zero).
func goldenRows() []measuredb.Point {
	at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	return []measuredb.Point{
		{Device: "urn:district:turin/building:b00/device:d00", Quantity: "temperature", At: at, Value: 21.5},
		{Device: "urn:district:turin/building:b00/device:d00", Quantity: "temperature", At: at.Add(time.Minute + 120*time.Millisecond), Value: -273.15},
		{Device: "urn:distretto:torino/edificio:più/<a>&\"b\"\\/line sep", Quantity: "umidità\t%", At: at.Add(123456789), Value: 1e-7},
		{Device: "bad\xffutf8", Quantity: "q", At: time.Date(2015, 3, 9, 12, 0, 0, 250000000, time.FixedZone("CET", 3600)), Value: 1e21},
		{At: at.Add(2 * time.Minute), Value: math.Copysign(0, -1)},
		{Device: "d", Quantity: "q", Value: 0.1234567890123456},
		{Device: "d", Quantity: "q", At: time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC), Value: math.MaxFloat64},
	}
}

// bodyRecorder keeps the request bodies that pass through it.
type bodyRecorder struct {
	next   http.RoundTripper
	bodies [][]byte
}

func (r *bodyRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		raw, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		r.bodies = append(r.bodies, raw)
		req.Body = io.NopCloser(bytes.NewReader(raw))
	}
	return r.next.RoundTrip(req)
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s moved:\ngot:  %q\nwant: %q", name, got, want)
	}
}

// TestClientBodiesAndSamplesPageGolden pins the bytes Ingest.Append and
// AppendSeries put on the wire and the JSON samples pages a node
// answers with (a cut page with its cursor, an empty one).
func TestClientBodiesAndSamplesPageGolden(t *testing.T) {
	_, ts := newEmptyMeasureService(t)
	rec := &bodyRecorder{next: http.DefaultTransport}
	c := &Client{MasterURL: "http://unused/", HTTP: &http.Client{Transport: rec}}
	ctx := context.Background()
	rows := goldenRows()
	if _, err := c.Ingest(ts.URL).Append(ctx, rows); err != nil {
		t.Fatal(err)
	}
	series := make([]measuredb.Point, 5)
	for i := range series {
		series[i] = measuredb.Point{At: rows[0].At.Add(time.Duration(i) * 1500 * time.Millisecond), Value: float64(i) / 8}
	}
	device, quantity := rows[2].Device, rows[2].Quantity
	if res, err := c.Ingest(ts.URL).AppendSeries(ctx, device, quantity, series); err != nil || res.Accepted != len(series) {
		t.Fatalf("append series: %+v, %v", res, err)
	}
	if len(rec.bodies) != 2 {
		t.Fatalf("recorded %d request bodies, want 2", len(rec.bodies))
	}
	checkGolden(t, "append_body.golden", rec.bodies[0])
	checkGolden(t, "append_series_body.golden", rec.bodies[1])

	page := func(query string) []byte {
		u := ts.URL + "/v2/series/" + url.PathEscape(device) + "/" + url.PathEscape(quantity) + "/samples?" + query
		rsp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer rsp.Body.Close()
		raw, err := io.ReadAll(rsp.Body)
		if err != nil || rsp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d, %v: %s", u, rsp.StatusCode, err, raw)
		}
		return raw
	}
	checkGolden(t, "samples_page.golden", page("limit=4"))
	checkGolden(t, "samples_page_empty.golden", page("from=2016-01-01T00:00:00Z&to=2016-01-02T00:00:00Z"))
}
