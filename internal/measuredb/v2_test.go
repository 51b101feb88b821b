package measuredb

import (
	"bytes"
	"encoding/json"
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
	"repro/internal/tsdb"
)

// seed stores measurements through the real write path — one POST
// /v2/ingest batch on the service's handler — and fails the test unless
// every row is accepted.
func seed(t testing.TB, s *Service, ms ...dataformat.Measurement) {
	t.Helper()
	batch := IngestBatch{Rows: make([]Point, len(ms))}
	for i, m := range ms {
		batch.Rows[i] = Point{Device: m.Device, Quantity: string(m.Quantity), At: m.Timestamp, Value: m.Value}
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/ingest", bytes.NewReader(body)))
	var res IngestResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || rec.Code != http.StatusOK || res.Accepted != len(ms) {
		t.Fatalf("seed: status %d, body %s (%v)", rec.Code, rec.Body, err)
	}
}

// fillSeries ingests n samples, one per minute from t0, for a device.
func fillSeries(t *testing.T, s *Service, device string, quantity dataformat.Quantity, n int) {
	t.Helper()
	ms := make([]dataformat.Measurement, n)
	for i := range ms {
		ms[i] = dataformat.Measurement{
			Source: "http://devproxy/", Device: device, Quantity: quantity,
			Unit: dataformat.Celsius, Value: float64(i),
			Timestamp: t0.Add(time.Duration(i) * time.Minute),
		}
	}
	seed(t, s, ms...)
}

// getJSON fetches a URL and decodes the JSON body into out, returning
// the status code.
func getJSON(t *testing.T, rawURL string, out any) int {
	t.Helper()
	rsp, err := http.Get(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	body, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && rsp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("undecodable body %q: %v", body, err)
		}
	}
	return rsp.StatusCode
}

const v2Device = "urn:district:turin/building:b01/device:t-1"

func samplesURL(base, device, quantity, query string) string {
	u := base + "/v2/series/" + url.PathEscape(device) + "/" + url.PathEscape(quantity) + "/samples"
	if query != "" {
		u += "?" + query
	}
	return u
}

func TestV2SamplesCursorRoundTrip(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, dataformat.Temperature, 95)

	var got []Point
	cursor := ""
	pages := 0
	for {
		q := "limit=20"
		if cursor != "" {
			q += "&cursor=" + url.QueryEscape(cursor)
		}
		var page SamplesPage
		if code := getJSON(t, samplesURL(ts.URL, v2Device, "temperature", q), &page); code != http.StatusOK {
			t.Fatalf("page %d = %d", pages, code)
		}
		if page.Device != v2Device || page.Quantity != "temperature" {
			t.Fatalf("page identity = %q %q", page.Device, page.Quantity)
		}
		got = append(got, page.Samples...)
		pages++
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(got) != 95 || pages != 5 {
		t.Fatalf("depaginated %d samples over %d pages, want 95 over 5", len(got), pages)
	}
	for i, p := range got {
		if p.Value != float64(i) {
			t.Fatalf("sample %d = %v (gap or duplicate)", i, p.Value)
		}
	}
}

func TestV2SamplesEmptyAndBoundaryPages(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, dataformat.Temperature, 40)

	// Exact boundary: limit == range size must finish in one page with
	// no cursor.
	var page SamplesPage
	if code := getJSON(t, samplesURL(ts.URL, v2Device, "temperature", "limit=40"), &page); code != http.StatusOK {
		t.Fatalf("boundary page = %d", code)
	}
	if page.Count != 40 || page.NextCursor != "" {
		t.Fatalf("boundary page: count %d cursor %q", page.Count, page.NextCursor)
	}

	// An empty window inside a stored series: empty page, no cursor.
	q := fmt.Sprintf("from=%s&to=%s",
		url.QueryEscape(t0.Add(24*time.Hour).Format(time.RFC3339)),
		url.QueryEscape(t0.Add(25*time.Hour).Format(time.RFC3339)))
	if code := getJSON(t, samplesURL(ts.URL, v2Device, "temperature", q), &page); code != http.StatusOK {
		t.Fatalf("empty window = %d", code)
	}
	if page.Count != 0 || len(page.Samples) != 0 || page.NextCursor != "" {
		t.Fatalf("empty window page = %+v", page)
	}

	// Unknown series and garbage cursors map to proper envelopes.
	if code := getJSON(t, samplesURL(ts.URL, "urn:nope", "temperature", ""), nil); code != http.StatusNotFound {
		t.Fatalf("unknown series = %d", code)
	}
	if code := getJSON(t, samplesURL(ts.URL, v2Device, "temperature", "cursor=%21garbage"), nil); code != http.StatusBadRequest {
		t.Fatalf("garbage cursor = %d", code)
	}
}

func TestV2SamplesCursorSurvivesStoreMutation(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, dataformat.Temperature, 50)

	var first SamplesPage
	if code := getJSON(t, samplesURL(ts.URL, v2Device, "temperature", "limit=20"), &first); code != http.StatusOK {
		t.Fatalf("first page = %d", code)
	}
	if first.NextCursor == "" {
		t.Fatal("first page has no cursor")
	}

	// Mutate the store between pages: 10 more samples land in range.
	for i := 50; i < 60; i++ {
		seed(t, s, dataformat.Measurement{
			Source: "x", Device: v2Device, Quantity: dataformat.Temperature,
			Unit: dataformat.Celsius, Value: float64(i),
			Timestamp: t0.Add(time.Duration(i) * time.Minute),
		})
	}

	got := append([]Point{}, first.Samples...)
	cursor := first.NextCursor
	for cursor != "" {
		var page SamplesPage
		q := "limit=20&cursor=" + url.QueryEscape(cursor)
		if code := getJSON(t, samplesURL(ts.URL, v2Device, "temperature", q), &page); code != http.StatusOK {
			t.Fatalf("resumed page = %d", code)
		}
		got = append(got, page.Samples...)
		cursor = page.NextCursor
	}
	if len(got) != 60 {
		t.Fatalf("mutated walk returned %d samples, want 60", len(got))
	}
	for i, p := range got {
		if p.Value != float64(i) {
			t.Fatalf("sample %d = %v", i, p.Value)
		}
	}
}

func TestV2SeriesCatalogPaginationAndGlobs(t *testing.T) {
	s, ts := newTestServer(t)
	for b := 0; b < 3; b++ {
		device := fmt.Sprintf("urn:district:turin/building:b%02d/device:d0", b)
		fillSeries(t, s, device, dataformat.Temperature, 2)
		fillSeries(t, s, device, dataformat.Humidity, 2)
	}

	var all []SeriesInfo
	cursor := ""
	for {
		u := ts.URL + "/v2/series?limit=4"
		if cursor != "" {
			u += "&cursor=" + url.QueryEscape(cursor)
		}
		var page SeriesPage
		if code := getJSON(t, u, &page); code != http.StatusOK {
			t.Fatalf("series page = %d", code)
		}
		all = append(all, page.Series...)
		if page.NextCursor == "" {
			break
		}
		cursor = page.NextCursor
	}
	if len(all) != 6 {
		t.Fatalf("catalog = %d series, want 6", len(all))
	}

	var filtered SeriesPage
	u := ts.URL + "/v2/series?device=" + url.QueryEscape("urn:district:turin/building:b01/*") + "&quantity=temperature"
	if code := getJSON(t, u, &filtered); code != http.StatusOK {
		t.Fatalf("filtered catalog = %d", code)
	}
	if filtered.Count != 1 || filtered.Series[0].Device != "urn:district:turin/building:b01/device:d0" {
		t.Fatalf("filtered catalog = %+v", filtered)
	}
}

func TestV2LatestAndAggregate(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, dataformat.Temperature, 10)

	base := ts.URL + "/v2/series/" + url.PathEscape(v2Device) + "/temperature"
	rsp, err := http.Get(base + "/latest")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(rsp.Body)
	rsp.Body.Close()
	doc, err := dataformat.Decode(body, dataformat.JSON)
	if err != nil || doc.Measurement == nil {
		t.Fatalf("latest doc: %v (%q)", err, body)
	}
	if doc.Measurement.Value != 9 {
		t.Fatalf("latest = %v", doc.Measurement.Value)
	}

	var agg AggregateResponse
	if code := getJSON(t, base+"/aggregate", &agg); code != http.StatusOK {
		t.Fatalf("aggregate = %d", code)
	}
	if agg.Count != 10 || agg.Min != 0 || agg.Max != 9 || agg.Mean != 4.5 {
		t.Fatalf("aggregate = %+v", agg)
	}

	var buckets []tsdb.Bucket
	if code := getJSON(t, base+"/aggregate?window=5m", &buckets); code != http.StatusOK {
		t.Fatalf("windowed aggregate = %d", code)
	}
	if len(buckets) != 2 || buckets[0].Count != 5 || buckets[1].Count != 5 {
		t.Fatalf("buckets = %+v", buckets)
	}
}

func TestV2BatchQueryMixedHitMiss(t *testing.T) {
	s, ts := newTestServer(t)
	for b := 0; b < 3; b++ {
		fillSeries(t, s, fmt.Sprintf("urn:district:turin/building:b%02d/device:d0", b), dataformat.Temperature, 20)
	}

	req := BatchQuery{
		Selectors: []SeriesSelector{
			{Device: "urn:district:turin/building:b00/device:d0", Quantity: "temperature"}, // exact hit
			{Device: "urn:district:turin/*", Quantity: "temperature"},                      // glob, 3 series
			{Device: "urn:district:turin/building:b00/device:d0"},                          // all quantities
			{Device: "urn:district:elsewhere/*"},                                           // miss
		},
		Limit: 5,
	}
	body, _ := json.Marshal(req)
	rsp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(rsp.Body)
		t.Fatalf("batch = %d: %s", rsp.StatusCode, raw)
	}
	var out BatchResponse
	if err := json.NewDecoder(rsp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 4 {
		t.Fatalf("results = %d", len(out.Results))
	}
	if n := len(out.Results[0].Series); n != 1 || out.Results[0].Error != "" {
		t.Fatalf("exact hit = %+v", out.Results[0])
	}
	if !out.Results[0].Series[0].Truncated || len(out.Results[0].Series[0].Samples) != 5 {
		t.Fatalf("limit pushdown = %+v", out.Results[0].Series[0])
	}
	if n := len(out.Results[1].Series); n != 3 {
		t.Fatalf("glob selector matched %d series", n)
	}
	if n := len(out.Results[2].Series); n != 1 {
		t.Fatalf("all-quantities selector matched %d series", n)
	}
	if out.Results[3].Error == "" || len(out.Results[3].Series) != 0 {
		t.Fatalf("miss selector = %+v", out.Results[3])
	}
	if out.Series != 5 || out.Samples != 25 {
		t.Fatalf("totals = %d series, %d samples", out.Series, out.Samples)
	}
}

// latest answers each matched series' freshest sample — one per series
// under a quantity-less selector — whatever range and limit say, and the
// JSON and NDJSON renderings agree.
func TestV2BatchQueryLatest(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, dataformat.Temperature, 7)
	fillSeries(t, s, v2Device, dataformat.Humidity, 4)
	req := BatchQuery{
		Selectors: []SeriesSelector{{Device: v2Device}, {Device: "urn:district:elsewhere/d"}},
		Latest:    true, From: t0, To: t0.Add(time.Minute), Limit: 1,
	}
	body, _ := json.Marshal(req)
	rsp, err := http.Post(ts.URL+"/v2/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out BatchResponse
	if err := json.NewDecoder(rsp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if len(out.Results) != 2 || len(out.Results[0].Series) != 2 || out.Results[1].Error == "" || out.Series != 2 || out.Samples != 2 {
		t.Fatalf("latest batch = %+v", out)
	}
	want := map[string]Point{ // fillSeries: sample i sits at t0+i·1m with value i
		"humidity":    {At: t0.Add(3 * time.Minute), Value: 3},
		"temperature": {At: t0.Add(6 * time.Minute), Value: 6},
	}
	for _, bs := range out.Results[0].Series {
		w := want[bs.Quantity]
		if len(bs.Samples) != 1 || bs.Truncated || !bs.Samples[0].At.Equal(w.At) || bs.Samples[0].Value != w.Value {
			t.Errorf("latest of %s = %+v, want %+v", bs.Quantity, bs, w)
		}
	}

	rsp, err = http.Post(ts.URL+"/v2/query?encoding=ndjson", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	dec := json.NewDecoder(rsp.Body)
	var rows []BatchRow
	for {
		var row BatchRow
		if err := dec.Decode(&row); err != nil {
			break
		}
		rows = append(rows, row)
	}
	// Two sample rows, the miss, and the summary trailer.
	if len(rows) != 4 || rows[2].Error == "" {
		t.Fatalf("ndjson latest = %+v", rows)
	}
	for _, row := range rows[:2] {
		if w := want[row.Quantity]; row.At == nil || !row.At.Equal(w.At) || *row.Value != w.Value {
			t.Errorf("ndjson latest of %s = %+v, want %+v", row.Quantity, row, w)
		}
	}
}

func TestV2BatchQueryAggregatePushdownManySelectors(t *testing.T) {
	s, ts := newTestServer(t)
	const devices = 120
	for d := 0; d < devices; d++ {
		fillSeries(t, s, fmt.Sprintf("urn:district:turin/building:b%03d/device:d0", d), dataformat.Temperature, 10)
	}
	req := BatchQuery{Aggregate: true}
	for d := 0; d < devices; d++ {
		req.Selectors = append(req.Selectors, SeriesSelector{
			Device:   fmt.Sprintf("urn:district:turin/building:b%03d/device:d0", d),
			Quantity: "temperature",
		})
	}
	body, _ := json.Marshal(req)
	rsp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	var out BatchResponse
	if err := json.NewDecoder(rsp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != devices || out.Series != devices {
		t.Fatalf("resolved %d results, %d series; want %d each", len(out.Results), out.Series, devices)
	}
	for i, res := range out.Results {
		if res.Error != "" || len(res.Series) != 1 || res.Series[0].Aggregate == nil {
			t.Fatalf("selector %d = %+v", i, res)
		}
		if agg := res.Series[0].Aggregate; agg.Count != 10 || agg.Mean != 4.5 {
			t.Fatalf("selector %d aggregate = %+v", i, agg)
		}
		if len(res.Series[0].Samples) != 0 {
			t.Fatalf("selector %d shipped raw samples despite pushdown", i)
		}
	}
	if out.Samples != devices*10 {
		t.Fatalf("aggregated sample total = %d", out.Samples)
	}
}

func TestV2BatchQueryWindowPushdownAndCaps(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, dataformat.Temperature, 30)

	req := BatchQuery{
		Selectors: []SeriesSelector{{Device: v2Device, Quantity: "temperature"}},
		Window:    "10m",
	}
	body, _ := json.Marshal(req)
	rsp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var out BatchResponse
	if err := json.NewDecoder(rsp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	if len(out.Results) != 1 || len(out.Results[0].Series) != 1 {
		t.Fatalf("window batch = %+v", out)
	}
	if n := len(out.Results[0].Series[0].Buckets); n != 3 {
		t.Fatalf("buckets = %d, want 3", n)
	}

	// Empty and oversized batches draw 400 envelopes.
	for _, bad := range []BatchQuery{
		{},
		{Selectors: make([]SeriesSelector, MaxBatchSelectors+1)},
		{Selectors: []SeriesSelector{{Device: "x"}}, Window: "bogus"},
		{Selectors: []SeriesSelector{{Device: "x"}}, Latest: true, Aggregate: true},
		{Selectors: []SeriesSelector{{Device: "x"}}, Latest: true, Window: "1m"},
	} {
		body, _ := json.Marshal(bad)
		rsp, err := http.Post(ts.URL+"/v2/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
		if rsp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad batch accepted: %d", rsp.StatusCode)
		}
	}
}

func TestV2SamplesNDJSONGolden(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, dataformat.Temperature, 3)

	req, _ := http.NewRequest(http.MethodGet, samplesURL(ts.URL, v2Device, "temperature", ""), nil)
	req.Header.Set("Accept", NDJSONType)
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if ct := rsp.Header.Get("Content-Type"); !strings.HasPrefix(ct, NDJSONType) {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(rsp.Body)
	want := `{"device":"urn:district:turin/building:b01/device:t-1","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":0}
{"device":"urn:district:turin/building:b01/device:t-1","quantity":"temperature","at":"2015-03-09T10:01:00Z","value":1}
{"device":"urn:district:turin/building:b01/device:t-1","quantity":"temperature","at":"2015-03-09T10:02:00Z","value":2}
`
	if string(body) != want {
		t.Fatalf("ndjson golden mismatch:\ngot:  %q\nwant: %q", body, want)
	}

	// The encoding query parameter selects NDJSON without an Accept header.
	rsp2, err := http.Get(samplesURL(ts.URL, v2Device, "temperature", "encoding=ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(rsp2.Body)
	rsp2.Body.Close()
	if string(body2) != want {
		t.Fatalf("encoding=ndjson mismatch: %q", body2)
	}
}

func TestV2SamplesCSVGolden(t *testing.T) {
	s, ts := newTestServer(t)
	fillSeries(t, s, v2Device, dataformat.Temperature, 2)

	rsp, err := http.Get(samplesURL(ts.URL, v2Device, "temperature", "encoding=csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if ct := rsp.Header.Get("Content-Type"); !strings.HasPrefix(ct, CSVType) {
		t.Fatalf("content type = %q", ct)
	}
	body, _ := io.ReadAll(rsp.Body)
	want := "device,quantity,at,value\n" +
		"urn:district:turin/building:b01/device:t-1,temperature,2015-03-09T10:00:00Z,0\n" +
		"urn:district:turin/building:b01/device:t-1,temperature,2015-03-09T10:01:00Z,1\n"
	if string(body) != want {
		t.Fatalf("csv golden mismatch:\ngot:  %q\nwant: %q", body, want)
	}
}

func TestV2RateLimitTiers(t *testing.T) {
	// A frozen clock: no token refills however slowly the runner gets
	// from one request to the next.
	frozen := func() time.Time { return time.Unix(0, 0) }
	readRL := api.NewRateLimiter(1000, 2).WithClock(frozen)
	batchRL := api.NewRateLimiter(1000, 1).WithClock(frozen)
	s := New(Options{ReadLimiter: readRL, BatchLimiter: batchRL})
	defer s.Close()
	fillSeries(t, s, v2Device, dataformat.Temperature, 5)
	h := s.Handler()

	do := func(method, target, body string) int {
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, _ := http.NewRequest(method, target, rd)
		req.RemoteAddr = "10.1.2.3:999"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	// The batch tier (burst 1) trips independently of the read tier.
	batchBody := `{"selectors":[{"device":"` + v2Device + `","quantity":"temperature"}]}`
	if code := do(http.MethodPost, "/v2/query", batchBody); code != http.StatusOK {
		t.Fatalf("first batch = %d", code)
	}
	if code := do(http.MethodPost, "/v2/query", batchBody); code != http.StatusTooManyRequests {
		t.Fatalf("second batch = %d, want 429", code)
	}
	target := "/v2/series/" + url.PathEscape(v2Device) + "/temperature/samples"
	if code := do(http.MethodGet, target, ""); code != http.StatusOK {
		t.Fatalf("read after batch trip = %d (tiers not independent)", code)
	}

	// Tier stats surface in /v1/metrics.
	req, _ := http.NewRequest(http.MethodGet, "/v1/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var snap api.MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	tiers := map[string]api.LimiterStats{}
	for _, l := range snap.Limiters {
		tiers[l.Tier] = l
	}
	if tiers["batch"].Rejected != 1 || tiers["batch"].Allowed != 1 {
		t.Fatalf("batch tier stats = %+v", tiers["batch"])
	}
	if tiers["read"].Allowed == 0 || tiers["read"].Rejected != 0 {
		t.Fatalf("read tier stats = %+v", tiers["read"])
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"*", "anything", true},
		{"urn:district:turin/*", "urn:district:turin/building:b01/device:d0", true},
		{"urn:district:turin/*", "urn:district:milan/building:b01", false},
		{"*d0", "urn:x/device:d0", true},
		{"a*c*e", "abcde", true},
		{"a*c*e", "abde", false},
		{"", "", true},
		{"*", "", true},
		// A literal '*' in the subject must not swallow the pattern's
		// wildcard (regression: the literal case used to win the tie).
		{"a*", "a*b", true},
		{"*abc", "*Zabc", true},
		{"a*b", "a*", false},
	}
	for _, c := range cases {
		if got := globMatch(c.pattern, c.s); got != c.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}
