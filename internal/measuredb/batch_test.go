package measuredb

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/dataformat"
	"repro/internal/jsonwire"
	"repro/internal/master"
	"repro/internal/tsdb"
)

// The goldens under testdata/batch were written with -update by the
// commit before /v2/query's two batch writers replaced encoding/json
// (api.WriteJSON over a BatchResponse, json.Encoder over BatchRows) on
// the node. This test posts only what both trees serve, so it runs
// unchanged on either and pins that no batch byte moved.
var update = flag.Bool("update", false, "rewrite the testdata goldens from this tree")

// escapeDevice carries what a JSON string encoder must escape: quotes,
// a backslash, the HTML set, a tab, non-ASCII and U+2028.
const escapeDevice = "urn:district:t/<b>&\"più\"\\\t /d1"

// batchGoldenNode seeds one node with every shape the batch wire has:
// a long series for truncation and windows, a short second quantity,
// both escape-heavy device names, and values in both float notations.
func batchGoldenNode(t *testing.T) http.Handler {
	t.Helper()
	s, _ := newTestServer(t)
	fillSeries(t, s, v2Device, "temperature", 12)
	fillSeries(t, s, v2Device, "humidity", 3)
	fillSeries(t, s, trickyDevice, "temperature", 2)
	for i, v := range []float64{-273.15, 1e-7, 1e21, 0.1234567890123456} {
		seed(t, s, dataformat.Measurement{Device: escapeDevice, Quantity: "umidità",
			Timestamp: t0.Add(time.Duration(i)*time.Minute + 123456789), Value: v})
	}
	return s.Handler()
}

// batchGoldenCases is one request per batch mode; each is asked as JSON
// and as NDJSON.
var batchGoldenCases = []struct{ name, body string }{
	{"raw_truncated", `{"selectors":[{"device":"` + v2Device + `","quantity":"temperature"},{"device":"urn:district:*","quantity":"temperature"}],"limit":4}`},
	{"raw_whole", `{"selectors":[{"device":"urn:district:*"}]}`},
	{"aggregate", `{"selectors":[{"device":"*"}],"aggregate":true}`},
	{"window", `{"selectors":[{"device":"` + v2Device + `"}],"window":"5m"}`},
	{"latest", `{"selectors":[{"device":"*"},{"device":"urn:nothing"}],"latest":true}`},
	{"no_match", `{"selectors":[{"device":"urn:nothing/*"},{"device":"` + v2Device + `","quantity":"temperature"},{"device":"urn:nothing","quantity":"q"}],"limit":1}`},
	{"zero_in_range", `{"selectors":[{"device":"` + v2Device + `"}],"from":"2016-01-01T00:00:00Z","to":"2016-01-02T00:00:00Z"}`},
	{"zero_in_range_aggregate", `{"selectors":[{"device":"` + v2Device + `"}],"from":"2016-01-01T00:00:00Z","to":"2016-01-02T00:00:00Z","aggregate":true}`},
	{"zero_in_range_window", `{"selectors":[{"device":"` + v2Device + `"}],"from":"2016-01-01T00:00:00Z","to":"2016-01-02T00:00:00Z","window":"1h"}`},
	{"escapes", `{"selectors":[{"device":"urn:district:t/*"},{"device":"urn:district:t/<b>*"}],"limit":3}`},
}

// postBatch asks h for one batch in the given encoding.
func postBatch(t *testing.T, h http.Handler, body, encoding string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v2/query?encoding="+encoding, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s (%s) = %d: %s", body, encoding, rec.Code, rec.Body)
	}
	return rec
}

func TestV2QueryBatchGoldens(t *testing.T) {
	h := batchGoldenNode(t)
	for _, c := range batchGoldenCases {
		for _, enc := range []string{"json", "ndjson"} {
			checkBatchGolden(t, c.name+"."+enc, postBatch(t, h, c.body, enc).Body.Bytes())
		}
	}
}

func checkBatchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "batch", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
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

// renderBatchJSON writes results through batchJSON, totals included, as
// a node or the coordinator answers them.
func renderBatchJSON(results []BatchResult) []byte {
	j := newBatchJSON(len(results))
	defer j.release()
	for i := range results {
		j.selector(i, results[i].Selector)
		for k := range results[i].Series {
			j.series(&results[i].Series[k])
		}
		j.end(results[i].Error)
	}
	return bytes.Clone(j.b)
}

// The coordinator and the Go client read /v2/query answers in place:
// what batchJSON writes over plain names must never drop to the
// encoding/json fallback, which would give the saving away while every
// oracle stays green. One answer per mode, then every golden: each
// decodes to what json.Unmarshal gives and re-renders to its own bytes,
// and only the goldens whose names the writer escapes (or that carry a
// window's buckets) fall back.
func TestBatchAnswersDecodeInPlace(t *testing.T) {
	const dev = "urn:district:turin/building:b01/device:t-1"
	at := time.Date(2015, 3, 9, 10, 0, 0, 123456789, time.UTC)
	rows := []Point{{At: at, Value: 21.25}, {At: at.Add(time.Minute), Value: -0.1}, {At: at.Add(2 * time.Minute), Value: 1e21}}
	sel := SeriesSelector{Device: "urn:district:turin/*", Quantity: "temperature"}
	for _, c := range []struct {
		name    string
		results []BatchResult
	}{
		{"raw", []BatchResult{{Selector: sel, Series: []BatchSeries{{Device: dev, Quantity: "temperature", Samples: rows}}}}},
		{"truncated", []BatchResult{{Selector: sel, Series: []BatchSeries{{Device: dev, Quantity: "temperature", Samples: rows[:2], Truncated: true}}}}},
		{"aggregate", []BatchResult{{Selector: sel, Series: []BatchSeries{{Device: dev, Quantity: "temperature",
			Aggregate: &AggregateResponse{Device: dev, Quantity: "temperature", Count: 3, Min: -0.1, Max: 1e21, Mean: 1.0 / 3, Sum: 21.15}}}}}},
		{"latest", []BatchResult{{Selector: SeriesSelector{Device: dev}, Series: []BatchSeries{{Device: dev, Quantity: "humidity", Samples: rows[2:]}, {Device: dev, Quantity: "temperature", Samples: rows[:1]}}}}},
		{"no match", []BatchResult{{Selector: SeriesSelector{Device: "urn:nothing/*"}, Error: noMatch}, {Selector: sel, Series: []BatchSeries{{Device: dev, Quantity: "temperature"}}}}},
		{"read error", []BatchResult{{Selector: sel, Series: []BatchSeries{{Device: dev, Quantity: "temperature", Samples: rows[:1]}}, Error: "tsdb: no such series"}}},
	} {
		if !checkBatchResponseOracle(t, renderBatchJSON(c.results)) {
			t.Errorf("%s: the answer batchJSON writes fell back to encoding/json:\n%s", c.name, renderBatchJSON(c.results))
		}
	}

	fallsBack := map[string]bool{"aggregate": true, "escapes": true, "latest": true, "raw_truncated": true, "raw_whole": true, "window": true}
	goldens, err := filepath.Glob(filepath.Join("testdata", "batch", "*.json"))
	if err != nil || len(goldens) != 10 {
		t.Fatalf("%d batch goldens, %v", len(goldens), err)
	}
	for _, path := range goldens {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		if inPlace := checkBatchResponseOracle(t, raw); inPlace == fallsBack[name] {
			t.Errorf("%s: decoded in place = %v", name, inPlace)
		}
		var answer BatchResponse
		if err := DecodeBatchResponse(raw, &answer); err != nil {
			t.Fatal(err)
		}
		if got := renderBatchJSON(answer.Results); !bytes.Equal(got, raw) {
			t.Errorf("%s re-rendered:\ngot:  %s\nwant: %s", name, got, raw)
		}
	}
}

// A coordinator answers /v2/query with what one node holding every
// series would: a 2-node cluster and a single node ingest the same rows
// (spread over both nodes' shards), and for glob and exact selectors in
// every mode, as JSON and as NDJSON, the coordinator's bytes are the
// single node's.
func TestCoordinatorBatchMatchesOneNode(t *testing.T) {
	const shards = 4
	tc := newTestCluster(t, shards)
	single, _ := newTestServer(t)
	base := time.Now().UTC().Add(-3 * time.Hour).Truncate(time.Minute)
	var rows []Point
	devs := make([]string, shards) // shards 0 and 2 on node 0, 1 and 3 on node 1
	for s := range devs {
		devs[s] = deviceInShard(s, shards)
		for j := 0; j < 30; j++ {
			at := base.Add(time.Duration(j) * time.Minute)
			rows = append(rows, Point{Device: devs[s], Quantity: "temperature", At: at, Value: float64(s*100+j) + 0.25})
			if j%3 == s%3 {
				rows = append(rows, Point{Device: devs[s], Quantity: "humidity", At: at, Value: float64(j) / 3})
			}
		}
	}
	for _, h := range []http.Handler{tc.coord.Handler(), single.Handler()} {
		body, _ := json.Marshal(IngestBatch{Rows: rows})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/ingest", bytes.NewReader(body)))
		if !strings.Contains(rec.Body.String(), fmt.Sprintf(`"accepted":%d,`, len(rows))) {
			t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
		}
	}
	for _, n := range tc.nodes {
		if n.Stats().Store.Samples == 0 {
			t.Fatal("a node holds nothing: the oracle would not cross nodes")
		}
	}

	sels, _ := json.Marshal([]SeriesSelector{
		{Device: "urn:district:t/*"}, {Device: "urn:district:t/*", Quantity: "temp*"},
		{Device: devs[1], Quantity: "temperature"}, {Device: devs[2]},
		{Device: "urn:nothing/*"}, {Device: "urn:nothing", Quantity: "q"},
	})
	from, to := base.Format(time.RFC3339), base.Add(time.Hour).Format(time.RFC3339)
	for _, mode := range []struct{ name, fields string }{
		{"raw truncated", `"limit":7`},
		{"raw whole", `"from":"` + from + `"`},
		{"aggregate", `"aggregate":true`},
		{"window", `"from":"` + from + `","to":"` + to + `","window":"10m"`},
		{"latest", `"latest":true`},
		{"zero in range", `"from":"2016-01-01T00:00:00Z","to":"2016-01-02T00:00:00Z"`},
	} {
		body := `{"selectors":` + string(sels) + `,` + mode.fields + `}`
		for _, enc := range []string{"json", "ndjson"} {
			want := postBatch(t, single.Handler(), body, enc).Body.Bytes()
			if got := postBatch(t, tc.coord.Handler(), body, enc).Body.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("%s (%s): coordinator\n%s\nsingle node\n%s", mode.name, enc, got, want)
			}
		}
	}
}

// For a selector with matched series and a read error, the coordinator
// streams the series' rows, then the error row — the JSON form's
// error, not instead of the series.
func TestCoordinatorBatchNDJSONKeepsSeriesBesideAnError(t *testing.T) {
	answer, _ := json.Marshal(BatchResponse{Results: []BatchResult{{
		Selector: SeriesSelector{Device: "urn:*"},
		Series: []BatchSeries{
			{Device: "urn:a", Quantity: "t", Samples: []Point{{At: t0, Value: 1}}},
			{Device: "urn:b", Quantity: "t", Samples: []Point{{At: t0, Value: 2}, {At: t0.Add(time.Minute), Value: 3}}},
		},
		Error: "tsdb: no such series",
	}}, Series: 2, Samples: 3})
	coord := stubCoordinator(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(append(answer, '\n'))
	}))
	body := []byte(`{"selectors":[{"device":"urn:*"}]}`)
	_, got := fetchWire(t, "POST", coord+"/v2/query?encoding=ndjson", "identity", "", body)
	want := `{"selector":0,"device":"urn:a","quantity":"t","at":"2015-03-09T10:00:00Z","value":1}
{"selector":0,"device":"urn:b","quantity":"t","at":"2015-03-09T10:00:00Z","value":2}
{"selector":0,"device":"urn:b","quantity":"t","at":"2015-03-09T10:01:00Z","value":3}
{"selector":0,"error":"tsdb: no such series"}
{"summary":true,"series":2,"samples":3}
`
	if string(got) != want {
		t.Fatalf("coordinator ndjson:\ngot:  %q\nwant: %q", got, want)
	}
	if _, got = fetchWire(t, "POST", coord+"/v2/query", "identity", "", body); string(got) != string(answer)+"\n" {
		t.Fatalf("coordinator json:\ngot:  %s\nwant: %s", got, answer)
	}
}

// One parse for /v2/query: a body the node refuses, the coordinator
// refuses with the same envelope.
func TestV2QueryBodySameOnNodeAndCoordinator(t *testing.T) {
	const shards = 4
	tc := newTestCluster(t, shards)
	sel := `{"selectors":[{"device":"` + deviceInShard(1, shards) + `"}]}`
	for _, c := range []struct {
		name, body string
		status     int
		msg        string
	}{
		{"trailing bytes", sel + ` trailing`, http.StatusBadRequest, "bad request body: invalid character 't' after top-level value"},
		{"second document", sel + sel, http.StatusBadRequest, "bad request body: invalid character '{' after top-level value"},
		{"trailing space", sel + " \n", http.StatusOK, ""},
		{"not json", `selectors`, http.StatusBadRequest, "bad request body: invalid character 's' looking for beginning of value"},
		{"empty", ``, http.StatusBadRequest, "bad request body: unexpected end of JSON input"},
	} {
		for _, srv := range []struct {
			name string
			h    http.Handler
		}{{"node", tc.nodes[1].Handler()}, {"coordinator", tc.coord.Handler()}} {
			rec := httptest.NewRecorder()
			srv.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/query", strings.NewReader(c.body)))
			var env api.Envelope
			if c.status != http.StatusOK {
				_ = json.Unmarshal(rec.Body.Bytes(), &env)
			}
			if rec.Code != c.status || env.Error != c.msg {
				t.Errorf("%s on the %s = %d %q, want %d %q", c.name, srv.name, rec.Code, env.Error, c.status, c.msg)
			}
		}
	}
}

// The catalog, a glob batch and the stats re-route like every other
// coordinator route: a first map naming a node that is gone is
// refreshed, the call counted against that node, and the answer served
// by the owner the new map names. The live node owned the other shard
// all along, so each probe asks it twice, and its answer still counts
// once: the glob's body is the live node's own, byte for byte, and the
// stats are its counters.
func TestCoordinatorReroutesSeriesAroundADeadNode(t *testing.T) {
	svc, live := newTestServer(t)
	fillSeries(t, svc, v2Device, "temperature", 2)
	// agg_glob's request: every temperature series of buildings b0*.
	const aggGlob = `{"selectors":[{"device":"urn:district:turin/building:b0*","quantity":"temperature"}],` +
		`"from":"2015-03-09T09:00:00Z","to":"2015-03-09T11:00:00Z","aggregate":true}`
	for _, p := range []struct {
		name, method, path, body string
		check                    func(t *testing.T, rec *httptest.ResponseRecorder)
	}{
		{"catalog", http.MethodGet, "/v2/series", "", func(t *testing.T, rec *httptest.ResponseRecorder) {
			var page SeriesPage
			if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil || rec.Code != http.StatusOK || page.Count != 1 {
				t.Fatalf("catalog through a stale map = %d %s", rec.Code, rec.Body)
			}
		}},
		{"glob aggregate", http.MethodPost, "/v2/query", aggGlob, func(t *testing.T, rec *httptest.ResponseRecorder) {
			want := postBatch(t, svc.Handler(), aggGlob, "json").Body.Bytes()
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("glob aggregate through a stale map = %d\n%s\nthe live node answers\n%s", rec.Code, rec.Body, want)
			}
		}},
		{"stats", http.MethodGet, "/v1/stats", "", func(t *testing.T, rec *httptest.ResponseRecorder) {
			var got Stats
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("stats through a stale map = %d %s", rec.Code, rec.Body)
			}
			want := svc.Stats()
			if got.Ingested != want.Ingested || got.Store.Series != want.Store.Series ||
				got.Store.Samples != want.Store.Samples || got.Store.Shards != 2 {
				t.Fatalf("stats = %+v, want the live node's %+v over 2 shards", got, want)
			}
		}},
	} {
		t.Run(p.name, func(t *testing.T) {
			dead := httptest.NewServer(http.NotFoundHandler())
			dead.Close()
			ms := master.New(master.Options{})
			addr, err := ms.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ms.Close)
			if _, err := ms.ClusterMap().Set(cluster.Map{Shards: 2, Owners: []string{live.URL, dead.URL}}); err != nil {
				t.Fatal(err)
			}
			c, err := OpenCoordinator(CoordinatorOptions{Master: "http://" + addr, Refresh: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			probe := func(method, path, body string) *httptest.ResponseRecorder {
				rec := httptest.NewRecorder()
				c.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
				return rec
			}
			if rec := probe(http.MethodGet, "/v1/cluster/map", ""); !strings.Contains(rec.Body.String(), dead.URL) {
				t.Fatalf("coordinator map = %s, want the dead node cached", rec.Body)
			}
			if _, err := ms.ClusterMap().Move(1, live.URL); err != nil {
				t.Fatal(err)
			}
			p.check(t, probe(p.method, p.path, p.body))
			retried := `repro_cluster_forward_retries_total{node="` + dead.URL + `",service="measuredb-coordinator"} 1`
			if !strings.Contains(probe(http.MethodGet, "/v1/metrics?format=prometheus", "").Body.String(), retried) {
				t.Fatalf("the re-route was not counted once against %s", dead.URL)
			}
		})
	}
}

// FuzzBatchJSON holds the JSON batch writer to json.Marshal of the same
// BatchResponse plus the newline json.Encoder ends it with: names with
// escapes and invalid UTF-8, any finite value, times from year 1 to 9999
// in any zone, every series shape, with and without a selector error.
func FuzzBatchJSON(f *testing.F) {
	f.Add("urn:d/*", "temperature", "urn:d/1", "t", int64(1425895200), int64(0), 0, math.Float64bits(21.5), uint8(0), "")
	f.Add("a<b>&\"c\"\\", "line\u2028sep\xff", "d\x00\x1f", "", int64(1425895200), int64(120000000), 5400, math.Float64bits(1e-7), uint8(9), noMatch)
	f.Add("", "", "", "q", int64(-62135596800), int64(1), -86399, math.Float64bits(1e21), uint8(1), "tsdb: no such series")
	f.Add("*", "*", "urn:d", "q", int64(253402300799), int64(999999999), 0, math.Float64bits(math.Copysign(0, -1)), uint8(2), "\xff")
	f.Add("*", "", "urn:d", "q", int64(0), int64(0), 0, math.Float64bits(math.MaxFloat64), uint8(3), "")
	f.Add("*", "", "urn:d", "q", int64(0), int64(0), 0, math.Float64bits(math.MaxFloat64), uint8(6), "")
	f.Add("*", "", "urn:d", "q", int64(0), int64(0), 0, math.Float64bits(-math.MaxFloat64), uint8(1), "")
	f.Add("*", "", "urn:d", "q", int64(0), int64(0), 0, uint64(1), uint8(4), "")
	f.Fuzz(func(t *testing.T, selDevice, selQuantity, device, quantity string, sec, nsec int64, zone int, bits uint64, mode uint8, errMsg string) {
		v := math.Float64frombits(bits)
		const minSec, span = -62135596800, 253402300800 + 62135596800 // years 1 … 9999
		at := time.Unix(minSec+(sec%span+span)%span, (nsec%1e9+1e9)%1e9).UTC()
		if zone != 0 {
			at = at.In(time.FixedZone("z", zone%(24*3600)))
		}
		// The series below also hold instants up to an hour after at.
		if math.IsNaN(v) || math.IsInf(v, 0) || !jsonwire.TimeOK(at) || !jsonwire.TimeOK(at.Add(time.Hour)) {
			t.Skip() // encoding/json refuses these; the store never holds them
		}
		bs := BatchSeries{Device: device, Quantity: quantity}
		switch mode % 5 {
		case 0: // raw
			bs.Samples = []Point{{At: at, Value: v}, {At: at.Add(time.Second), Value: -v}}
			bs.Truncated = mode&8 != 0
		case 1: // a sum past the float range is json.Marshal's to refuse
			bs.Aggregate = &AggregateResponse{Device: device, Quantity: quantity, Count: int(sec % 1000), Min: -v, Max: v, Mean: v / 2, Sum: v * float64(mode)}
		case 2:
			agg := tsdb.Aggregate{Count: 2, Min: v, Max: v, Sum: v, Mean: v / 2,
				First: tsdb.Sample{At: at, Value: v}, Last: tsdb.Sample{At: at.Add(time.Minute), Value: v}}
			bs.Buckets = []tsdb.Bucket{{Start: at, Aggregate: agg}, {Start: at.Add(time.Hour), Aggregate: agg}}
		case 3: // latest
			bs.Samples = []Point{{At: at, Value: v}}
		case 4: // matched, nothing in range
			bs.Samples = []Point{}
		}
		want := BatchResponse{Results: []BatchResult{
			{Selector: SeriesSelector{Device: selDevice, Quantity: selQuantity}, Series: []BatchSeries{bs, bs}, Error: errMsg},
			{Selector: SeriesSelector{Device: device}, Error: noMatch},
			{Selector: SeriesSelector{Device: device, Quantity: quantity}, Series: []BatchSeries{bs}},
		}}
		j := newBatchJSON(len(want.Results))
		for i := range want.Results {
			res := &want.Results[i]
			j.selector(i, res.Selector)
			for k := range res.Series {
				want.Series++
				want.Samples += res.Series[k].sampleCount()
				j.series(&res.Series[k])
			}
			j.end(res.Error)
		}
		raw, err := json.Marshal(want)
		if (err != nil) != (j.err != nil) {
			t.Fatalf("json.Marshal: %v, writer: %v", err, j.err)
		}
		if err == nil && string(j.b) != string(raw)+"\n" {
			t.Fatalf("response %+v:\nwriter:  %q\nmarshal: %q", want, j.b, raw)
		}
	})
}
