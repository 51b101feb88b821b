package measuredb

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/tsdb"
)

// trickyDevice spells a page's last field inside a device name: it has
// to survive path escaping on both hops and come back byte-identical.
const trickyDevice = `urn:district:t/b","next_cursor":"QUJD"}/d0`

// fetchWire performs one request without transparent decompression and
// returns the response plus its decoded body.
func fetchWire(t *testing.T, method, target, acceptEncoding, accept string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, target, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", acceptEncoding)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	rsp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	var rd io.Reader = rsp.Body
	if rsp.Header.Get("Content-Encoding") == "gzip" {
		if rd, err = gzip.NewReader(rsp.Body); err != nil {
			t.Fatal(err)
		}
	}
	decoded, err := io.ReadAll(rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, target, err)
	}
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d: %s", method, target, rsp.StatusCode, decoded)
	}
	return rsp, decoded
}

// Every /v2 read route must decode to the same bytes whether it is
// asked of the owner node or of the coordinator, gzip-coded or not —
// a JSON sample page's next_cursor included: the coordinator relays the
// node's cursor, it does not mint its own.
func TestWireEquivalenceAcrossHopsAndCodings(t *testing.T) {
	const shards, rows = 4, 2500
	tc := newTestCluster(t, shards)
	base := time.Now().UTC().Add(-2 * time.Hour).Truncate(time.Second)
	devices := []string{deviceInShard(1, shards), trickyDevice}
	for _, dev := range devices {
		batch := IngestBatch{Rows: make([]Point, rows)}
		for i := range batch.Rows {
			batch.Rows[i] = Point{Device: dev, Quantity: "temperature",
				At: base.Add(time.Duration(i) * time.Second), Value: float64(i%97) + 0.25}
		}
		var res IngestResult
		if status, _ := postJSON(t, tc.coordURL+"/v2/ingest", nil, batch, &res); status != http.StatusOK || res.Accepted != rows {
			t.Fatalf("ingest %q: status=%d res=%+v", dev, status, res)
		}
	}
	m, err := tc.coord.resolve(t.Context())
	if err != nil {
		t.Fatal(err)
	}

	for _, dev := range devices {
		series := "/v2/series/" + url.PathEscape(dev) + "/temperature"
		sels := []SeriesSelector{{Device: dev, Quantity: "temperature"}}
		query, _ := json.Marshal(BatchQuery{Selectors: sels, Limit: 50})
		// Ten selectors carry the one-row-per-series modes past the 1 KiB
		// compression floor on both hops.
		for len(sels) < 10 {
			sels = append(sels, sels[0])
		}
		queryAgg, _ := json.Marshal(BatchQuery{Selectors: sels, Aggregate: true})
		queryLatest, _ := json.Marshal(BatchQuery{Selectors: sels, Latest: true})
		for _, rt := range []struct {
			name, method, path, accept string
			body                       []byte
			wantGzip                   bool
		}{
			{"json page with cursor", "GET", series + "/samples?limit=1000", "", nil, true},
			{"json last page", "GET", series + "/samples?limit=10000", "", nil, true},
			{"json short page", "GET", series + "/samples?limit=3", "", nil, false},
			{"ndjson", "GET", series + "/samples", NDJSONType, nil, true},
			{"csv", "GET", series + "/samples?encoding=csv", "", nil, true},
			{"aggregate", "GET", series + "/aggregate", "", nil, false},
			{"aggregate buckets", "GET", series + "/aggregate?window=1m", "", nil, true},
			{"latest", "GET", series + "/latest", "", nil, false},
			{"batch json", "POST", "/v2/query", "", query, true},
			{"batch ndjson", "POST", "/v2/query?encoding=ndjson", "", query, true},
			{"batch aggregate json", "POST", "/v2/query", "", queryAgg, true},
			{"batch aggregate ndjson", "POST", "/v2/query?encoding=ndjson", "", queryAgg, true},
			{"batch latest json", "POST", "/v2/query", "", queryLatest, true},
			{"batch latest ndjson", "POST", "/v2/query?encoding=ndjson", "", queryLatest, true},
		} {
			var node []byte // the node's identity body
			for _, hop := range []struct{ name, base string }{
				{"node", m.OwnerOf(dev)}, {"coordinator", tc.coordURL},
			} {
				for _, coding := range []string{"identity", "gzip"} {
					label := fmt.Sprintf("%q %s via %s (%s)", dev, rt.name, hop.name, coding)
					rsp, got := fetchWire(t, rt.method, hop.base+rt.path, coding, rt.accept, rt.body)
					if gz := rsp.Header.Get("Content-Encoding") == "gzip"; gz != (coding == "gzip" && rt.wantGzip) {
						t.Errorf("%s: Content-Encoding = %q over %d plain bytes", label, rsp.Header.Get("Content-Encoding"), len(got))
					}
					if node == nil {
						node = got
						continue
					}
					if !bytes.Equal(got, node) {
						t.Errorf("%s: body differs\n got %.300s\nwant %.300s", label, got, node)
					}
					// The freshest sample is the last one ingested: a field
					// the coordinator dropped would answer raw pages here.
					if last := `"at":"` + base.Add((rows-1)*time.Second).Format(time.RFC3339Nano); strings.HasPrefix(rt.name, "batch latest") &&
						(bytes.Count(got, []byte(last)) != len(sels) || bytes.Count(got, []byte(`"at"`)) != len(sels)) {
						t.Errorf("%s: want only the sample %s per selector, got %.300s", label, last, got)
					}
				}
			}
		}

		// Paging through the relayed cursors visits every sample once.
		var seen int
		next := tc.coordURL + series + "/samples?limit=1000"
		for pages := 0; next != ""; pages++ {
			if pages > rows/1000+1 {
				t.Fatalf("%q: cursor chain does not end", dev)
			}
			_, body := fetchWire(t, "GET", next, "gzip", "", nil)
			var page SamplesPage
			if err := json.Unmarshal(body, &page); err != nil {
				t.Fatal(err)
			}
			for _, p := range page.Samples {
				if want := base.Add(time.Duration(seen) * time.Second); !p.At.Equal(want) {
					t.Fatalf("%q: sample %d at %s, want %s (gap or repeat)", dev, seen, p.At, want)
				}
				seen++
			}
			next = ""
			if page.NextCursor != "" {
				next = tc.coordURL + series + "/samples?limit=1000&cursor=" + url.QueryEscape(page.NextCursor)
			}
		}
		if seen != rows {
			t.Fatalf("%q: paged %d samples, want %d", dev, seen, rows)
		}
	}
}

// One surface, two servers: a measuredb base URL means the same data
// routes on a node and on the coordinator — every /v2 route is served,
// and none of the /v1 data routes (removed in PR 17) is, versioned or
// through a bare alias.
func TestNodeAndCoordinatorServeTheSameDataSurface(t *testing.T) {
	const shards = 4
	tc := newTestCluster(t, shards) // both servers keep bare aliases enabled
	dev := deviceInShard(1, shards)
	servers := []struct {
		name string
		h    http.Handler
	}{{"node", tc.nodes[1].Handler()}, {"coordinator", tc.coord.Handler()}} // shard 1 lives on node 1
	probe := func(h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		var rd io.Reader
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		req := httptest.NewRequest(method, path, rd)
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	series := "/v2/series/" + url.PathEscape(dev) + "/temperature"
	sample := []Point{{Device: dev, Quantity: "temperature", At: t0, Value: 1}}
	for _, rt := range []struct {
		method, path string
		body         any
	}{
		{"POST", "/v2/ingest", IngestBatch{Rows: sample}}, // first: seeds the series the reads need
		{"PUT", series + "/samples", SeriesAppend{Samples: []Point{{At: t0.Add(time.Second), Value: 2}}}},
		{"GET", "/v2/series", nil},
		{"GET", series + "/samples", nil},
		{"GET", series + "/latest", nil},
		{"GET", series + "/aggregate", nil},
		{"POST", "/v2/query", BatchQuery{Selectors: []SeriesSelector{{Device: dev, Quantity: "temperature"}}}},
	} {
		for _, srv := range servers {
			if rec := probe(srv.h, rt.method, rt.path, rt.body); rec.Code != http.StatusOK {
				t.Errorf("%s %s on the %s = %d: %s", rt.method, rt.path, srv.name, rec.Code, rec.Body)
			}
		}
	}

	q := "?device=" + url.QueryEscape(dev) + "&quantity=temperature"
	for _, rt := range []struct{ method, path string }{
		{"POST", "/append"}, {"GET", "/query" + q}, {"GET", "/latest" + q}, {"GET", "/series"}, {"GET", "/aggregate" + q},
	} {
		for _, prefix := range []string{"/v1", ""} {
			for _, srv := range servers {
				rec := probe(srv.h, rt.method, prefix+rt.path, nil)
				var env api.Envelope
				if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil ||
					rec.Code != http.StatusNotFound || env.Code != "not_found" || env.Status != http.StatusNotFound {
					t.Errorf("%s %s on the %s = %d %s, want the 404 not_found envelope", rt.method, prefix+rt.path, srv.name, rec.Code, rec.Body)
				}
			}
		}
	}
}

// stubCoordinator fronts one stub node with a real coordinator.
func stubCoordinator(t *testing.T, node http.Handler) string {
	t.Helper()
	stub := httptest.NewServer(node)
	t.Cleanup(stub.Close)
	ms := master.New(master.Options{})
	addr, err := ms.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ms.Close)
	if _, err := ms.ClusterMap().Set(cluster.Map{Shards: 1, Owners: []string{stub.URL}}); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCoordinator(CoordinatorOptions{Master: "http://" + addr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	caddr, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + caddr
}

// ndjsonLine is one row of the stub nodes' streams.
const ndjsonLine = `{"device":"urn:d","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20.25}` + "\n"

// streamNDJSON writes n stub rows, flushing now and then like the real
// samples stream.
func streamNDJSON(w http.ResponseWriter, n int) {
	w.Header().Set("Content-Type", NDJSONType+"; charset=utf-8")
	block := strings.Repeat(ndjsonLine, 256)
	for ; n >= 256; n -= 256 {
		_, _ = io.WriteString(w, block)
		w.(http.Flusher).Flush()
	}
	_, _ = io.WriteString(w, block[:n*len(ndjsonLine)])
}

const stubSamples = "/v2/series/urn:d/temperature/samples"

// A streamed range larger than the buffered-read limit reaches the
// client whole, and the hop that carried it asked for identity coding.
func TestCoordinatorStreamsRangesPastTheBufferLimit(t *testing.T) {
	const rows = api.MaxResponseBytes/len(ndjsonLine) + 1000
	var hopCoding, hopEpoch atomic.Value
	coord := stubCoordinator(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hopCoding.Store(r.Header.Get("Accept-Encoding"))
		hopEpoch.Store(r.Header.Get(cluster.EpochHeader))
		streamNDJSON(w, rows)
	}))
	for _, coding := range []string{"gzip", "identity"} {
		rsp, body := fetchWire(t, "GET", coord+stubSamples, coding, NDJSONType, nil)
		if len(body) != rows*len(ndjsonLine) || len(body) <= api.MaxResponseBytes {
			t.Fatalf("%s: %d bytes arrived, want %d", coding, len(body), rows*len(ndjsonLine))
		}
		if !bytes.HasSuffix(body, []byte(ndjsonLine)) || bytes.Count(body, []byte("\n")) != rows {
			t.Fatalf("%s: body is not %d whole rows", coding, rows)
		}
		if ct := rsp.Header.Get("Content-Type"); !strings.HasPrefix(ct, NDJSONType) {
			t.Fatalf("%s: Content-Type = %q", coding, ct)
		}
	}
	if hopCoding.Load() != "identity" || hopEpoch.Load() == "" {
		t.Fatalf("coordinator→node hop: Accept-Encoding %q, epoch %q", hopCoding.Load(), hopEpoch.Load())
	}
}

// A node that dies before its first body byte is re-routed around; one
// that dies mid-body cannot be, and the client must see a broken
// response, not a short one that ends cleanly.
func TestCoordinatorRelayNodeFailures(t *testing.T) {
	var hits atomic.Int32
	var dieMidBody atomic.Bool
	coord := stubCoordinator(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case dieMidBody.Load():
			streamNDJSON(w, 512)
			panic(http.ErrAbortHandler)
		case hits.Add(1) == 1:
			conn, buf, err := w.(http.Hijacker).Hijack()
			if err != nil {
				panic(err)
			}
			_, _ = buf.WriteString("HTTP/1.1 200 OK\r\nContent-Type: " + NDJSONType + "\r\nTransfer-Encoding: chunked\r\n\r\n")
			_ = buf.Flush()
			_ = conn.Close()
		default:
			streamNDJSON(w, 300)
		}
	}))

	_, body := fetchWire(t, "GET", coord+stubSamples, "gzip", NDJSONType, nil)
	if len(body) != 300*len(ndjsonLine) || hits.Load() != 2 {
		t.Fatalf("re-routed read: %d bytes after %d node hits", len(body), hits.Load())
	}

	dieMidBody.Store(true)
	for _, coding := range []string{"gzip", "identity"} {
		req, _ := http.NewRequest("GET", coord+stubSamples, nil)
		req.Header.Set("Accept", NDJSONType)
		req.Header.Set("Accept-Encoding", coding)
		tr := &http.Transport{DisableCompression: true}
		rsp, err := tr.RoundTrip(req)
		if err == nil { // else the cut came before the header left the coordinator
			var n int64
			n, err = io.Copy(io.Discard, rsp.Body)
			rsp.Body.Close()
			if err == nil {
				t.Fatalf("%s: cut stream ended cleanly after %d bytes", coding, n)
			}
		}
		tr.CloseIdleConnections()
	}
}

// pageFailEngine's scans serve `good` pages of DefaultPageLimit rows
// in all, then fail — a series dropped by retention mid-read, a block
// frame that does not verify.
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
		it.err = errors.New("injected: block frame CRC mismatch")
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

// A per-series stream whose second page fails must not end as a clean,
// short 200: the rows of the first page stand, then the connection is
// aborted — asked of the node or through the coordinator's relay,
// NDJSON or CSV, gzip-coded or not. A first page that fails is still an
// error envelope.
func TestStreamFailingMidWayAbortsTheConnection(t *testing.T) {
	eng := &pageFailEngine{Engine: tsdb.NewSharded(tsdb.ShardedOptions{})}
	svc := New(Options{Engine: eng})
	t.Cleanup(svc.Close)
	at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	rows := make([]tsdb.Row, 2*tsdb.DefaultPageLimit+500)
	for i := range rows {
		rows[i] = tsdb.Row{Key: tsdb.SeriesKey{Device: "urn:d", Quantity: "temperature"},
			Sample: tsdb.Sample{At: at.Add(time.Duration(i) * time.Second), Value: float64(i)}}
	}
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatal(errs)
	}
	node := httptest.NewServer(svc.Handler())
	t.Cleanup(node.Close)
	coord := stubCoordinator(t, svc.Handler())

	for _, base := range []string{node.URL, coord} {
		for _, accept := range []string{NDJSONType, CSVType} {
			for _, coding := range []string{"identity", "gzip"} {
				name := fmt.Sprintf("%s %s via %s", accept, coding, base)
				eng.good.Store(1)
				req, _ := http.NewRequest("GET", base+stubSamples, nil)
				req.Header.Set("Accept", accept)
				req.Header.Set("Accept-Encoding", coding)
				tr := &http.Transport{DisableCompression: true}
				rsp, err := tr.RoundTrip(req)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				var rd io.Reader = rsp.Body
				if rsp.Header.Get("Content-Encoding") == "gzip" {
					if rd, err = gzip.NewReader(rsp.Body); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				body, err := io.ReadAll(rd)
				rsp.Body.Close()
				tr.CloseIdleConnections()
				if err == nil {
					t.Fatalf("%s: cut stream ended cleanly after %d bytes", name, len(body))
				}
				if lines := bytes.Count(body, []byte("\n")); base == node.URL && accept == NDJSONType && lines != tsdb.DefaultPageLimit {
					t.Fatalf("%s: %d whole rows arrived before the abort, want the first page's %d", name, lines, tsdb.DefaultPageLimit)
				}
			}
		}
		// The whole range, once nothing fails; an envelope when the first
		// page does.
		eng.good.Store(1 << 20)
		if _, body := fetchWire(t, "GET", base+stubSamples, "gzip", NDJSONType, nil); bytes.Count(body, []byte("\n")) != len(rows) {
			t.Fatalf("healthy stream via %s: %d rows, want %d", base, bytes.Count(body, []byte("\n")), len(rows))
		}
		eng.good.Store(0)
		rsp, err := http.Get(base + stubSamples + "?encoding=ndjson")
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
		if rsp.StatusCode < 400 {
			t.Fatalf("first page failing via %s: status %d, want an error envelope", base, rsp.StatusCode)
		}
	}
}
