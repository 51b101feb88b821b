package measuredb

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/master"
	"repro/internal/tsdb"
)

func TestMergeSeriesPages(t *testing.T) {
	a := &SeriesPage{Series: []SeriesInfo{
		{Device: "a", Quantity: "q", Samples: 1},
		{Device: "c", Quantity: "q", Samples: 3},
	}}
	b := &SeriesPage{Series: []SeriesInfo{
		{Device: "b", Quantity: "q", Samples: 2},
		{Device: "c", Quantity: "q", Samples: 5}, // mid-handoff duplicate
		{Device: "d", Quantity: "q", Samples: 4},
	}}
	out, more := mergeSeriesPages([]*SeriesPage{a, b}, 10)
	want := []string{"a", "b", "c", "d"}
	if len(out) != len(want) || more {
		t.Fatalf("merged %d series (more=%v), want %d", len(out), more, len(want))
	}
	for i, dev := range want {
		if out[i].Device != dev {
			t.Fatalf("out[%d].Device = %q, want %q", i, out[i].Device, dev)
		}
	}
	if out[2].Samples != 5 {
		t.Fatalf("duplicate collapse kept %d samples, want the fuller copy (5)", out[2].Samples)
	}
	out, more = mergeSeriesPages([]*SeriesPage{a, b}, 2)
	if len(out) != 2 || !more {
		t.Fatalf("limit cut: got %d series, more=%v", len(out), more)
	}
}

func TestMergeBatchResults(t *testing.T) {
	sel := SeriesSelector{Device: "*"}
	merged := mergeBatchResults(sel, []BatchResult{
		{Selector: sel, Error: "no matching series"},
		{Selector: sel, Series: []BatchSeries{{Device: "x", Quantity: "q", Samples: []Point{{Value: 1}}}}},
	})
	if merged.Error != "" || len(merged.Series) != 1 {
		t.Fatalf("one-node match should drop the other's miss: %+v", merged)
	}
	merged = mergeBatchResults(sel, []BatchResult{
		{Selector: sel, Error: "no matching series"},
		{Selector: sel, Error: "no matching series"},
	})
	if merged.Error != "no matching series" {
		t.Fatalf("all-miss should keep the error, got %+v", merged)
	}

	// A read error on one node is what one node holding both halves would
	// have answered beside the other's series: it is kept.
	matched := BatchResult{Selector: sel, Series: []BatchSeries{{Device: "x", Quantity: "q"}}}
	for _, parts := range [][]BatchResult{
		{{Selector: sel, Error: "tsdb: no such series"}, matched},
		{matched, {Selector: sel, Series: []BatchSeries{{Device: "y", Quantity: "q"}}, Error: "tsdb: no such series"}},
	} {
		merged = mergeBatchResults(sel, parts)
		if merged.Error != "tsdb: no such series" || len(merged.Series) == 0 {
			t.Fatalf("a read error beside matched series was dropped: %+v", merged)
		}
	}
	// Two read errors: the first in node order, every time.
	for range 20 {
		merged = mergeBatchResults(sel, []BatchResult{
			{Selector: sel, Error: "no matching series"},
			{Selector: sel, Error: "first"},
			{Selector: sel, Series: []BatchSeries{{Device: "z", Quantity: "q"}}, Error: "second"},
		})
		if merged.Error != "first" || len(merged.Series) != 1 {
			t.Fatalf("two read errors merged to %+v, want the first node's", merged)
		}
	}
}

// testCluster is a 2-node in-memory cluster behind one coordinator.
type testCluster struct {
	master    *master.Master
	masterURL string
	nodes     []*Service
	nodeURLs  []string
	coord     *Coordinator
	coordURL  string
	shards    int
}

// newTestCluster builds the harness.
func newTestCluster(t *testing.T, shards int) *testCluster {
	t.Helper()
	tc := &testCluster{shards: shards}
	tc.master = master.New(master.Options{})
	addr, err := tc.master.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tc.masterURL = "http://" + addr
	t.Cleanup(tc.master.Close)
	for i := 0; i < 2; i++ {
		n, err := Open(Options{Shards: shards, Cluster: &ClusterOptions{
			Master:  tc.masterURL,
			Refresh: 10 * time.Millisecond,
		}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		addr, err := n.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.SetClusterSelf("http://" + addr)
		tc.nodes = append(tc.nodes, n)
		tc.nodeURLs = append(tc.nodeURLs, "http://"+addr)
	}
	owners := make([]string, shards)
	for i := range owners {
		owners[i] = tc.nodeURLs[i%2]
	}
	if _, err := tc.master.ClusterMap().Set(cluster.Map{Shards: shards, Owners: owners}); err != nil {
		t.Fatal(err)
	}
	tc.coord, err = OpenCoordinator(CoordinatorOptions{Master: tc.masterURL, Refresh: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tc.coord.Close)
	caddr, err := tc.coord.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tc.coordURL = "http://" + caddr
	return tc
}

// deviceInShard fabricates a device URI hashing to the wanted shard.
func deviceInShard(shard, shards int) string {
	for i := 0; ; i++ {
		dev := fmt.Sprintf("urn:district:t/b%02d/d%d", shard, i)
		if tsdb.ShardOf(dev, shards) == shard {
			return dev
		}
	}
}

// postJSON posts a body and returns the status plus decoded envelope or
// result.
func postJSON(t *testing.T, url string, hdr map[string]string, body, out any) (int, http.Header) {
	t.Helper()
	return sendJSON(t, http.MethodPost, url, hdr, body, out)
}

// sendJSON is postJSON for any method.
func sendJSON(t *testing.T, method, url string, hdr map[string]string, body, out any) (int, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(rsp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return rsp.StatusCode, rsp.Header
}

func TestClusterRoutingAndGuards(t *testing.T) {
	const shards = 4
	tc := newTestCluster(t, shards)
	// In the past: zero-To queries default their upper bound to now.
	base := time.Now().UTC().Add(-time.Hour).Truncate(time.Second)

	// One device per shard, ingested through the coordinator.
	var rows []Point
	devs := make([]string, shards)
	for s := 0; s < shards; s++ {
		devs[s] = deviceInShard(s, shards)
		for j := 0; j < 3; j++ {
			rows = append(rows, Point{Device: devs[s], Quantity: "temperature",
				At: base.Add(time.Duration(j) * time.Second), Value: float64(s*10 + j)})
		}
	}
	var res IngestResult
	status, _ := postJSON(t, tc.coordURL+"/v2/ingest", map[string]string{"Idempotency-Key": "k1"},
		IngestBatch{Rows: rows}, &res)
	if status != http.StatusOK || res.Accepted != len(rows) || res.Rejected != 0 {
		t.Fatalf("coordinator ingest: status=%d res=%+v", status, res)
	}

	// Rows landed only on their owners.
	for s, dev := range devs {
		owner, other := tc.nodes[s%2], tc.nodes[(s+1)%2]
		if n := owner.Store().Len(tsdb.SeriesKey{Device: dev, Quantity: "temperature"}); n != 3 {
			t.Fatalf("shard %d owner holds %d samples, want 3", s, n)
		}
		if n := other.Store().Len(tsdb.SeriesKey{Device: dev, Quantity: "temperature"}); n != 0 {
			t.Fatalf("shard %d non-owner holds %d samples, want 0", s, n)
		}
	}

	// Keyed replay: same request again must not double-apply.
	status, _ = postJSON(t, tc.coordURL+"/v2/ingest", map[string]string{"Idempotency-Key": "k1"},
		IngestBatch{Rows: rows}, &res)
	if status != http.StatusOK || res.Accepted != len(rows) {
		t.Fatalf("replayed ingest: status=%d res=%+v", status, res)
	}
	for s, dev := range devs {
		if n := tc.nodes[s%2].Store().Len(tsdb.SeriesKey{Device: dev, Quantity: "temperature"}); n != 3 {
			t.Fatalf("replay double-applied: shard %d has %d samples", s, n)
		}
	}

	// refused sends one row of devs[0] to node through both write
	// entrances, POST /v2/ingest and PUT samples: one guard refuses both
	// with the same retryable envelope.
	refused := func(what, node string, hdr map[string]string, code string) {
		t.Helper()
		for _, w := range []struct {
			method, path string
			body         any
		}{
			{http.MethodPost, "/v2/ingest",
				IngestBatch{Rows: []Point{{Device: devs[0], Quantity: "temperature", At: base, Value: 1}}}},
			{http.MethodPut, "/v2/series/" + api.PathSegment(devs[0]) + "/temperature/samples",
				SeriesAppend{Samples: []Point{{At: base, Value: 1}}}},
		} {
			var env api.Envelope
			status, rh := sendJSON(t, w.method, node+w.path, hdr, w.body, &env)
			if status != http.StatusServiceUnavailable || env.Code != code {
				t.Fatalf("%s %s: status=%d env=%+v", what, w.method, status, env)
			}
			if rh.Get("Retry-After") != "1" {
				t.Fatalf("%s %s: Retry-After %q, want 1", what, w.method, rh.Get("Retry-After"))
			}
		}
	}

	// Direct write to the wrong node: retryable not_owner envelope.
	refused("wrong-node write", tc.nodeURLs[1], nil, cluster.CodeNotOwner)

	// An NDJSON body is collected whole before it is admitted: the owned
	// device's rows ahead of a foreign device's row — more than a chunk,
	// which a plain node would have applied by then — are refused with
	// it, and none of them is stored.
	var nd bytes.Buffer
	for j := 0; j <= ingestChunk; j++ {
		fmt.Fprintf(&nd, `{"device":%q,"quantity":"temperature","at":%q,"value":%d}`+"\n",
			devs[0], base.Add(time.Duration(10+j)*time.Second).Format(time.RFC3339), j)
	}
	fmt.Fprintf(&nd, `{"device":%q,"quantity":"temperature","at":%q,"value":9}`+"\n", devs[1], base.Format(time.RFC3339))
	ndRsp, err := http.Post(tc.nodeURLs[0]+"/v2/ingest", NDJSONType, &nd)
	if err != nil {
		t.Fatal(err)
	}
	var ndEnv api.Envelope
	err = json.NewDecoder(ndRsp.Body).Decode(&ndEnv)
	ndRsp.Body.Close()
	if ndRsp.StatusCode != http.StatusServiceUnavailable || err != nil || ndEnv.Code != cluster.CodeNotOwner ||
		ndRsp.Header.Get("Retry-After") != "1" {
		t.Fatalf("NDJSON write with a foreign row: status=%d Retry-After=%q env=%+v (%v)",
			ndRsp.StatusCode, ndRsp.Header.Get("Retry-After"), ndEnv, err)
	}
	if n := tc.nodes[0].Store().Len(tsdb.SeriesKey{Device: devs[0], Quantity: "temperature"}); n != 3 {
		t.Fatalf("refused NDJSON write stored its owned rows: %d samples, want 3", n)
	}

	// Frozen shard: retryable shard_moving envelope on the owner.
	rsp, err := http.Post(tc.nodeURLs[0]+"/v1/cluster/shards/0/freeze", "application/json", nil)
	if err != nil || rsp.StatusCode != http.StatusOK {
		t.Fatalf("freeze: %v status=%d", err, rsp.StatusCode)
	}
	rsp.Body.Close()
	refused("frozen-shard write", tc.nodeURLs[0], nil, cluster.CodeShardMoving)
	// Release (map unchanged: node still owns shard 0, data stays).
	rsp, err = http.Post(tc.nodeURLs[0]+"/v1/cluster/shards/0/release", "application/json", nil)
	if err != nil || rsp.StatusCode != http.StatusOK {
		t.Fatalf("release: %v status=%d", err, rsp.StatusCode)
	}
	rsp.Body.Close()
	if n := tc.nodes[0].Store().Len(tsdb.SeriesKey{Device: devs[0], Quantity: "temperature"}); n != 3 {
		t.Fatalf("aborted handoff lost data: %d samples, want 3", n)
	}

	// Stale epoch: bump the map, then write with the old epoch.
	cur, _ := tc.master.ClusterMap().Current()
	if _, err := tc.master.ClusterMap().Move(0, tc.nodeURLs[0]); err != nil { // no-op move, epoch++
		t.Fatal(err)
	}
	refused("stale-epoch write", tc.nodeURLs[0],
		map[string]string{cluster.EpochHeader: fmt.Sprint(cur.Epoch - 1)}, cluster.CodeStaleEpoch)

	// Merged catalog and batch query through the coordinator.
	var page SeriesPage
	if err := (&api.Transport{}).GetJSON(context.Background(), tc.coordURL+"/v2/series", &page); err != nil {
		t.Fatal(err)
	}
	if page.Count != shards {
		t.Fatalf("merged catalog lists %d series, want %d", page.Count, shards)
	}
	var batch BatchResponse
	status, _ = postJSON(t, tc.coordURL+"/v2/query", nil,
		BatchQuery{Selectors: []SeriesSelector{{Device: "*"}}}, &batch)
	if status != http.StatusOK || batch.Series != shards || batch.Samples != len(rows) {
		t.Fatalf("merged batch query: status=%d series=%d samples=%d (want %d/%d)",
			status, batch.Series, batch.Samples, shards, len(rows))
	}
	// Exact-device selector routes to the one owner.
	status, _ = postJSON(t, tc.coordURL+"/v2/query", nil,
		BatchQuery{Selectors: []SeriesSelector{{Device: devs[1], Quantity: "temperature"}}}, &batch)
	if status != http.StatusOK || batch.Series != 1 || batch.Samples != 3 {
		t.Fatalf("exact-device query: status=%d series=%d samples=%d", status, batch.Series, batch.Samples)
	}
}

// TestIngestBodySameOnEveryEntrance posts and PUTs the same bodies to a
// plain node, to a clustered node and through the coordinator: one
// decoder and one ingest body read all three, so status, message and
// per-row outcome agree — a JSON batch fails whole, an NDJSON stream
// keeps the rows before its first malformed line and rejects that line
// at its index, and a PUT's rows are located at their body index.
func TestIngestBodySameOnEveryEntrance(t *testing.T) {
	const shards = 4
	tc := newTestCluster(t, shards)
	_, plain := newTestServer(t)
	dev := deviceInShard(0, shards) // owned by node 0
	entrances := []string{plain.URL, tc.nodeURLs[0], tc.coordURL}
	samples := "/v2/series/" + api.PathSegment(dev) + "/temp/samples"

	for _, c := range []struct {
		name, query, contentType, body string
		status                         int
		want                           string // error message, or the whole summary envelope
		put                            bool   // PUT to samples, not POST to /v2/ingest
	}{
		{"bad encoding", "?encoding=xml", "application/json", `{}`, http.StatusBadRequest,
			`bad encoding "xml" (want json or ndjson)`, false},
		{"malformed batch", "", "application/json", `{"rows":[{"device":"` + dev + `","value":}]}`, http.StatusBadRequest,
			`bad request body: invalid character '}' looking for beginning of value`, false},
		{"empty body", "", "application/json", ``, http.StatusBadRequest, `bad request body: EOF`, false},
		{"empty rows", "", "application/json", `{"rows":[]}`, http.StatusBadRequest, `empty rows`, false},
		{"non-canonical batch", "?encoding=json", NDJSONType,
			`{"note":"x","ROWS":[{"device":"` + dev + `","quantity":"temp","at":"2015-03-09T10:0%d:00Z","value":1}]}`,
			http.StatusOK, `{"accepted":1,"rejected":0}` + "\n", false},
		{"ndjson seam", "", NDJSONType + "; charset=utf-8",
			`{"device":"` + dev + `","quantity":"temp","at":"2015-03-09T11:0%[1]d:00Z","value":1}` + "\n" +
				`{"device":"` + dev + `","quantity":"temp","at":"2015-03-09T11:0%[1]d:01Z","value":2,"unit":null}` + "\n" +
				`{"quantity":"temp","value":3}` + "\n" +
				"this is not json\n" +
				`{"device":"` + dev + `","quantity":"temp","at":"2015-03-09T11:0%[1]d:02Z","value":4}` + "\n",
			http.StatusOK,
			`{"accepted":2,"rejected":2,"errors":[{"row":2,"error":"missing device"},{"row":3,"error":"malformed row: invalid character 'h' in literal true (expecting 'r')"}]}` + "\n", false},
		{"put samples", "", "application/json",
			`{"samples":[{"at":"2015-03-09T12:0%[1]d:00Z","value":1},{"at":"0001-06-01T00:00:00Z","value":2},{"device":"urn:other","at":"2015-03-09T12:0%[1]d:01Z","value":3}]}`,
			http.StatusOK, `{"accepted":2,"rejected":1,"errors":[{"row":1,"error":"` + tsdb.ErrTimeRange.Error() + `"}]}` + "\n", true},
		{"put malformed", "", "application/json", `{"samples":[{"at":"2015-03-09T12:00:00Z","value":}]}`, http.StatusBadRequest,
			`bad request body: invalid character '}' looking for beginning of value`, true},
		{"put empty samples", "", "application/json", `{"samples":[]}`, http.StatusBadRequest, `empty samples`, true},
	} {
		for i, base := range entrances {
			body := c.body
			if c.status == http.StatusOK {
				body = fmt.Sprintf(c.body, i) // fresh timestamps per entrance: two of them share a store
			}
			method, path := http.MethodPost, "/v2/ingest"
			if c.put {
				method, path = http.MethodPut, samples
			}
			req, err := http.NewRequest(method, base+path+c.query, bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", c.contentType)
			rsp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(rsp.Body)
			rsp.Body.Close()
			got := string(raw)
			if rsp.StatusCode != http.StatusOK {
				var env api.Envelope
				if err := json.Unmarshal(raw, &env); err != nil {
					t.Fatalf("%s via %s: %v in %q", c.name, base, err, raw)
				}
				got = env.Error
			}
			if rsp.StatusCode != c.status || got != c.want {
				t.Errorf("%s via entrance %d: status %d, %q\nwant %d, %q", c.name, i, rsp.StatusCode, got, c.status, c.want)
			}
		}
	}
}

// TestCoordinatorPutIsAnIngest: a PUT through the coordinator is an
// ingest like a POST — the rows are placed, forwarded under the derived
// key and re-routed in the ingest's rounds — so when the map names an
// unreachable owner for the PUT's shard, both entrances answer the
// retryable rows_undelivered envelope, and a keyed PUT that did land
// replays instead of re-applying.
func TestCoordinatorPutIsAnIngest(t *testing.T) {
	const shards = 2
	tc := newTestCluster(t, shards)
	dev := deviceInShard(1, shards) // owned by node 1
	put := "/v2/series/" + api.PathSegment(dev) + "/temperature/samples"
	base := time.Now().UTC().Add(-time.Hour).Truncate(time.Second)
	body := SeriesAppend{Samples: []Point{{At: base, Value: 1}, {At: base.Add(time.Second), Value: 2}}}

	for range 2 {
		var res IngestResult
		status, _ := sendJSON(t, http.MethodPut, tc.coordURL+put, map[string]string{"Idempotency-Key": "p1"}, body, &res)
		if status != http.StatusOK || res.Accepted != 2 || res.Rejected != 0 {
			t.Fatalf("keyed PUT through the coordinator: status=%d res=%+v", status, res)
		}
	}
	if n := tc.nodes[1].Store().Len(tsdb.SeriesKey{Device: dev, Quantity: "temperature"}); n != 2 {
		t.Fatalf("owner holds %d samples after a keyed PUT and its retry, want 2", n)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	if _, err := tc.master.ClusterMap().Set(cluster.Map{Shards: shards, Owners: []string{tc.nodeURLs[0], dead.URL}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.coord.res.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		method, path string
		body         any
	}{
		{http.MethodPut, put, body},
		{http.MethodPost, "/v2/ingest", IngestBatch{Rows: []Point{{Device: dev, Quantity: "temperature", At: base, Value: 1}}}},
	} {
		var env api.Envelope
		status, h := sendJSON(t, w.method, tc.coordURL+w.path, nil, w.body, &env)
		if status != http.StatusServiceUnavailable || env.Code != "rows_undelivered" || h.Get("Retry-After") != "1" {
			t.Fatalf("%s with a dead owner: status=%d Retry-After=%q env=%+v", w.method, status, h.Get("Retry-After"), env)
		}
	}
}

// TestStorageReportCarriesTheMapView: /v1/storage is a node's one shard
// report. On a clustered node it carries the node's URL, its cached map
// epoch, and per shard whether the map names it the owner and whether
// the shard is frozen mid-handoff; a plain node's report has none of
// these fields.
func TestStorageReportCarriesTheMapView(t *testing.T) {
	const shards = 4
	tc := newTestCluster(t, shards)
	var rows []Point
	for s := 0; s < shards; s++ {
		rows = append(rows, Point{Device: deviceInShard(s, shards), Quantity: "temperature", Value: float64(s)})
	}
	var res IngestResult
	if status, _ := postJSON(t, tc.coordURL+"/v2/ingest", nil, IngestBatch{Rows: rows}, &res); status != http.StatusOK || res.Accepted != shards {
		t.Fatalf("seed ingest: status=%d res=%+v", status, res) // every node now caches the map
	}
	if code, b := postRaw(t, tc.nodeURLs[0]+"/v1/cluster/shards/2/freeze", nil); code != http.StatusOK {
		t.Fatalf("freeze = %d: %s", code, b)
	}
	m, _ := tc.master.ClusterMap().Current()
	for k, node := range tc.nodeURLs {
		var st StorageStatus
		if getJSON(t, node+"/v1/storage", &st) != http.StatusOK {
			t.Fatalf("node %d storage status", k)
		}
		if st.Self != node || st.Epoch != m.Epoch || len(st.Shards) != shards {
			t.Fatalf("node %d report: self=%q epoch=%d shards=%d, want %q %d %d", k, st.Self, st.Epoch, len(st.Shards), node, m.Epoch, shards)
		}
		for i, sh := range st.Shards {
			series := 0 // each shard's one seeded series lives on its owner
			if m.Owner(i) == node {
				series = 1
			}
			if sh.Owned != (m.Owner(i) == node) || sh.Moving != (k == 0 && i == 2) || sh.Series != series {
				t.Errorf("node %d shard %d: owned=%v moving=%v series=%d", k, i, sh.Owned, sh.Moving, sh.Series)
			}
		}
	}

	_, plain := newTestServer(t)
	code, raw := getRaw(t, plain.URL+"/v1/storage")
	if code != http.StatusOK {
		t.Fatalf("plain storage status = %d", code)
	}
	for _, field := range []string{`"self"`, `"epoch"`, `"owned"`, `"moving"`} {
		if bytes.Contains(raw, []byte(field)) {
			t.Errorf("plain node's report carries %s: %s", field, raw)
		}
	}
}

// restoreTarget serves a durable clustered node of the given shard count
// and returns it with its base URL. The restore route needs no map.
func restoreTarget(t *testing.T, shards int) (*Service, string) {
	t.Helper()
	m := master.New(master.Options{})
	maddr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	n, err := Open(Options{Shards: shards, DataDir: t.TempDir(), Cluster: &ClusterOptions{Master: "http://" + maddr}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	addr, err := n.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.SetClusterSelf("http://" + addr)
	return n, "http://" + addr
}

// archiveStream frames files as GET .../archive streams them: a JSON
// header, one (name, size, bytes) frame per file, a zero terminator.
func archiveStream(shard, shards int, names []string, files map[string][]byte) []byte {
	var b bytes.Buffer
	frame := func(p []byte) {
		b.Write(binary.AppendUvarint(nil, uint64(len(p))))
		b.Write(p)
	}
	hdr, _ := json.Marshal(map[string]int{"shard": shard, "shards": shards})
	frame(hdr)
	for _, name := range names {
		frame([]byte(name))
		frame(files[name])
	}
	b.WriteByte(0)
	return b.Bytes()
}

// shardFiles returns the files of a published one-shard engine holding
// rows: the files an archive of that shard carries. With cut, the rows
// older than a minute are cut into a block first.
func shardFiles(t *testing.T, rows []tsdb.Row, cut bool) ([]string, map[string][]byte) {
	t.Helper()
	src, err := tsdb.OpenSharded(tsdb.ShardedOptions{Shards: 1, Dir: t.TempDir(), Blocks: tsdb.BlockPolicy{HeadWindow: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if errs := src.AppendBatch(rows); errs != nil {
		t.Fatal(errs)
	}
	if cut {
		if err := src.CompactShard(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.SyncShard(0); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src.ShardDir(0))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	files := map[string][]byte{}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(src.ShardDir(0), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, e.Name())
		files[e.Name()] = raw
	}
	return names, files
}

// postRestore posts an archive to a node's shard restore route and
// decodes the answer into out.
func postRestore(t *testing.T, node string, shard int, body []byte, out any) int {
	t.Helper()
	rsp, err := http.Post(fmt.Sprintf("%s/v1/cluster/shards/%d/restore", node, shard), "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if err := json.NewDecoder(rsp.Body).Decode(out); err != nil {
		t.Fatalf("decode restore answer (status %d): %v", rsp.StatusCode, err)
	}
	return rsp.StatusCode
}

// TestClusterRestoreRefusesPathFileNames: an archived file name must be
// one plain name. "." (the temp directory itself), "..", and names
// holding a separator or a NUL answer 400, not a failed file open.
func TestClusterRestoreRefusesPathFileNames(t *testing.T) {
	_, node := restoreTarget(t, 2)
	for _, name := range []string{".", "..", "a/b", `a\b`, "a\x00b"} {
		var env api.Envelope
		body := archiveStream(1, 2, []string{name}, map[string][]byte{name: []byte("x")})
		if status := postRestore(t, node, 1, body, &env); status != http.StatusBadRequest ||
			!strings.Contains(env.Error, "bad archive file name") {
			t.Fatalf("file name %q: status %d, %+v; want 400 bad archive file name", name, status, env)
		}
	}
}

// TestClusterRestoreJournalsNothing posts archives to a durable node's
// shard 1. One holding a row, or only a block series, of a device of
// shard 0 is refused with 400, as is one whose snapshot does not
// decode, and the shard keeps what it held; one of the shard's own
// devices restores in place of it. None writes a record to the node
// log: a note-only probe record before and after each restore lands on
// consecutive seqs.
func TestClusterRestoreJournalsNothing(t *testing.T) {
	const shards = 2
	svc, node := restoreTarget(t, shards)
	eng := svc.Store().(*tsdb.Sharded)
	probe := func() uint64 {
		t.Helper()
		_, seq := eng.AppendBatchNote(nil, nil, []byte("probe"))
		if seq == 0 {
			t.Fatal("probe record not journaled")
		}
		return seq
	}
	own, foreign := deviceInShard(1, shards), deviceInShard(0, shards)
	at := time.Now().UTC().Add(-time.Minute).Truncate(time.Second)
	rowsAt := func(at time.Time, devs ...string) []tsdb.Row {
		var out []tsdb.Row
		for _, d := range devs {
			for j := 0; j < 4; j++ {
				out = append(out, tsdb.Row{Key: tsdb.SeriesKey{Device: d, Quantity: "temperature"},
					Sample: tsdb.Sample{At: at.Add(time.Duration(j) * time.Second), Value: float64(j)}})
			}
		}
		return out
	}
	rows := func(devs ...string) []tsdb.Row { return rowsAt(at, devs...) }
	local := tsdb.SeriesKey{Device: own, Quantity: "humidity"}
	if err := eng.Append(local, tsdb.Sample{At: at, Value: 1}); err != nil {
		t.Fatal(err)
	}

	refused := func(what string, names []string, files map[string][]byte) {
		t.Helper()
		before := probe()
		var env api.Envelope
		if status := postRestore(t, node, 1, archiveStream(1, shards, names, files), &env); status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, %+v; want 400", what, status, env)
		}
		if after := probe(); after != before+1 {
			t.Fatalf("%s: refused restore journaled %d records", what, after-before-1)
		}
		if got := eng.Catalog(1); len(got) != 1 || got[0] != local {
			t.Fatalf("%s: refused restore changed the shard: catalog %v, want only %v", what, got, local)
		}
	}
	names, files := shardFiles(t, rows(own, foreign), false)
	refused("a head row of shard 0", names, files)
	names, files = shardFiles(t, append(rowsAt(at.Add(-2*time.Hour), foreign), rows(own)...), true)
	if len(names) < 2 {
		t.Fatalf("archive files %v: want a block beside the snapshot", names)
	}
	refused("a block series of shard 0", names, files)
	names, files = shardFiles(t, rows(own), false)
	for _, name := range names {
		if strings.HasSuffix(name, ".snap") {
			snap := append([]byte(nil), files[name]...)
			snap[len(snap)-1] ^= 0xff // the last record's payload: its CRC no longer matches
			files[name] = snap
		}
	}
	refused("an undecodable snapshot", names, files)

	before := probe()
	var res struct {
		Rows int `json:"rows"`
	}
	names, files = shardFiles(t, rows(own), false)
	if status := postRestore(t, node, 1, archiveStream(1, shards, names, files), &res); status != http.StatusOK || res.Rows != 4 {
		t.Fatalf("restore: status %d, %+v; want 200 with 4 rows", status, res)
	}
	if after := probe(); after != before+1 {
		t.Fatalf("restore journaled %d records", after-before-1)
	}
	if got := eng.Catalog(1); len(got) != 1 || got[0].Device != own || got[0].Quantity != "temperature" {
		t.Fatalf("restored shard lists %v, want only the archive's series", got)
	}
	if n := eng.Len(tsdb.SeriesKey{Device: own, Quantity: "temperature"}); n != 4 {
		t.Fatalf("restored series holds %d rows, want 4", n)
	}
}
