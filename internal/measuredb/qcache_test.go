package measuredb

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataformat"
	"repro/internal/tsdb"
)

// The result cache must be invisible on the wire: a cached service and
// an uncached twin fed identical writes must answer every read with
// identical bytes, at every point in the write history. These tests
// hold the cache to that oracle across plain reads, read-your-writes,
// shard resets, compaction + retention, and the coordinator proxy
// cache with its epoch- and write-generation keying.

// getRaw fetches a URL and returns the status code and raw body bytes.
func getRaw(t *testing.T, rawURL string) (int, []byte) {
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
	return rsp.StatusCode, body
}

// postRaw posts a JSON body and returns the status code and raw bytes.
func postRaw(t *testing.T, rawURL string, body []byte) (int, []byte) {
	t.Helper()
	rsp, err := http.Post(rawURL, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	out, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rsp.StatusCode, out
}

// scrapeMetric reads one unlabelled metric value off a server's
// Prometheus exposition.
func scrapeMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	code, body := getRaw(t, base+"/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("metrics scrape = %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if i := strings.LastIndexByte(rest, ' '); i >= 0 {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest[i+1:]), 64)
			if err != nil {
				t.Fatalf("unparsable %s line %q", name, line)
			}
			return v
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// normalizeBody blanks the random request id of error envelopes so
// non-200 responses compare byte-for-byte too.
func normalizeBody(code int, b []byte) []byte {
	if code == http.StatusOK {
		return b
	}
	return reqIDPattern.ReplaceAll(b, []byte(`"requestId":"-"`))
}

var reqIDPattern = regexp.MustCompile(`"requestId":"[^"]*"`)

// qcTwin is a cached service next to an uncached oracle twin; every
// write goes to both, every read is compared byte for byte.
type qcTwin struct {
	cached, plain       *Service
	cachedURL, plainURL string
}

func newQCTwin(t *testing.T) *qcTwin {
	t.Helper()
	tw := &qcTwin{
		cached: New(Options{QCacheBytes: 1 << 20}),
		plain:  New(Options{}),
	}
	cts := httptest.NewServer(tw.cached.Handler())
	pts := httptest.NewServer(tw.plain.Handler())
	t.Cleanup(func() { cts.Close(); pts.Close(); tw.cached.Close(); tw.plain.Close() })
	tw.cachedURL, tw.plainURL = cts.URL, pts.URL
	return tw
}

func (tw *qcTwin) ingest(t *testing.T, m dataformat.Measurement) {
	t.Helper()
	seed(t, tw.cached, m)
	seed(t, tw.plain, m)
}

// checkGet asserts both services answer path with the same status and
// identical bytes, and returns the shared body.
func (tw *qcTwin) checkGet(t *testing.T, path string) []byte {
	t.Helper()
	ccode, cbody := getRaw(t, tw.cachedURL+path)
	pcode, pbody := getRaw(t, tw.plainURL+path)
	if ccode != pcode {
		t.Fatalf("GET %s: cached=%d uncached=%d", path, ccode, pcode)
	}
	cbody, pbody = normalizeBody(ccode, cbody), normalizeBody(pcode, pbody)
	if !bytes.Equal(cbody, pbody) {
		t.Fatalf("GET %s: cached body diverges from uncached\ncached:   %q\nuncached: %q", path, cbody, pbody)
	}
	return cbody
}

func qcMeasurement(device string, i int) dataformat.Measurement {
	return dataformat.Measurement{
		Source: "http://devproxy/", Device: device,
		Quantity: dataformat.Temperature, Unit: dataformat.Celsius,
		Value: 20 + float64(i), Timestamp: t0.Add(time.Duration(i) * time.Minute),
	}
}

const qcDevice2 = "urn:district:turin/building:b02/device:t-9"

// qcReadPaths is every cached read shape plus the uncached streaming
// encodings, which must stay correct with the cache turned on.
func qcReadPaths() []string {
	enc := func(q string) string {
		return "/v2/series/" + url.PathEscape(v2Device) + "/temperature/samples?" + q
	}
	return []string{
		"/v2/series",
		"/v2/series?device=urn:district:turin/*",
		enc("limit=200"),
		enc("limit=7"),
		enc("encoding=ndjson&limit=200"),
		enc("encoding=csv&limit=200"),
		"/v2/series/" + url.PathEscape(v2Device) + "/temperature/aggregate",
		"/v2/series/" + url.PathEscape(v2Device) + "/temperature/aggregate?window=5m",
		"/v2/series/" + url.PathEscape(v2Device) + "/temperature/latest",
	}
}

func TestQCacheByteIdenticalAndReadYourWrites(t *testing.T) {
	tw := newQCTwin(t)
	for i := 0; i < 60; i++ {
		tw.ingest(t, qcMeasurement(v2Device, i))
	}
	for i := 0; i < 25; i++ {
		tw.ingest(t, qcMeasurement(qcDevice2, i))
	}

	// First pass fills the cache, second must serve the same bytes from
	// it. Both passes are oracle-compared against the uncached twin.
	first := make(map[string][]byte)
	for _, p := range qcReadPaths() {
		first[p] = tw.checkGet(t, p)
	}
	for _, p := range qcReadPaths() {
		if again := tw.checkGet(t, p); !bytes.Equal(again, first[p]) {
			t.Fatalf("GET %s: repeat read changed without a write", p)
		}
	}
	if hits := scrapeMetric(t, tw.cachedURL, "repro_qcache_hits_total"); hits == 0 {
		t.Fatal("repeat reads produced no cache hits")
	}
	if misses := scrapeMetric(t, tw.cachedURL, "repro_qcache_misses_total"); misses == 0 {
		t.Fatal("first reads produced no cache misses")
	}

	// The batch query path, cached under the raw body key.
	body, err := json.Marshal(BatchQuery{
		Selectors: []SeriesSelector{
			{Device: v2Device, Quantity: "temperature"},
			{Device: qcDevice2, Quantity: "temperature"},
		},
		Limit: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	ccode, cbody := postRaw(t, tw.cachedURL+"/v2/query", body)
	pcode, pbody := postRaw(t, tw.plainURL+"/v2/query", body)
	if ccode != http.StatusOK || pcode != http.StatusOK || !bytes.Equal(cbody, pbody) {
		t.Fatalf("POST /v2/query: cached (%d, %q) vs uncached (%d, %q)", ccode, cbody, pcode, pbody)
	}
	if code, again := postRaw(t, tw.cachedURL+"/v2/query", body); code != http.StatusOK || !bytes.Equal(again, cbody) {
		t.Fatalf("POST /v2/query: repeat read changed without a write")
	}

	// Read-your-writes: every acked append must be visible on the very
	// next read, with bytes still matching the uncached twin.
	for i := 60; i < 64; i++ {
		tw.ingest(t, qcMeasurement(v2Device, i))
		for _, p := range qcReadPaths() {
			now := tw.checkGet(t, p)
			if strings.Contains(p, "limit=7") || strings.Contains(p, "/v2/series?") || p == "/v2/series" {
				continue // pages that cannot reflect an appended tail row
			}
			if bytes.Equal(now, first[p]) {
				t.Fatalf("GET %s: stale read after append %d", p, i)
			}
		}
		_, qnow := postRaw(t, tw.cachedURL+"/v2/query", body)
		_, qwant := postRaw(t, tw.plainURL+"/v2/query", body)
		if !bytes.Equal(qnow, qwant) || bytes.Equal(qnow, cbody) {
			t.Fatalf("POST /v2/query: stale read after append %d\ncached:   %q\nuncached: %q", i, qnow, qwant)
		}
	}
}

func TestQCacheResetShardInvalidates(t *testing.T) {
	tw := newQCTwin(t)
	for i := 0; i < 30; i++ {
		tw.ingest(t, qcMeasurement(v2Device, i))
	}
	warm := make(map[string][]byte)
	for _, p := range qcReadPaths() {
		warm[p] = tw.checkGet(t, p)
	}
	// Wipe the owning shard on both services — the restore/handoff
	// admin path — and require the cache to notice immediately.
	shard := tw.cached.qsh.ShardFor(v2Device)
	if err := tw.cached.qsh.ResetShard(shard); err != nil {
		t.Fatal(err)
	}
	if err := tw.plain.store.(*tsdb.Sharded).ResetShard(shard); err != nil {
		t.Fatal(err)
	}
	for _, p := range qcReadPaths() {
		now := tw.checkGet(t, p)
		if bytes.Equal(now, warm[p]) {
			t.Fatalf("GET %s: served pre-reset bytes after ResetShard", p)
		}
	}
}

func TestQCacheCompactionRetentionInvalidates(t *testing.T) {
	open := func(qcBytes int64) (*Service, string) {
		s, err := Open(Options{
			DataDir:       t.TempDir(),
			QCacheBytes:   qcBytes,
			SnapshotEvery: -1,
			Blocks:        tsdb.BlockPolicy{HeadWindow: time.Minute, RetentionRollup: time.Hour},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() { ts.Close(); s.Close() })
		return s, ts.URL
	}
	cached, cachedURL := open(1 << 20)
	plain, plainURL := open(0)

	// 2015-era rows: already past both the head window and the rollup
	// retention horizon, so one forced compaction cycle cuts them to a
	// block and a second drops the block entirely.
	for i := 0; i < 40; i++ {
		seed(t, cached, qcMeasurement(v2Device, i))
		seed(t, plain, qcMeasurement(v2Device, i))
	}
	check := func(p string) ([]byte, []byte) {
		t.Helper()
		ccode, cbody := getRaw(t, cachedURL+p)
		pcode, pbody := getRaw(t, plainURL+p)
		cbody, pbody = normalizeBody(ccode, cbody), normalizeBody(pcode, pbody)
		if ccode != pcode || !bytes.Equal(cbody, pbody) {
			t.Fatalf("GET %s: cached (%d, %q) diverges from uncached (%d, %q)", p, ccode, cbody, pcode, pbody)
		}
		return cbody, pbody
	}
	paths := qcReadPaths()
	warm := make(map[string][]byte)
	for _, p := range paths {
		warm[p], _ = check(p)
	}
	for _, s := range []*Service{cached, plain} {
		eng := s.store.(*tsdb.Sharded)
		for pass := 0; pass < 2; pass++ {
			if err := eng.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	changed := false
	for _, p := range paths {
		now, _ := check(p)
		if !bytes.Equal(now, warm[p]) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("compaction + retention dropped no data; the invalidation path went unexercised")
	}
}
