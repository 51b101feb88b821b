package measuredb

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tsdb"
	"repro/internal/wal"
)

// openDurableServer builds a durable service over dir, plus its HTTP
// front. close=false leaves the service un-Closed — the in-process
// stand-in for a SIGKILL (everything acked was already write(2)-flushed
// or fsynced; nothing graceful runs).
func openDurableServer(t *testing.T, dir string) (*Service, *httptest.Server) {
	t.Helper()
	s, err := Open(Options{DataDir: dir, Fsync: wal.FsyncAlways, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, ts
}

func TestDurableIngestAndDedupSurviveKill(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := openDurableServer(t, dir)
	defer ts1.Close() // the service itself is deliberately NOT closed

	body := `{"rows":[
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20.5},
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:01:00Z","value":21}
	]}`
	code, rsp := postIngest(t, ts1.URL, "application/json", "crash-key-1", body)
	if code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, rsp)
	}
	preSamples := s1.Store().Stats().Samples
	if preSamples != 2 {
		t.Fatalf("pre-kill samples = %d", preSamples)
	}

	// "Restart": a second service over the same data dir.
	s2, ts2 := openDurableServer(t, dir)
	defer func() { ts2.Close(); s2.Close() }()
	if got := s2.Store().Stats().Samples; got != preSamples {
		t.Fatalf("recovered %d samples, want %d", got, preSamples)
	}

	// The same keyed batch replays from the persisted window instead of
	// double-appending.
	code, rsp = postIngest(t, ts2.URL, "application/json", "crash-key-1", body)
	if code != http.StatusOK {
		t.Fatalf("retry = %d: %s", code, rsp)
	}
	var res IngestResult
	if err := json.Unmarshal([]byte(rsp), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Replayed || res.Accepted != 2 {
		t.Fatalf("retry result = %+v, want replayed accepted=2", res)
	}
	if got := s2.Store().Stats().Samples; got != preSamples {
		t.Fatalf("retry duplicated rows: %d samples, want %d", got, preSamples)
	}

	// A fresh key still executes normally on the recovered service.
	code, rsp = postIngest(t, ts2.URL, "application/json", "crash-key-2", body)
	if code != http.StatusOK {
		t.Fatalf("fresh ingest = %d: %s", code, rsp)
	}
	if got := s2.Store().Stats().Samples; got != preSamples+2 {
		t.Fatalf("fresh ingest landed %d samples, want %d", got, preSamples+2)
	}
}

// TestDedupClaimTTL pins the regression from the never-completed-claim
// bug: a client that claims a key and dies mid-request (its handler
// never stores or abandons) must not park retries of that key forever —
// after the claim TTL, the next retry takes the claim over.
func TestDedupClaimTTL(t *testing.T) {
	d := newDedupWindow()
	var clockMu sync.Mutex
	now := time.Now()
	d.now = func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return now }
	advance := func(dt time.Duration) { clockMu.Lock(); now = now.Add(dt); clockMu.Unlock() }
	ctx := context.Background()

	tok1, res, err := d.begin(ctx, "k")
	if tok1 == nil || res != nil || err != nil {
		t.Fatalf("claim = %v %v %v", tok1, res, err)
	}
	// tok1's owner dies: neither store nor abandon ever runs.

	// Within the TTL, a retry with a deadline waits and then errors.
	cctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, _, err := d.begin(cctx, "k"); err == nil {
		t.Fatal("retry inside claim TTL did not wait")
	}

	// Past the TTL the claim is handed over and the retry re-executes.
	advance(claimTTL + time.Second)
	tok2, res, err := d.begin(ctx, "k")
	if err != nil || res != nil || tok2 == nil {
		t.Fatalf("post-TTL begin = %v %v %v", tok2, res, err)
	}
	tok2.store(IngestResult{Accepted: 3})

	// The stolen claim's late outcome is discarded: tok1 settling must
	// not clobber the new owner's stored result (and must not panic on
	// the already-closed done channel).
	tok1.store(IngestResult{Accepted: 99})
	_, res, err = d.begin(ctx, "k")
	if err != nil || res == nil || res.Accepted != 3 || !res.Replayed {
		t.Fatalf("replay after takeover = %+v, %v", res, err)
	}

	// Waiters blocked on the dead claim wake up when it is stolen and
	// line up behind the new owner.
	tok3, _, _ := d.begin(ctx, "k2")
	_ = tok3 // dead owner again
	woken := make(chan *IngestResult, 1)
	go func() {
		_, res, err := d.begin(ctx, "k2")
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		woken <- res
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block
	advance(claimTTL + time.Second)
	tok4, res, err := d.begin(ctx, "k2") // steals
	if tok4 == nil || res != nil || err != nil {
		t.Fatalf("steal = %v %v %v", tok4, res, err)
	}
	tok4.store(IngestResult{Accepted: 5})
	select {
	case res := <-woken:
		if res == nil || res.Accepted != 5 {
			t.Fatalf("woken waiter got %+v", res)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stayed parked after the claim was stolen")
	}
}

// A row ingested with a zone offset reads back byte-identical through
// every /v2 read before and after a compaction moves it from the head
// into a block: both tiers answer in UTC.
func TestV2ReadsSameFromHeadAndBlock(t *testing.T) {
	s, ts := openDurableServer(t, t.TempDir())
	defer func() { ts.Close(); s.Close() }()
	body := `{"rows":[
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T11:00:00+01:00","value":20.5},
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T11:00:30.25+01:00","value":21}
	]}`
	if code, rsp := postIngest(t, ts.URL, "application/json", "", body); code != http.StatusOK || !strings.Contains(rsp, `"accepted":2`) {
		t.Fatalf("ingest = %d: %s", code, rsp)
	}
	series := ts.URL + "/v2/series/" + url.PathEscape(ingestDevice) + "/temperature"
	query := []byte(`{"selectors":[{"device":"` + ingestDevice + `","quantity":"temperature"}]}`)
	read := func() [][]byte {
		var out [][]byte
		for _, u := range []string{series + "/samples", series + "/latest"} {
			code, b := getRaw(t, u)
			if code != http.StatusOK {
				t.Fatalf("GET %s = %d: %s", u, code, b)
			}
			out = append(out, b)
		}
		code, b := postRaw(t, ts.URL+"/v2/query", query)
		if code != http.StatusOK {
			t.Fatalf("POST /v2/query = %d: %s", code, b)
		}
		return append(out, b)
	}
	head := read()
	for i, b := range head {
		if !bytes.Contains(b, []byte(`"2015-03-09T10:00:30.25Z"`)) || bytes.Contains(b, []byte("+01:00")) {
			t.Fatalf("head read %d not in UTC: %s", i, b)
		}
	}
	if code, b := postRaw(t, ts.URL+"/v1/storage/compact", nil); code != http.StatusOK {
		t.Fatalf("compact = %d: %s", code, b)
	}
	var st StorageStatus
	if getJSON(t, ts.URL+"/v1/storage", &st) != http.StatusOK {
		t.Fatal("storage status")
	}
	blocks := 0
	for _, sh := range st.Shards {
		blocks += sh.Blocks
	}
	if blocks != 1 {
		t.Fatalf("compaction left %d blocks, want the rows in 1: %+v", blocks, st)
	}
	for i, b := range read() {
		if !bytes.Equal(b, head[i]) {
			t.Fatalf("read %d after compaction:\n%s\nbefore:\n%s", i, b, head[i])
		}
	}
}

// /v2/ingest rejects, row by row, the timestamps the store cannot keep
// and accepts the rest of the batch.
func TestV2IngestRejectsUnstorableInstants(t *testing.T) {
	s, ts := openDurableServer(t, t.TempDir())
	defer func() { ts.Close(); s.Close() }()
	body := `{"rows":[
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"0001-06-01T00:00:00Z","value":1},
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":2},
		{"device":"` + ingestDevice + `","quantity":"temperature","at":"2300-01-01T00:00:00Z","value":3}
	]}`
	code, rsp := postIngest(t, ts.URL, "application/json", "", body)
	if code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", code, rsp)
	}
	var res IngestResult
	if err := json.Unmarshal([]byte(rsp), &res); err != nil {
		t.Fatal(err)
	}
	want := []RowError{{Row: 0, Error: tsdb.ErrTimeRange.Error()}, {Row: 2, Error: tsdb.ErrTimeRange.Error()}}
	if res.Accepted != 1 || res.Rejected != 2 || len(res.Errors) != 2 || res.Errors[0] != want[0] || res.Errors[1] != want[1] {
		t.Fatalf("result %+v, want 1 accepted and rows 0, 2 rejected with %q", res, tsdb.ErrTimeRange)
	}
	if n := s.Store().Stats().Samples; n != 1 {
		t.Fatalf("store holds %d samples, want 1", n)
	}
}

// deliver runs one keyed delivery of rows the way the ingester's last
// flush does — the rows and the final note in one node-log record —
// and stores res.
func deliver(t *testing.T, d *dedupWindow, sh *tsdb.Sharded, key string, rows []tsdb.Row, res IngestResult) {
	t.Helper()
	tok, replay, err := d.begin(context.Background(), key)
	if err != nil || tok == nil || replay != nil {
		t.Errorf("claim %s = %v %v %v", key, tok, replay, err)
		return
	}
	errs, seq := sh.AppendBatchNote(rows, nil, tok.note(len(rows), &res))
	if errs != nil || seq == 0 {
		t.Errorf("journal %s: seq %d, %v", key, seq, errs)
	}
	tok.applied(seq, len(rows))
	tok.store(res)
}

// openWindow opens a durable engine over dir and a window attached to
// its node log, the way a durable service does.
func openWindow(t *testing.T, dir string, opts tsdb.ShardedOptions) (*dedupWindow, *tsdb.Sharded) {
	t.Helper()
	opts.Dir = dir
	sh, err := tsdb.OpenSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	d := newDedupWindow()
	d.attach(sh, sh.Notes())
	return d, sh
}

func TestDedupWindowReplaysItsLog(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := openDurableServer(t, dir)
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"rows":[{"device":%q,"quantity":"temperature","at":"2015-03-09T10:00:%02dZ","value":%d}]}`, ingestDevice, i, i)
		if code, rsp := postIngest(t, ts1.URL, "application/json", string(rune('a'+i)), body); code != http.StatusOK {
			t.Fatalf("ingest %d = %d: %s", i, code, rsp)
		}
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := openDurableServer(t, dir)
	defer func() { ts2.Close(); s2.Close() }()
	_, res, err := s2.dedup.begin(context.Background(), "c")
	if err != nil || res == nil || res.Accepted != 1 || !res.Replayed {
		t.Fatalf("reloaded outcome = %+v, %v", res, err)
	}
	// An unknown key executes fresh.
	tok, res, _ := s2.dedup.begin(context.Background(), "zz")
	if tok == nil || res != nil {
		t.Fatalf("fresh key = %v %v", tok, res)
	}
	tok.abandon()
}

// TestDedupWindowTrimsUnderConcurrency: concurrent keyed deliveries
// snapshot the shards and truncate the node log under the window's
// pin, and a reopen still replays every outcome the window remembered.
func TestDedupWindowTrimsUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	opts := tsdb.ShardedOptions{Shards: 2, SnapshotEvery: 256, SegmentBytes: 16 << 10}
	d, sh := openWindow(t, dir, opts)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				row := tsdb.Row{Key: tsdb.SeriesKey{Device: fmt.Sprintf("urn:d/%d", g), Quantity: "q"},
					Sample: tsdb.Sample{At: time.Unix(int64(i), 0), Value: 1}}
				deliver(t, d, sh, fmt.Sprintf("g%d-%d", g, i), []tsdb.Row{row}, IngestResult{Accepted: g*10000 + i})
			}
		}()
	}
	wg.Wait()
	want := map[string]int{}
	d.mu.Lock()
	for k, e := range d.entries {
		want[k] = e.res.Accepted
	}
	d.mu.Unlock()
	if err := sh.CloseErr(); err != nil {
		t.Fatal(err)
	}

	d2, sh2 := openWindow(t, dir, opts)
	defer sh2.Close()
	if n := sh2.ShardStatus(0).WALSegments; n > 40 {
		t.Fatalf("node log spans %d segments after trimming", n)
	}
	if got := sh2.Stats().Samples; got != 8*1500 {
		t.Fatalf("%d samples after the reopen, want %d", got, 8*1500)
	}
	for k, accepted := range want {
		e := d2.entries[k]
		if e == nil || !e.ok || e.res.Accepted != accepted {
			t.Fatalf("remembered outcome %q = %+v lost across the reopen (want accepted %d)", k, e, accepted)
		}
	}
}

// TestDedupWindowTrimDropsForgottenSegments: once the window has
// forgotten the outcomes a sealed node-log segment holds, and the
// shards have snapshotted its rows, a truncation deletes it, and the
// outcomes the window still remembers replay after a reopen.
func TestDedupWindowTrimDropsForgottenSegments(t *testing.T) {
	dir := t.TempDir()
	opts := tsdb.ShardedOptions{Shards: 1, SnapshotEvery: 512, SegmentBytes: 256 << 10}
	d, sh := openWindow(t, dir, opts)
	pad := []RowError{{Error: strings.Repeat("x", 256)}} // ~900 records a segment
	key := tsdb.SeriesKey{Device: ingestDevice, Quantity: "temperature"}
	for i := 0; i < 3*maxDedupEntries; i++ {
		row := tsdb.Row{Key: key, Sample: tsdb.Sample{At: time.Unix(int64(i), 0), Value: 1}}
		deliver(t, d, sh, fmt.Sprintf("k%d", i), []tsdb.Row{row}, IngestResult{Accepted: i, Errors: pad})
	}
	if err := sh.CloseErr(); err != nil {
		t.Fatal(err)
	}

	d2, sh2 := openWindow(t, dir, opts)
	defer sh2.Close()
	if _, ok := d2.entries["k0"]; ok {
		t.Fatal("the first outcome's segment survived every truncation")
	}
	if got := sh2.Stats().Samples; got != 3*maxDedupEntries {
		t.Fatalf("%d samples after the reopen, want %d", got, 3*maxDedupEntries)
	}
	for i := 2 * maxDedupEntries; i < 3*maxDedupEntries; i++ {
		if e := d2.entries[fmt.Sprintf("k%d", i)]; e == nil || e.res.Accepted != i {
			t.Fatalf("remembered outcome k%d = %+v lost across the reopen", i, e)
		}
	}
}

// TestDedupWindowUpgradesSnapshotLayout: the idempotency log of an older
// layout, as its compaction left it — a snapshot of the live outcomes at
// a watermark, the log's active segment still holding records at and
// below it, and a tail above — moves into the node log on the first
// boot: every fresh outcome replays once, dedup/ is gone, and the next
// boots replay the same from the node log.
func TestDedupWindowUpgradesSnapshotLayout(t *testing.T) {
	dir := t.TempDir()
	dedupDir := filepath.Join(dir, "dedup")
	now := time.Now()
	rec := func(key string, at time.Time, accepted int) []byte {
		p, err := json.Marshal(dedupNote{Key: key, At: at, Res: &IngestResult{Accepted: accepted}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// snap-1's segment was truncated: it lives in the snapshot alone.
	const watermark = 40
	log, err := wal.Open(dedupDir, wal.Options{FirstSeq: watermark})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{
		rec("snap-2", now.Add(-time.Minute), 2), // seq 40, also in the snapshot
		rec("tail-1", now.Add(-30*time.Second), 10),
		rec("tail-2", now.Add(-30*time.Second), 11),
		[]byte("not an outcome"),
	} {
		if _, err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	err = wal.WriteSnapshot(dedupDir, watermark, func(sw *wal.SnapshotWriter) error {
		return errors.Join(
			sw.Record(rec("snap-1", now.Add(-2*time.Minute), 1)),
			sw.Record(rec("snap-2", now.Add(-time.Minute), 2)),
			sw.Record(rec("snap-old", now.Add(-idempotencyWindow-time.Minute), 3)))
	})
	if err != nil {
		t.Fatal(err)
	}

	want := map[string]int{"snap-1": 1, "snap-2": 2, "tail-1": 10, "tail-2": 11}
	for boot := 1; boot <= 3; boot++ {
		s, ts := openDurableServer(t, dir)
		d := s.dedup
		if _, err := os.Stat(dedupDir); !os.IsNotExist(err) {
			t.Fatalf("boot %d left %s: %v", boot, dedupDir, err)
		}
		if len(d.entries) != len(want) || len(d.queue) != len(want) {
			t.Fatalf("boot %d: window holds %d keys under %d refs, want %d of each (the expired one dropped)",
				boot, len(d.entries), len(d.queue), len(want))
		}
		if boot == 3 {
			// The snapshot's outcomes are older than the tail's, though
			// the log now holds them after it: they leave the window first.
			d.now = func() time.Time { return now.Add(idempotencyWindow - 90*time.Second) }
			if tok, res, _ := d.begin(context.Background(), "snap-1"); tok == nil || res != nil {
				t.Fatalf("expired snap-1 = tok %v res %+v, want a fresh claim", tok, res)
			}
			want = map[string]int{"tail-1": 10}
		}
		for key, accepted := range want {
			_, res, err := d.begin(context.Background(), key)
			if err != nil || res == nil || res.Accepted != accepted || !res.Replayed {
				t.Fatalf("boot %d: %q replayed %+v, %v (want accepted %d)", boot, key, res, err, accepted)
			}
		}
		ts.Close()
		s.Close()
	}
}

// A durable service keeps one log directory for the store and the
// idempotency window, tsdb/wal, beside the stream journal: no dedup/,
// and no shard directory holds log segments — before a restart and
// after it.
func TestDurableServiceWritesNoDedupSnapshot(t *testing.T) {
	dir := t.TempDir()
	for boot := 1; boot <= 2; boot++ {
		s, ts := openDurableServer(t, dir)
		body := `{"rows":[{"device":"` + ingestDevice + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":1}]}`
		if code, rsp := postIngest(t, ts.URL, "application/json", fmt.Sprintf("layout-%d", boot), body); code != http.StatusOK {
			t.Fatalf("ingest = %d: %s", code, rsp)
		}
		ts.Close()
		s.Close()
		var got []string
		err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
			if err != nil || path == dir {
				return err
			}
			rel, _ := filepath.Rel(dir, path)
			switch {
			case e.IsDir() && (rel == "tsdb" || rel == "stream" || rel == filepath.Join("tsdb", "wal") || strings.HasPrefix(rel, filepath.Join("tsdb", "shard-"))):
			case !e.IsDir() && (rel == filepath.Join("tsdb", "engine.json") || strings.HasPrefix(rel, "stream"+string(filepath.Separator)) ||
				strings.HasPrefix(rel, filepath.Join("tsdb", "wal")+string(filepath.Separator)) && strings.HasSuffix(rel, ".seg") ||
				strings.HasPrefix(rel, filepath.Join("tsdb", "shard-")) && (strings.HasSuffix(rel, ".snap") || strings.HasSuffix(rel, ".blk"))):
			default:
				got = append(got, rel)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("boot %d: the data dir holds %v beyond tsdb/wal, tsdb/shard-NNNN snapshots and blocks, tsdb/engine.json and stream/", boot, got)
		}
		if _, err := os.Stat(filepath.Join(dir, "tsdb", "wal")); err != nil {
			t.Fatalf("boot %d: no node log: %v", boot, err)
		}
	}
}
