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

func TestDedupWindowReplaysItsLog(t *testing.T) {
	dir := t.TempDir()
	d := newDedupWindow()
	if err := d.openLog(dir, wal.FsyncNone); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tok, _, _ := d.begin(context.Background(), string(rune('a'+i)))
		tok.store(IngestResult{Accepted: i})
	}
	d.close()

	d2 := newDedupWindow()
	if err := d2.openLog(dir, wal.FsyncNone); err != nil {
		t.Fatal(err)
	}
	defer d2.close()
	_, res, err := d2.begin(context.Background(), "c")
	if err != nil || res == nil || res.Accepted != 2 || !res.Replayed {
		t.Fatalf("reloaded outcome = %+v, %v", res, err)
	}
	// An unknown key executes fresh.
	tok, res, _ := d2.begin(context.Background(), "zz")
	if tok == nil || res != nil {
		t.Fatalf("fresh key = %v %v", tok, res)
	}
	tok.abandon()
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

// TestDedupWindowDetachesFailedJournal: an outcome whose journal append
// fails still replays from memory, the loss is counted once, and the
// dead log is detached so later outcomes do not touch it.
func TestDedupWindowDetachesFailedJournal(t *testing.T) {
	d := newDedupWindow()
	if err := d.openLog(t.TempDir(), wal.FsyncNone); err != nil {
		t.Fatal(err)
	}
	if err := d.log.Close(); err != nil { // the journal dies underneath the window
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, key := range []string{"a", "b"} {
		tok, _, _ := d.begin(ctx, key)
		tok.store(IngestResult{Accepted: i + 1})
		if d.log != nil {
			t.Fatal("failed journal still attached")
		}
		if n := d.persistErrors(); n != 1 {
			t.Fatalf("after %q: persistErrors = %d, want 1", key, n)
		}
	}
	if _, res, err := d.begin(ctx, "a"); err != nil || res == nil || res.Accepted != 1 || !res.Replayed {
		t.Fatalf("replay from memory = %+v, %v", res, err)
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}
}

// TestDedupWindowTrimsUnderConcurrency: concurrent stores trim the
// journal below the oldest remembered outcome, and a reopen still
// replays every outcome the window remembered.
func TestDedupWindowTrimsUnderConcurrency(t *testing.T) {
	dir := t.TempDir()
	d := newDedupWindow()
	if err := d.openLog(dir, wal.FsyncNone); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				tok, _, err := d.begin(context.Background(), fmt.Sprintf("g%d-%d", g, i))
				if err != nil || tok == nil {
					t.Errorf("claim g%d-%d = %v, %v", g, i, tok, err)
					return
				}
				tok.store(IngestResult{Accepted: g*10000 + i})
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
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	d2 := newDedupWindow()
	if err := d2.openLog(dir, wal.FsyncNone); err != nil {
		t.Fatal(err)
	}
	defer d2.close()
	if n := d2.log.Segments(); n > 2 {
		t.Fatalf("journal spans %d segments after trimming, want <= 2", n)
	}
	for k, accepted := range want {
		e := d2.entries[k]
		if e == nil || !e.ok || e.res.Accepted != accepted {
			t.Fatalf("remembered outcome %q = %+v lost across the reopen (want accepted %d)", k, e, accepted)
		}
	}
}

// TestDedupWindowTrimDropsForgottenSegments: once the window has
// forgotten the outcomes a sealed segment holds, a trim deletes it,
// and the outcomes it still remembers replay after a reopen.
func TestDedupWindowTrimDropsForgottenSegments(t *testing.T) {
	dir := t.TempDir()
	d := newDedupWindow()
	if err := d.openLog(dir, wal.FsyncNone); err != nil {
		t.Fatal(err)
	}
	pad := []RowError{{Error: strings.Repeat("x", 256)}} // ~3k records a segment
	for i := 0; i < 3*maxDedupEntries; i++ {
		tok, _, _ := d.begin(context.Background(), fmt.Sprintf("k%d", i))
		tok.store(IngestResult{Accepted: i, Errors: pad})
	}
	if err := d.close(); err != nil {
		t.Fatal(err)
	}

	d2 := newDedupWindow()
	if err := d2.openLog(dir, wal.FsyncNone); err != nil {
		t.Fatal(err)
	}
	defer d2.close()
	if _, ok := d2.entries["k0"]; ok {
		t.Fatal("the first outcome's segment survived every trim")
	}
	for i := 2 * maxDedupEntries; i < 3*maxDedupEntries; i++ {
		if e := d2.entries[fmt.Sprintf("k%d", i)]; e == nil || e.res.Accepted != i {
			t.Fatalf("remembered outcome k%d = %+v lost across the reopen", i, e)
		}
	}
}

// TestDedupWindowUpgradesSnapshotLayout: a window written by the older
// layout, as its compaction left it — a snapshot of the live outcomes
// at a watermark, the log's active segment still holding records at and
// below it, and a tail above — boots with every fresh outcome once,
// leaves no snapshot behind, and replays the same after a second reopen.
func TestDedupWindowUpgradesSnapshotLayout(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	rec := func(key string, at time.Time, accepted int) []byte {
		p, err := json.Marshal(dedupRecord{Key: key, At: at, Res: IngestResult{Accepted: accepted}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// snap-1's segment was truncated: it lives in the snapshot alone.
	const watermark = 40
	log, err := wal.Open(dir, wal.Options{FirstSeq: watermark})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][]byte{
		rec("snap-2", now.Add(-time.Minute), 2), // seq 40, also in the snapshot
		rec("tail-1", now.Add(-30*time.Second), 10),
		rec("tail-2", now.Add(-30*time.Second), 11),
	} {
		if _, err := log.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	err = wal.WriteSnapshot(dir, watermark, func(sw *wal.SnapshotWriter) error {
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
		d := newDedupWindow()
		if err := d.openLog(dir, wal.FsyncNone); err != nil {
			t.Fatal(err)
		}
		if snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap")); len(snaps) != 0 {
			t.Fatalf("boot %d left snapshots %v", boot, snaps)
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
		if err := d.close(); err != nil {
			t.Fatal(err)
		}
	}
}

// A durable service opened and closed on an empty data dir journals its
// idempotency window in a log alone: no snapshot file appears.
func TestDurableServiceWritesNoDedupSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, ts := openDurableServer(t, dir)
	ts.Close()
	s.Close()
	if snaps, _ := filepath.Glob(filepath.Join(dir, "dedup", "*.snap")); len(snaps) != 0 {
		t.Fatalf("dedup snapshots %v", snaps)
	}
}
