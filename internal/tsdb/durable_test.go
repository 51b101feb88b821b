package tsdb

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wal"
)

var durT0 = time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)

// durRows builds n rows spread over several devices, with per-series
// ascending timestamps.
func durRows(n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		dev := []string{"urn:district:turin/building:b01/device:d0",
			"urn:district:turin/building:b02/device:d1",
			"urn:district:turin/building:b03/device:d2"}[i%3]
		rows[i] = Row{
			Key:    SeriesKey{Device: dev, Quantity: "temperature"},
			Sample: Sample{At: durT0.Add(time.Duration(i) * time.Second), Value: float64(i) + 0.5},
		}
	}
	return rows
}

func openDurable(t *testing.T, dir string, opts ShardedOptions) *Sharded {
	t.Helper()
	opts.Dir = dir
	eng, err := OpenSharded(opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// assertSameContent verifies two engines hold identical samples for the
// given keys.
func assertSameContent(t *testing.T, want, got Engine, keys []SeriesKey) {
	t.Helper()
	for _, k := range keys {
		a, errA := want.Query(k, time.Time{}, durT0.Add(time.Hour))
		b, errB := got.Query(k, time.Time{}, durT0.Add(time.Hour))
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%v: err %v vs %v", k, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: %d vs %d samples (or differing content)", k, len(a), len(b))
		}
	}
}

func TestDurableRecoveryAfterClose(t *testing.T) {
	dir := t.TempDir()
	rows := durRows(500)
	eng := openDurable(t, dir, ShardedOptions{Shards: 4})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	keys := eng.Keys()
	wantStats := eng.Stats()
	eng.Close()

	re := openDurable(t, dir, ShardedOptions{Shards: 4})
	defer re.Close()
	if got := re.Stats(); got.Samples != wantStats.Samples || got.Series != wantStats.Series {
		t.Fatalf("recovered stats = %+v, want %+v", got, wantStats)
	}
	mem := newMem(t, Options{})
	for _, r := range rows {
		_ = mem.Append(r.Key, r.Sample)
	}
	assertSameContent(t, mem, re, keys)
}

func TestDurableRecoveryAfterKill(t *testing.T) {
	// No Close: the engine is abandoned the way a SIGKILL leaves it.
	// Every append was write(2)-flushed before acking, so even in fsync
	// mode none the rows survive the process (not machine) death.
	dir := t.TempDir()
	rows := durRows(300)
	eng := openDurable(t, dir, ShardedOptions{Shards: 2, Fsync: wal.FsyncAlways})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	want := eng.Stats()

	re := openDurable(t, dir, ShardedOptions{Shards: 2, Fsync: wal.FsyncAlways})
	defer re.Close()
	if got := re.Stats(); got.Samples != want.Samples {
		t.Fatalf("recovered %d samples, want %d", got.Samples, want.Samples)
	}
}

func TestDurableTornTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir, ShardedOptions{Shards: 1})
	rows := durRows(100)
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	eng.Close()

	// A kill mid-append leaves a torn frame at the tail of the shard's
	// WAL; recovery must keep every whole record and drop the tear.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-0000", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0x03, 0x00, 0x00, 0xbe, 0xef}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openDurable(t, dir, ShardedOptions{Shards: 1})
	defer re.Close()
	if got := re.Stats().Samples; got != 100 {
		t.Fatalf("recovered %d samples, want 100", got)
	}
	// And the log keeps working after the truncation.
	if err := re.Append(rows[0].Key, Sample{At: durT0.Add(time.Hour), Value: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestDurableSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir, ShardedOptions{
		Shards:        1,
		SnapshotEvery: 100,
		SegmentBytes:  1 << 10,
	})
	for i := 0; i < 10; i++ {
		if errs := eng.AppendBatch(durRows(100)[i*10 : i*10+10]); errs != nil {
			t.Fatalf("append: %v", errs)
		}
	}
	// Push enough rows through to cross the snapshot cadence repeatedly.
	rows := durRows(1000)
	for i := 0; i < 10; i++ {
		if errs := eng.AppendBatch(rows[i*100 : (i+1)*100]); errs != nil {
			t.Fatalf("append: %v", errs)
		}
	}
	want := eng.Stats()
	eng.Close()

	shardDir := filepath.Join(dir, "shard-0000")
	snaps, _ := filepath.Glob(filepath.Join(shardDir, "*.snap"))
	if len(snaps) == 0 {
		t.Fatal("no snapshot written")
	}
	if len(snaps) > 1 {
		t.Fatalf("old snapshots not pruned: %v", snaps)
	}
	segs, _ := filepath.Glob(filepath.Join(shardDir, "*.seg"))
	// 1100 rows at ~17 bytes each over 1 KiB segments would be ~19
	// segments without compaction; the truncation must have removed the
	// bulk of them.
	if len(segs) > 6 {
		t.Fatalf("WAL not compacted: %d segments", len(segs))
	}

	re := openDurable(t, dir, ShardedOptions{Shards: 1, SnapshotEvery: 100, SegmentBytes: 1 << 10})
	defer re.Close()
	if got := re.Stats(); got.Samples != want.Samples || got.Series != want.Series {
		t.Fatalf("recovered stats = %+v, want %+v", got, want)
	}
}

func TestDurableShardCountAdopted(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir, ShardedOptions{Shards: 4})
	rows := durRows(60)
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	eng.Close()

	// Reopening with a different shard count must adopt the on-disk
	// layout — rows are placed by device-hash % shards.
	re := openDurable(t, dir, ShardedOptions{Shards: 8})
	defer re.Close()
	if got := re.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want the created 4", got)
	}
	if got := re.Stats().Samples; got != 60 {
		t.Fatalf("recovered %d samples, want 60", got)
	}
}

func TestDurableSynchronousAppendJournaled(t *testing.T) {
	dir := t.TempDir()
	key := SeriesKey{Device: "urn:district:turin/building:b09/device:x", Quantity: "humidity"}
	eng := openDurable(t, dir, ShardedOptions{Shards: 2})
	if err := eng.Append(key, Sample{At: durT0, Value: 42}); err != nil {
		t.Fatal(err)
	}
	// Abandoned without Close: the synchronous Append must already be in
	// the WAL when it returned.
	re := openDurable(t, dir, ShardedOptions{Shards: 2})
	defer re.Close()
	smp, err := re.Latest(key)
	if err != nil || smp.Value != 42 {
		t.Fatalf("latest = %+v, %v", smp, err)
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	rows := []Row{
		{Key: SeriesKey{Device: "d1", Quantity: "temperature"}, Sample: Sample{At: durT0, Value: 1.25}},
		{Key: SeriesKey{Device: "d1", Quantity: "temperature"}, Sample: Sample{At: durT0.Add(time.Second), Value: -3}},
		{Key: SeriesKey{Device: "d2", Quantity: "humidity"}, Sample: Sample{At: durT0.Add(2 * time.Second), Value: math.MaxFloat64}},
		{Key: SeriesKey{Device: "", Quantity: ""}, Sample: Sample{At: durT0, Value: 0}},
	}
	enc := encodeRows(nil, rows)
	dec, err := decodeRows(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, dec) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", rows, dec)
	}
	// Truncated records must error, not panic or fabricate rows.
	for cut := 1; cut < len(enc); cut += 3 {
		if _, err := decodeRows(enc[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", cut)
		}
	}
}

// A durable head is bounded by its head window, not by a sample count:
// every acked row of a series is kept however many rows the window
// holds, before and after a snapshot has truncated the WAL that
// journaled them.
func TestDurableHeadKeepsEveryAckedRow(t *testing.T) {
	const n = 70000
	end := time.Now().UTC().Truncate(time.Millisecond).Add(-10 * time.Minute)
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: blockKey, Sample: Sample{At: end.Add(-time.Duration(n-1-i) * time.Millisecond), Value: 1}}
	}
	dir := t.TempDir()
	eng := openDurable(t, dir, ShardedOptions{Shards: 1})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatal(errs[0])
	}
	if got := eng.Len(blockKey); got != n {
		t.Fatalf("len %d after %d acked rows", got, n)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CloseErr(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, ShardedOptions{Shards: 1})
	defer re.Close()
	if agg, err := re.Aggregate(blockKey, time.Time{}, time.Now()); err != nil || agg.Count != n {
		t.Fatalf("reopened aggregate counts %d (%v), want %d", agg.Count, err, n)
	}
}

// A WAL append failure fails every row of the wave without applying
// any, counts them as dropped, and poisons the log: the next append
// fails too. Removing the shard directory makes the next segment roll
// fail.
func TestDurableWALFailureDropsRows(t *testing.T) {
	dir := t.TempDir()
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, SegmentBytes: 256})
	defer eng.Close()
	rows := durRows(30)
	if errs := eng.AppendBatch(rows[:10]); errs != nil {
		t.Fatal(errs[0])
	}
	keys := eng.Keys()
	lens := make([]int, len(keys))
	for i, k := range keys {
		lens[i] = eng.Len(k)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for i, batch := range [][]Row{rows[10:20], rows[20:]} {
		errs := eng.AppendBatch(batch)
		if len(errs) != len(batch) {
			t.Fatalf("append %d: %d errors for %d rows", i, len(errs), len(batch))
		}
		for j, err := range errs {
			if err == nil {
				t.Fatalf("append %d: row %d acked on a failed WAL", i, j)
			}
		}
		if got, want := eng.Stats().DroppedRows, uint64(10*(i+1)); got != want {
			t.Fatalf("append %d: %d dropped rows, want %d", i, got, want)
		}
	}
	for i, k := range keys {
		if got := eng.Len(k); got != lens[i] {
			t.Fatalf("%v: len %d after failed appends, want %d", k, got, lens[i])
		}
	}
}

// engine.json pins the shard count: a file that does not parse, or
// names no shards, refuses the open and names the file; a temp file
// left by a first boot cut short is overwritten, and the requested
// count adopted.
func TestEngineMetaFile(t *testing.T) {
	for _, tc := range []struct {
		name, file, content string
		wantErr             string // "" = the open succeeds
	}{
		{name: "unparsable", file: metaFile, content: `{"shards":`, wantErr: "unexpected end of JSON input"},
		{name: "zero shards", file: metaFile, content: `{"shards":0}`, wantErr: "0 shards"},
		{name: "leftover temp", file: metaFile + ".tmp", content: `{"sha`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, tc.file), []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			eng, err := OpenSharded(ShardedOptions{Dir: dir, Shards: 3})
			if tc.wantErr != "" {
				if err == nil {
					eng.Close()
					t.Fatal("open succeeded")
				}
				if msg := err.Error(); !strings.Contains(msg, filepath.Join(dir, metaFile)) || !strings.Contains(msg, tc.wantErr) {
					t.Fatalf("err = %q, want it to name %s and %q", msg, metaFile, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if got := eng.NumShards(); got != 3 {
				t.Fatalf("shards = %d, want 3", got)
			}
			raw, err := os.ReadFile(filepath.Join(dir, metaFile))
			if err != nil || string(raw) != `{"shards":3}` {
				t.Fatalf("%s = %q, %v", metaFile, raw, err)
			}
			if _, err := os.Stat(filepath.Join(dir, metaFile+".tmp")); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
		})
	}
}
