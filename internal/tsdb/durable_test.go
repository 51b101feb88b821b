package tsdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
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
	keys := catalogKeys(eng)
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

	// A kill mid-append leaves a torn frame at the tail of the node
	// log; recovery must keep every whole record and drop the tear.
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
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
	if segs, _ := filepath.Glob(filepath.Join(shardDir, "*.seg")); len(segs) != 0 {
		t.Fatalf("shard dir holds log segments %v", segs)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal", "*.seg"))
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
	keys := catalogKeys(eng)
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

// The node log stays bounded however cold a shard is: one shard holds
// a single row above its snapshot while another goes through many
// snapshot cycles. The cold shard is made to publish, the floor moves
// past its row, and the row survives a reopen.
func TestDurableNodeLogStaysBounded(t *testing.T) {
	dir := t.TempDir()
	opts := ShardedOptions{Shards: 2, SnapshotEvery: 100, SegmentBytes: 2 << 10}
	eng := openDurable(t, dir, opts)
	var keys [2]SeriesKey
	for i := 0; keys[0].Device == "" || keys[1].Device == ""; i++ {
		dev := fmt.Sprintf("urn:district:turin/building:b01/device:n%d", i)
		keys[ShardOf(dev, 2)] = SeriesKey{Device: dev, Quantity: "temperature"}
	}
	cold, hot := keys[0], keys[1]
	if err := eng.Append(cold, Sample{At: durT0, Value: 1}); err != nil {
		t.Fatal(err)
	}
	first := eng.node.floor()
	most := 0
	for i := 0; i < 100; i++ { // 50 snapshot cycles of the hot shard
		rows := make([]Row, 50)
		for j := range rows {
			rows[j] = Row{Key: hot, Sample: Sample{At: durT0.Add(time.Duration(i*50+j) * time.Second), Value: float64(j)}}
		}
		if errs := eng.AppendBatch(rows); errs != nil {
			t.Fatal(errs[0])
		}
		most = max(most, eng.node.log.Segments())
	}
	if most > 8 {
		t.Fatalf("the node log grew to %d segments", most)
	}
	if f := eng.node.floor(); f <= first {
		t.Fatalf("floor %d never passed the cold shard's row (floor %d)", f, first)
	}
	if err := eng.CloseErr(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, opts)
	defer re.Close()
	if got, err := re.Latest(cold); err != nil || got.Value != 1 {
		t.Fatalf("cold row after the reopen = %+v, %v", got, err)
	}
	if got := re.Len(hot); got != 5000 {
		t.Fatalf("hot series holds %d rows after the reopen, want 5000", got)
	}
}

// A node-log record hands back its note and each shard's part; a
// record cut anywhere fails or yields a prefix of its parts, never a
// part it did not hold.
func TestNodeRecordCodecRoundTrip(t *testing.T) {
	rows := durRows(9)
	per := [][]Row{rows[:4], nil, rows[4:5], rows[5:]}
	enc := appendRecord(nil, []byte("note"), per)
	walk := func(p []byte) ([]byte, map[int][]Row, error) {
		got := map[int][]Row{}
		note, err := walkRecord(p, func(sh int, part []byte) error {
			r, err := decodeRows(part)
			got[sh] = r
			return err
		})
		return note, got, err
	}
	note, got, err := walk(enc)
	if err != nil || string(note) != "note" || len(got) != 3 {
		t.Fatalf("walk = %q, %d parts, %v", note, len(got), err)
	}
	for sh, part := range per {
		if len(part) > 0 && !reflect.DeepEqual(got[sh], part) {
			t.Fatalf("shard %d part %+v, want %+v", sh, got[sh], part)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, got, err := walk(enc[:cut]); err == nil {
			for sh, part := range got {
				if !reflect.DeepEqual(part, per[sh]) {
					t.Fatalf("a %d-byte prefix yields shard %d part %+v", cut, sh, part)
				}
			}
		}
	}
}

// TestSeriesRunsAcrossReopen drives random interleaved batches — equal
// timestamps, rows out of the store's time range and keyed notes among
// them — into a durable engine and reopens it. Every row error lands on
// its own row, each series reads back exactly as its rows arrived
// (ordered by time, equal timestamps in arrival order) before and after
// the reopen, the notes come back in order, and the node log is smaller
// than the records of the same batches in arrival order would be.
func TestSeriesRunsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	const shards = 4
	eng := openDurable(t, dir, ShardedOptions{Shards: shards, SnapshotEvery: -1})
	keys := make([]SeriesKey, 0, 24)
	for d := 0; d < 8; d++ {
		for _, q := range []string{"temperature", "humidity", "power"} {
			keys = append(keys, SeriesKey{Device: shKey(d).Device, Quantity: q})
		}
	}
	rng := rand.New(rand.NewPCG(54, 3))
	want := map[SeriesKey][]Sample{}
	var notes []string
	arrivalBytes := 0
	for b := 0; b < 60; b++ {
		rows := make([]Row, 1+rng.IntN(300))
		for i := range rows {
			at := durT0.Add(time.Duration(rng.IntN(120)) * time.Second) // few distinct instants: equal timestamps abound
			if rng.IntN(40) == 0 {
				at = time.Date(1500, 1, 1, 0, 0, 0, 0, time.UTC)
			}
			rows[i] = Row{Key: keys[rng.IntN(len(keys))], Sample: Sample{At: at, Value: float64(b*1000 + i)}}
		}
		var note []byte
		if b%3 == 0 {
			note = fmt.Appendf(nil, "delivery %d", b)
			notes = append(notes, string(note))
		}
		errs, _ := eng.AppendBatchNote(rows, nil, note)
		arrival := make([][]Row, shards)
		for i, r := range rows {
			var err error
			if errs != nil {
				err = errs[i]
			}
			if Storable(r.Sample.At) != (err == nil) || err != nil && !errors.Is(err, ErrTimeRange) {
				t.Fatalf("batch %d row %d (%v): error %v", b, i, r.Sample.At, err)
			}
			if err == nil {
				want[r.Key] = append(want[r.Key], r.Sample)
				sh := ShardOf(r.Key.Device, shards)
				arrival[sh] = append(arrival[sh], r)
			}
		}
		arrivalBytes += 8 + len(appendRecord(nil, note, arrival)) // a frame header and its record
	}
	for _, smps := range want {
		slices.SortStableFunc(smps, func(a, b Sample) int { return a.At.Compare(b.At) })
	}
	check := func(e *Sharded, when string) {
		t.Helper()
		for _, k := range keys {
			got, err := e.Query(k, durT0, durT0.Add(time.Hour))
			if err != nil && len(want[k]) > 0 {
				t.Fatalf("%s: %v: %v", when, k, err)
			}
			if !slices.Equal(got, want[k]) {
				t.Fatalf("%s: %v reads %v, want %v", when, k, got, want[k])
			}
		}
	}
	check(eng, "before the reopen")
	eng.Close()
	logBytes := int64(0)
	segs, err := wal.ListLog(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range segs {
		fi, err := os.Stat(filepath.Join(dir, "wal", wal.SeqName(base, ".seg")))
		if err != nil {
			t.Fatal(err)
		}
		logBytes += fi.Size()
	}
	if logBytes*3 > int64(arrivalBytes)*2 {
		t.Errorf("node log holds %d bytes; the batches in arrival order encode to %d, want at most two thirds", logBytes, arrivalBytes)
	}

	re := openDurable(t, dir, ShardedOptions{Shards: shards, SnapshotEvery: -1})
	defer re.Close()
	check(re, "after the reopen")
	var gotNotes []string
	for _, n := range re.Notes() {
		gotNotes = append(gotNotes, string(n.Data))
	}
	if !slices.Equal(gotNotes, notes) {
		t.Fatalf("notes after the reopen %q, want %q", gotNotes, notes)
	}
}
