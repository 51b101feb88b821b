package tsdb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/block"
	"repro/internal/obs"
)

// blockKey is the single series most block tests revolve around.
var blockKey = SeriesKey{Device: "urn:district:turin/building:b01/device:d0", Quantity: "temperature"}

// oldRows builds n rows per key ending well before now, so a compaction
// with a short head window cuts all of them. Timestamps are UTC and
// second-aligned so they survive the row codec byte-for-byte.
func oldRows(n int, keys ...SeriesKey) []Row {
	base := time.Now().UTC().Truncate(time.Second).Add(-3 * time.Hour)
	rows := make([]Row, 0, n*len(keys))
	for i := 0; i < n; i++ {
		for _, k := range keys {
			rows = append(rows, Row{
				Key:    k,
				Sample: Sample{At: base.Add(time.Duration(i) * time.Second), Value: float64(i) + 0.25},
			})
		}
	}
	return rows
}

// memReference loads rows into an in-memory engine, whose block sets
// stay empty: the behavioural oracle every merged read path is compared
// against.
func memReference(t *testing.T, rows []Row) Engine {
	mem := newMem(t, Options{})
	for _, r := range rows {
		_ = mem.Append(r.Key, r.Sample)
	}
	return mem
}

// assertReadsEqual compares every read path between the oracle and the
// engine under test, byte for byte.
func assertReadsEqual(t *testing.T, want, got Engine, key SeriesKey, from, to time.Time) {
	t.Helper()
	a, errA := want.Query(key, from, to)
	b, errB := got.Query(key, from, to)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("query err: %v vs %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("query: %d vs %d samples (or differing content)", len(a), len(b))
	}
	aggA, errA := want.Aggregate(key, from, to)
	aggB, errB := got.Aggregate(key, from, to)
	if (errA == nil) != (errB == nil) || !reflect.DeepEqual(aggA, aggB) {
		t.Fatalf("aggregate: %+v (%v) vs %+v (%v)", aggA, errA, aggB, errB)
	}
	for _, window := range []time.Duration{time.Minute, time.Hour, 90 * time.Second} {
		dsA, errA := want.Downsample(key, from, to, window)
		dsB, errB := got.Downsample(key, from, to, window)
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(dsA, dsB) {
			t.Fatalf("downsample %v: %d (%v) vs %d (%v) buckets\n%+v\n%+v",
				window, len(dsA), errA, len(dsB), errB, dsA, dsB)
		}
	}
	lA, errA := want.Latest(key)
	lB, errB := got.Latest(key)
	if (errA == nil) != (errB == nil) || lA != lB {
		t.Fatalf("latest: %+v (%v) vs %+v (%v)", lA, errA, lB, errB)
	}
	if la, lb := want.Len(key), got.Len(key); la != lb {
		t.Fatalf("len: %d vs %d", la, lb)
	}
}

func TestBlockCompactionPreservesEveryReadPath(t *testing.T) {
	dir := t.TempDir()
	k2 := SeriesKey{Device: "urn:district:turin/building:b02/device:d1", Quantity: "humidity"}
	rows := oldRows(500, blockKey, k2)
	eng := openDurable(t, dir, ShardedOptions{
		Shards: 2,
		Blocks: BlockPolicy{HeadWindow: time.Minute},
	})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// Everything is older than the 1m head window, so it all lives in
	// blocks now; the head must be empty of those rows but every read
	// path must still see them exactly.
	var bTotal int
	for i := 0; i < eng.NumShards(); i++ {
		bTotal += eng.ShardStatus(i).Blocks
	}
	if bTotal == 0 {
		t.Fatal("no blocks cut")
	}
	mem := memReference(t, rows)
	from, to := time.Time{}, time.Now()
	assertReadsEqual(t, mem, eng, blockKey, from, to)
	assertReadsEqual(t, mem, eng, k2, from, to)
	if got, want := catalogKeys(eng), catalogKeys(mem); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys: %v vs %v", got, want)
	}
	sh := eng.ShardFor(blockKey.Device)
	if got, want := deviceKeys(eng.Catalog(sh), blockKey.Device), deviceKeys(catalogKeys(mem), blockKey.Device); !reflect.DeepEqual(got, want) {
		t.Fatalf("keys for device: %v vs %v", got, want)
	}
	// Writes after compaction land in the head and merge seamlessly.
	late := Sample{At: time.Now().UTC().Truncate(time.Second), Value: 99.5}
	if err := eng.Append(blockKey, late); err != nil {
		t.Fatal(err)
	}
	_ = mem.Append(blockKey, late)
	assertReadsEqual(t, mem, eng, blockKey, from, time.Now())
}

func TestBlockCompactionSurvivesRestartAndKill(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(400, blockKey)
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	mem := memReference(t, rows)

	// Clean close, reopen: the manifest snapshot anchors the blocks.
	eng.Close()
	re := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	assertReadsEqual(t, mem, re, blockKey, time.Time{}, time.Now())
	if re.ShardStatus(0).Blocks == 0 {
		t.Fatal("blocks not adopted after restart")
	}

	// Append more, compact, abandon without Close (kill): the snapshot +
	// manifest written by the compaction must fully recover.
	late := oldRows(50, blockKey)
	for i := range late {
		late[i].Sample.At = late[i].Sample.At.Add(20 * time.Minute)
		_ = mem.Append(late[i].Key, late[i].Sample)
	}
	if errs := re.AppendBatch(late); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := re.CompactAll(); err != nil {
		t.Fatal(err)
	}
	re2 := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer re2.Close()
	assertReadsEqual(t, mem, re2, blockKey, time.Time{}, time.Now())
}

func TestBlockCursorStableAcrossCompaction(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(600, blockKey)
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}

	// Walk a few pages against the pure head, compact mid-walk (the rows
	// move from RAM into a block file), then finish the walk. The
	// value-based cursor must keep the union exact: no duplicate, no gap.
	var got []Sample
	var cur Cursor
	to := time.Now()
	pages := 0
	for {
		page, err := eng.QueryPage(blockKey, time.Time{}, to, cur, 50)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Samples...)
		pages++
		if pages == 3 {
			if err := eng.CompactAll(); err != nil {
				t.Fatal(err)
			}
			if eng.ShardStatus(0).Blocks == 0 {
				t.Fatal("compaction cut no block mid-walk")
			}
		}
		if !page.More {
			break
		}
		cur = page.Next
	}
	if len(got) != len(rows) {
		t.Fatalf("cursor walk returned %d samples, want %d", len(got), len(rows))
	}
	for i, smp := range got {
		if !smp.At.Equal(rows[i].Sample.At) || smp.Value != rows[i].Sample.Value {
			t.Fatalf("sample %d = %+v, want %+v", i, smp, rows[i].Sample)
		}
	}
}

func TestBlockReadsUnderConcurrentCompaction(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(300, blockKey)
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	mem := memReference(t, rows)
	want, err := mem.Query(blockKey, time.Time{}, time.Now())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The first cycle cuts the block; later ones are no-op snapshots,
		// still exercising the publish+evict swap against readers.
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.CompactAll(); err != nil {
				return
			}
		}
	}()
	to := time.Now()
	for i := 0; i < 200; i++ {
		got, err := eng.Query(blockKey, time.Time{}, to)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("iteration %d: %d vs %d samples (or differing content)", i, len(want), len(got))
		}
	}
	close(stop)
	wg.Wait()
}

func TestBlockOrphanAndTmpCleanedOnRecovery(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(100, blockKey)
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	eng.Close() // no compaction ran: the WAL holds every row

	// A crash between block rename and snapshot write leaves a .blk the
	// manifest does not list, plus possibly an abandoned temp file. Both
	// must be deleted on recovery, and no data lost (the WAL was never
	// truncated past them).
	shardDir := filepath.Join(dir, "shard-0000")
	orphan := filepath.Join(shardDir, "00000000000000ff.blk")
	if err := os.WriteFile(orphan, []byte("not a block at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(shardDir, "0000000000000100.blk.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer re.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan block not deleted: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp block not deleted: %v", err)
	}
	mem := memReference(t, rows)
	assertReadsEqual(t, mem, re, blockKey, time.Time{}, time.Now())
}

// A shard dir that cannot be listed fails the open: taking the next
// block id as 1 would let the next cut rename its file over a listed
// block.
func TestBlockUnlistableDirFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard-0000")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if blocks, nextID, err := openManifestBlocks(path, nil); err == nil {
		t.Fatalf("openManifestBlocks on a regular file = %d blocks, next id %d, no error", len(blocks), nextID)
	}
}

func TestBlockCorruptManifestBlockFailsOpenLoudly(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(200, blockKey)
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	blks, err := filepath.Glob(filepath.Join(dir, "shard-0000", "*.blk"))
	if err != nil || len(blks) == 0 {
		t.Fatalf("no block files: %v", err)
	}
	// Truncating a manifest-listed block is real data loss (the WAL below
	// it is gone); recovery must fail loudly, never silently serve less.
	if err := os.Truncate(blks[0], 10); err != nil {
		t.Fatal(err)
	}
	opts := ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}}
	opts.Dir = dir
	if re, err := OpenSharded(opts); err == nil {
		re.Close()
		t.Fatal("open succeeded over a corrupt manifest-listed block")
	}
}

func TestBlockRetentionDemoteGolden(t *testing.T) {
	dir := t.TempDir()
	// One sample per minute, minute i carrying value i+1, ending hours in
	// the past — all beyond both the head window and the raw horizon.
	base := time.Now().UTC().Truncate(time.Hour).Add(-6 * time.Hour)
	var rows []Row
	for i := 0; i < 10; i++ {
		rows = append(rows, Row{Key: blockKey, Sample: Sample{
			At: base.Add(time.Duration(i)*time.Minute + 5*time.Second), Value: float64(i + 1)}})
	}
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{
		HeadWindow:   time.Minute,
		RetentionRaw: time.Hour,
	}})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	// First cycle cuts the block; the second demotes it (a block is only
	// demotable once it exists and lies wholly past the horizon).
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	st := eng.ShardStatus(0)
	if st.Blocks == 0 {
		t.Fatal("no blocks")
	}
	if st.BlockSamples != 10 {
		t.Fatalf("index samples = %d, want 10 (demotion must keep counts)", st.BlockSamples)
	}

	// Raw reads of the demoted range come back empty — the samples are
	// gone by policy, not error.
	got, err := eng.Query(blockKey, time.Time{}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("demoted raw query returned %d samples, want 0", len(got))
	}

	// Whole-series aggregate stays exact: the index aggregates were built
	// from the raw data before demotion.
	agg, err := eng.Aggregate(blockKey, time.Time{}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 10 || agg.Min != 1 || agg.Max != 10 || agg.Sum != 55 || agg.Mean != 5.5 ||
		agg.First.Value != 1 || agg.Last.Value != 10 {
		t.Fatalf("whole-range aggregate = %+v", agg)
	}

	// Partial range over a demoted block folds whole 1m buckets that
	// overlap [from, to]: minutes 2, 3 and 4 here (minute 5's sample sits
	// at +5s past `to`).
	agg, err = eng.Aggregate(blockKey, base.Add(2*time.Minute), base.Add(5*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 3 || agg.Min != 3 || agg.Max != 5 || agg.Sum != 12 {
		t.Fatalf("partial demoted aggregate = %+v, want count 3 min 3 max 5 sum 12", agg)
	}

	// 1m downsample over the demoted range reproduces the original
	// buckets exactly (one sample per bucket).
	buckets, err := eng.Downsample(blockKey, base, base.Add(10*time.Minute), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 10 {
		t.Fatalf("downsample over demoted block: %d buckets, want 10", len(buckets))
	}
	for i, b := range buckets {
		if b.Count != 1 || b.Min != float64(i+1) || b.Max != float64(i+1) {
			t.Fatalf("bucket %d = %+v", i, b)
		}
	}

	// Latest survives demotion through the index aggregates.
	last, err := eng.Latest(blockKey)
	if err != nil || last.Value != 10 {
		t.Fatalf("latest after demotion = %+v, %v", last, err)
	}
}

func TestBlockRetentionRollupDropGolden(t *testing.T) {
	dir := t.TempDir()
	old := oldRows(50, blockKey) // ~3h old
	fresh := SeriesKey{Device: "urn:district:turin/building:b01/device:d9", Quantity: "temperature"}
	now := time.Now().UTC().Truncate(time.Second)
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{
		HeadWindow:      time.Minute,
		RetentionRollup: 2 * time.Hour,
	}})
	defer eng.Close()
	if errs := eng.AppendBatch(old); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := eng.Append(fresh, Sample{At: now, Value: 7}); err != nil {
		t.Fatal(err)
	}
	// Cycle one cuts the old rows into a block (entirely past the 2h
	// rollup horizon); cycle two deletes that block.
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if st := eng.ShardStatus(0); st.Blocks != 0 {
		t.Fatalf("expired block not dropped: %+v", st)
	}
	blks, _ := filepath.Glob(filepath.Join(dir, "shard-0000", "*.blk"))
	if len(blks) != 0 {
		t.Fatalf("expired block files left on disk: %v", blks)
	}
	// The expired series is gone entirely, and the same before and after
	// a restart: the pass that deleted its last block dropped the head
	// entry the cut had emptied, and a restart rebuilds the head from the
	// snapshot, which has no rows for it.
	expired := func(when string, e *Sharded) {
		t.Helper()
		if _, err := e.Query(blockKey, time.Time{}, time.Now()); err != ErrNoSeries {
			t.Fatalf("%s: expired series query err = %v, want ErrNoSeries", when, err)
		}
		if _, err := e.Aggregate(blockKey, time.Time{}, time.Now()); err != ErrNoSeries {
			t.Fatalf("%s: expired series aggregate err = %v, want ErrNoSeries", when, err)
		}
		if n := e.Len(blockKey); n != 0 {
			t.Fatalf("%s: expired series len = %d, want 0", when, n)
		}
		if n := e.Len(fresh); n != 1 {
			t.Fatalf("%s: fresh series len = %d, want 1", when, n)
		}
		if got := catalogKeys(e); !reflect.DeepEqual(got, []SeriesKey{fresh}) {
			t.Fatalf("%s: catalog = %v, want only %v", when, got, fresh)
		}
		if st := e.Stats(); st.Series != 1 {
			t.Fatalf("%s: stats = %+v, want 1 series", when, st)
		}
	}
	expired("before restart", eng)
	eng.Close()
	re := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{
		HeadWindow:      time.Minute,
		RetentionRollup: 2 * time.Hour,
	}})
	defer re.Close()
	expired("after restart", re)
}

// archiveShard copies shard i's directory, published first, as a
// handoff archive carries it (every regular file), into a new directory.
func archiveShard(t *testing.T, eng *Sharded, i int) string {
	t.Helper()
	if err := eng.SyncShard(i); err != nil {
		t.Fatal(err)
	}
	dst := t.TempDir()
	ents, err := os.ReadDir(eng.ShardDir(i))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(eng.ShardDir(i), e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// headRows lists the rows a shard's head holds.
func headRows(s *Store) []Row {
	var rows []Row
	for _, k := range s.keys() {
		pts, _ := s.appendPoints(nil, k, math.MinInt64, 0, math.MaxInt64, -1)
		for _, p := range pts {
			rows = append(rows, Row{Key: k, Sample: Sample{At: time.Unix(0, p.T).UTC(), Value: p.V}})
		}
	}
	return rows
}

func TestBlockImportAndReset(t *testing.T) {
	src := t.TempDir()
	rows := oldRows(120, blockKey)
	eng := openDurable(t, src, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	dst := t.TempDir()
	re := openDurable(t, dst, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer re.Close()
	// The restore imports the archive's one block; every row is in it.
	if n, err := re.RestoreShard(0, filepath.Join(src, "shard-0000")); err != nil || n != 0 {
		t.Fatalf("restore = %d head rows, %v; want 0, nil", n, err)
	}
	if st := re.ShardStatus(0); st.Blocks != 1 {
		t.Fatalf("restore left %d blocks, want 1", st.Blocks)
	}
	mem := memReference(t, rows)
	assertReadsEqual(t, mem, re, blockKey, time.Time{}, time.Now())

	// Reset wipes blocks too, durably.
	if err := re.ResetShard(0); err != nil {
		t.Fatal(err)
	}
	if _, err := re.Query(blockKey, time.Time{}, time.Now()); err != ErrNoSeries {
		t.Fatalf("query after reset err = %v, want ErrNoSeries", err)
	}
	blks, _ := filepath.Glob(filepath.Join(dst, "shard-0000", "*.blk"))
	if len(blks) != 0 {
		t.Fatalf("reset left block files: %v", blks)
	}
}

// TestRestoreShardRefusesAForeignDevice: an archive holding a device that
// hashes to another shard — among its head rows, or only in a block — is
// refused whole, and the shard and the node log are as they were. A
// restore that succeeds journals nothing either: its one snapshot covers
// the rows.
func TestRestoreShardRefusesAForeignDevice(t *testing.T) {
	const shards = 2
	opts := ShardedOptions{Shards: shards, Blocks: BlockPolicy{HeadWindow: time.Minute}}
	var own, foreign SeriesKey
	for d := 0; own.Device == "" || foreign.Device == ""; d++ {
		k := shKey(d)
		if ShardOf(k.Device, shards) == 1 {
			own = k
		} else {
			foreign = k
		}
	}
	now := time.Now().UTC().Truncate(time.Second)
	fresh := func(k SeriesKey, n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Key: k, Sample: Sample{At: now.Add(time.Duration(i-n) * time.Second), Value: float64(i)}}
		}
		return rows
	}
	// archive builds a one-shard engine's archive: the old rows cut into
	// a block, the fresh ones left in the head.
	archive := func(old, head []Row) string {
		src := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Blocks: opts.Blocks})
		defer src.Close()
		for _, rows := range [][]Row{old, head} {
			if errs := src.AppendBatch(rows); errs != nil {
				t.Fatal(errs)
			}
			if err := src.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
		return archiveShard(t, src, 0)
	}

	eng := openDurable(t, t.TempDir(), opts)
	defer eng.Close()
	local := SeriesKey{Device: own.Device, Quantity: "humidity"}
	if errs := eng.AppendBatch(fresh(local, 5)); errs != nil {
		t.Fatal(errs)
	}
	before := eng.Catalog(1)
	for _, tc := range []struct {
		name      string
		old, head []Row
	}{
		{"head row", oldRows(10, own), append(fresh(own, 5), fresh(foreign, 1)...)},
		{"block series", oldRows(10, own, foreign), fresh(own, 5)},
	} {
		seq := eng.node.log.LastSeq()
		if _, err := eng.RestoreShard(1, archive(tc.old, tc.head)); err == nil {
			t.Fatalf("%s: an archive with a device of shard 0 restored into shard 1", tc.name)
		}
		if got := eng.Catalog(1); !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: refused restore changed the shard: catalog %v, want %v", tc.name, got, before)
		}
		if n := eng.Len(local); n != 5 {
			t.Fatalf("%s: refused restore left %d local rows, want 5", tc.name, n)
		}
		if got := eng.node.log.LastSeq(); got != seq {
			t.Fatalf("%s: refused restore moved the node log from seq %d to %d", tc.name, seq, got)
		}
	}

	old, head := oldRows(10, own), fresh(own, 5)
	seq := eng.node.log.LastSeq()
	n, err := eng.RestoreShard(1, archive(old, head))
	if err != nil || n != len(head) {
		t.Fatalf("restore = %d head rows, %v; want %d, nil", n, err, len(head))
	}
	if got := eng.node.log.LastSeq(); got != seq {
		t.Fatalf("restore moved the node log from seq %d to %d: it journaled rows", seq, got)
	}
	if n := eng.Len(local); n != 0 {
		t.Fatalf("restore kept %d rows the archive does not hold", n)
	}
	assertReadsEqual(t, memReference(t, append(old, head...)), eng, own, time.Time{}, time.Now())
}

// TestRestoreShardFailureEmptiesTheShard: an archive whose block reads
// back corrupt fails the restore past its checks, in the block copy;
// the shard is then empty, and stays empty after a reopen, so a retry
// starts from nothing.
func TestRestoreShardFailureEmptiesTheShard(t *testing.T) {
	opts := ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}}
	src := openDurable(t, t.TempDir(), opts)
	if errs := src.AppendBatch(oldRows(100, blockKey)); errs != nil {
		t.Fatal(errs)
	}
	if err := src.CompactAll(); err != nil {
		t.Fatal(err)
	}
	arch := archiveShard(t, src, 0)
	src.Close()
	blks, _ := filepath.Glob(filepath.Join(arch, "*.blk"))
	if len(blks) != 1 {
		t.Fatalf("archive blocks: %v", blks)
	}
	f, err := os.OpenFile(blks[0], os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte{0xff, 0xfe}, 32) // inside the raw chunk, past the index's reach
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	eng := openDurable(t, dir, opts)
	if errs := eng.AppendBatch(oldRows(50, blockKey)); errs != nil {
		t.Fatal(errs)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RestoreShard(0, arch); err == nil {
		t.Fatal("an archive with a corrupt block restored")
	}
	empty := func(when string, e *Sharded) {
		t.Helper()
		if cat := e.Catalog(0); len(cat) != 0 {
			t.Fatalf("%s: shard lists %v, want nothing", when, cat)
		}
		if st := e.ShardStatus(0); st.Blocks != 0 || st.Samples != 0 {
			t.Fatalf("%s: shard holds %+v, want nothing", when, st)
		}
	}
	empty("after the failed restore", eng)
	eng.Close()
	re := openDurable(t, dir, opts)
	defer re.Close()
	empty("after a reopen", re)
}

// TestRestoreShardInMemory: an in-memory engine restores an archive
// without blocks, and refuses one with blocks, unchanged.
func TestRestoreShardInMemory(t *testing.T) {
	mk := func(rows []Row, compact bool) string {
		src := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
		defer src.Close()
		if errs := src.AppendBatch(rows); errs != nil {
			t.Fatal(errs)
		}
		if compact {
			if err := src.CompactAll(); err != nil {
				t.Fatal(err)
			}
		}
		return archiveShard(t, src, 0)
	}
	rows := oldRows(40, blockKey)
	mem := newMem(t, Options{})
	if n, err := mem.RestoreShard(0, mk(rows, false)); err != nil || n != len(rows) {
		t.Fatalf("block-less restore = %d rows, %v; want %d, nil", n, err, len(rows))
	}
	assertReadsEqual(t, memReference(t, rows), mem, blockKey, time.Time{}, time.Now())
	if _, err := mem.RestoreShard(0, mk(oldRows(10, shKey(3)), true)); !errors.Is(err, errNotDurable) {
		t.Fatalf("restore of blocks in memory: err %v, want %v", err, errNotDurable)
	}
	assertReadsEqual(t, memReference(t, rows), mem, blockKey, time.Time{}, time.Now())
}

func TestBlockVerifyShardDir(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(150, blockKey)
	eng := openDurable(t, dir, ShardedOptions{Shards: 2, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	results, err := VerifyDataDir(dir)
	if err != nil {
		t.Fatalf("verify clean dir: %v", err)
	}
	if len(results) != 2 {
		t.Fatalf("verified %d shard dirs, want 2", len(results))
	}
	var blocks int
	for _, r := range results {
		blocks += r.Blocks
		if len(r.OrphanBlocks) != 0 {
			t.Fatalf("unexpected orphans: %v", r.OrphanBlocks)
		}
	}
	if blocks == 0 {
		t.Fatal("verify saw no blocks")
	}

	// Corruption must surface.
	blks, _ := filepath.Glob(filepath.Join(dir, "shard-*", "*.blk"))
	if len(blks) == 0 {
		t.Fatal("no block files")
	}
	f, err := os.OpenFile(blks[0], os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff, 0xfe}, 32); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := VerifyDataDir(dir); err == nil {
		t.Fatal("verify passed over a corrupt block")
	}
}

func TestBlockStatsAndStatusAccounting(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(1000, blockKey)
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	before := eng.Stats()
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	after := eng.Stats()
	if before.Samples != after.Samples || before.Series != after.Series {
		t.Fatalf("stats changed across compaction: %+v vs %+v", before, after)
	}
	st := eng.ShardStatus(0)
	if st.Blocks == 0 || st.BlockBytes == 0 || st.BlockSamples != 1000 {
		t.Fatalf("shard status = %+v", st)
	}
	if st.Samples != 1000 || st.Series != 1 {
		t.Fatalf("shard status merged counts = %+v", st)
	}
	// Restart tables are heap the status reports: none until a read
	// starts inside a block's chunk, then one for the series it read.
	if st.RestartBytes != 0 {
		t.Fatalf("restart bytes %d before any read", st.RestartBytes)
	}
	if _, err := eng.Query(blockKey, rows[600].Sample.At, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.ShardStatus(0); st.RestartBytes <= 0 || st.RestartBytes > 1000/128*48 {
		t.Fatalf("restart bytes %d after a read from mid-block, want (0, %d]", st.RestartBytes, 1000/128*48)
	}
	// So are the cached 1h rollups: none until an aggregate covers the
	// block in part, then one Bucket per hour the 1000 s touch.
	if st.RollupBytes != 0 {
		t.Fatalf("rollup bytes %d before any aggregate", st.RollupBytes)
	}
	if _, err := eng.Aggregate(blockKey, rows[600].Sample.At, time.Time{}); err != nil {
		t.Fatal(err)
	}
	size := int64(unsafe.Sizeof(block.Bucket{}))
	if st := eng.ShardStatus(0); st.RollupBytes != size && st.RollupBytes != 2*size {
		t.Fatalf("rollup bytes %d after a partial aggregate, want %d or %d", st.RollupBytes, size, 2*size)
	}
}

func TestBlockHeadWindowDisabledKeepsLegacySnapshots(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(100, blockKey)
	eng := openDurable(t, dir, ShardedOptions{
		Shards:        1,
		SnapshotEvery: 50,
		Blocks:        BlockPolicy{HeadWindow: -1},
	})
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if st := eng.ShardStatus(0); st.Blocks != 0 {
		t.Fatalf("blocks cut despite disabled head window: %+v", st)
	}
	eng.Close()
	re := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: -1}})
	defer re.Close()
	mem := memReference(t, rows)
	assertReadsEqual(t, mem, re, blockKey, time.Time{}, time.Now())
}

// TestBlockViewChangesResetSnapshotGauges holds every view change to the
// same bookkeeping: after a forced compaction, a restore and a reset,
// the shard's snapshot age has restarted and no row counts as pending
// above the new snapshot's watermark.
func TestBlockViewChangesResetSnapshotGauges(t *testing.T) {
	policy := BlockPolicy{HeadWindow: time.Minute}
	src := t.TempDir()
	srcEng := openDurable(t, src, ShardedOptions{Shards: 1, Blocks: policy})
	if errs := srcEng.AppendBatch(oldRows(50, blockKey)); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := srcEng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	srcEng.Close()

	reg := obs.NewRegistry()
	eng := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Blocks: policy, Metrics: reg})
	defer eng.Close()
	gauge := func(name string) float64 {
		t.Helper()
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				return s.Value
			}
		}
		t.Fatalf("%s not registered", name)
		return 0
	}
	ops := []struct {
		name string
		run  func() error
	}{
		{"compact", func() error { return eng.CompactShard(0) }},
		{"restore", func() error { _, err := eng.RestoreShard(0, filepath.Join(src, "shard-0000")); return err }},
		{"reset", func() error { return eng.ResetShard(0) }},
	}
	head := SeriesKey{Device: "urn:district:turin/building:b02/device:d1", Quantity: "humidity"}
	for round, op := range ops {
		// N rows inside the head window, journaled above the watermark.
		const n = 25
		now := time.Now().UTC().Truncate(time.Second)
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Key: head, Sample: Sample{At: now.Add(time.Duration(i-n) * time.Second), Value: float64(round*n + i)}}
		}
		if errs := eng.AppendBatch(rows); errs != nil {
			t.Fatalf("%s: append: %v", op.name, errs)
		}
		if got := eng.ShardStatus(0).WALPending; got != n {
			t.Fatalf("%s: %d rows pending before the op, want %d", op.name, got, n)
		}
		// Backdate the last snapshot an hour, so a restart shows without
		// waiting for the clock.
		eng.disks[0].lastSnap.Store(time.Now().Add(-time.Hour).UnixNano())
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if age := gauge("repro_tsdb_snapshot_age_seconds"); age > 60 {
			t.Errorf("%s: snapshot age %.0f s after the op, want it restarted", op.name, age)
		}
		if pending := gauge("repro_tsdb_wal_pending_rows"); pending != 0 || eng.ShardStatus(0).WALPending != 0 {
			t.Errorf("%s: %v rows pending after the op's snapshot, want 0", op.name, pending)
		}
	}
}

// TestBlockAdminOpsSurviveReopen: every view change — a compaction that
// also demotes, a restore and a reset — leaves a data dir that reopens,
// after a clean Close and after a kill (no Close), to the reads of an
// in-memory oracle, with no orphan block or temp file, and whose
// snapshot + WAL tail hold exactly the head rows: published and
// restored into a fresh engine, the directory gives that engine those
// head rows and the oracle's reads.
func TestBlockAdminOpsSurviveReopen(t *testing.T) {
	opts := ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute, RetentionRaw: 2 * time.Hour}}
	k2 := SeriesKey{Device: blockKey.Device, Quantity: "humidity"}
	k3 := SeriesKey{Device: "urn:district:turin/building:b02/device:d1", Quantity: "temperature"}
	// outcome is what an op leaves: live rows every read must return,
	// demoted rows only aggregates still see, and the rows of the head.
	type outcome struct {
		eng                 *Sharded
		live, demoted, head []Row
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	apply := func(t *testing.T, eng *Sharded, rows ...[]Row) {
		t.Helper()
		for _, r := range rows {
			if errs := eng.AppendBatch(r); errs != nil {
				t.Fatalf("append: %v", errs)
			}
		}
	}
	cat := func(rows ...[]Row) []Row {
		var out []Row
		for _, r := range rows {
			out = append(out, r...)
		}
		return out
	}
	scenarios := []struct {
		name string
		run  func(t *testing.T, dir string, at func(n int, from time.Duration, keys ...SeriesKey) []Row) outcome
	}{
		{"compact", func(t *testing.T, dir string, at func(int, time.Duration, ...SeriesKey) []Row) outcome {
			ancient, old, head := at(100, -3*time.Hour, blockKey), at(100, -90*time.Minute, k2, k3), at(20, -30*time.Second, k2, k3)
			eng := openDurable(t, dir, opts)
			apply(t, eng, ancient)
			must(t, eng.CompactShard(0)) // cuts the ancient rows
			apply(t, eng, old, head)
			must(t, eng.CompactShard(0)) // demotes that block, cuts the old rows
			if st := eng.ShardStatus(0); st.Blocks != 2 {
				t.Fatalf("%d blocks after two cycles, want 2", st.Blocks)
			}
			return outcome{eng, cat(old, head), ancient, head}
		}},
		{"restore", func(t *testing.T, dir string, at func(int, time.Duration, ...SeriesKey) []Row) outcome {
			ancient, old, head := at(100, -3*time.Hour, blockKey), at(100, -90*time.Minute, k2), at(20, -30*time.Second, k3)
			src := t.TempDir()
			srcEng := openDurable(t, src, opts)
			apply(t, srcEng, ancient)
			must(t, srcEng.CompactShard(0))
			apply(t, srcEng, old)
			must(t, srcEng.CompactShard(0)) // a demoted block and a raw one
			apply(t, srcEng, head)
			arch := archiveShard(t, srcEng, 0)
			srcEng.Close()
			eng := openDurable(t, dir, opts)
			// The shard's own rows, in a block and in the head: the restore
			// replaces them with the archive's.
			apply(t, eng, at(50, -2*time.Hour, k2, k3))
			must(t, eng.CompactShard(0))
			apply(t, eng, at(10, -40*time.Second, k2))
			n, err := eng.RestoreShard(0, arch)
			must(t, err)
			if n != len(head) {
				t.Fatalf("restore loaded %d head rows, want %d", n, len(head))
			}
			// The restore rewrites each block through the shard's writer,
			// which reproduces the archived bytes.
			srcNames, err := BlockFiles(arch)
			must(t, err)
			dstNames, err := BlockFiles(filepath.Join(dir, "shard-0000"))
			must(t, err)
			if len(srcNames) != 2 || len(dstNames) != 2 {
				t.Fatalf("blocks: archived %v, restored %v", srcNames, dstNames)
			}
			for i := range srcNames {
				a, err := os.ReadFile(filepath.Join(arch, srcNames[i]))
				must(t, err)
				b, err := os.ReadFile(filepath.Join(dir, "shard-0000", dstNames[i]))
				must(t, err)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("restored %s differs from archived %s", dstNames[i], srcNames[i])
				}
			}
			return outcome{eng, cat(old, head), ancient, head}
		}},
		{"reset", func(t *testing.T, dir string, at func(int, time.Duration, ...SeriesKey) []Row) outcome {
			old, head, after := at(100, -90*time.Minute, k2, k3), at(20, -30*time.Second, k2, k3), at(10, -15*time.Second, k2)
			eng := openDurable(t, dir, opts)
			apply(t, eng, old, head)
			must(t, eng.CompactShard(0))
			must(t, eng.ResetShard(0))
			apply(t, eng, after)
			return outcome{eng, after, nil, after}
		}},
	}
	rowsKey := func(rows []Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%s|%d|%v", r.Key, r.Sample.At.UnixNano(), r.Sample.Value)
		}
		sort.Strings(out)
		return out
	}
	for _, sc := range scenarios {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/kill=%v", sc.name, kill), func(t *testing.T) {
				dir := t.TempDir()
				now := time.Now().UTC().Truncate(time.Second)
				at := func(n int, from time.Duration, keys ...SeriesKey) []Row {
					var rows []Row
					for i := 0; i < n; i++ {
						for _, k := range keys {
							rows = append(rows, Row{Key: k, Sample: Sample{At: now.Add(from + time.Duration(i)*time.Second), Value: float64(i) + 0.25}})
						}
					}
					return rows
				}
				o := sc.run(t, dir, at)
				if kill {
					t.Cleanup(o.eng.Close) // after the checks: the reopen below never sees it close
				} else {
					o.eng.Close()
				}
				// The dir as the op left it, before a recovery tidies it.
				results, err := VerifyDataDir(dir)
				if err != nil {
					t.Fatalf("verify: %v", err)
				}
				for _, r := range results {
					if len(r.OrphanBlocks) != 0 {
						t.Fatalf("orphan blocks: %v", r.OrphanBlocks)
					}
				}
				if tmp, _ := filepath.Glob(filepath.Join(dir, "shard-*", "*.tmp")); len(tmp) != 0 {
					t.Fatalf("temp files left: %v", tmp)
				}

				re := openDurable(t, dir, opts)
				defer re.Close()
				mem := memReference(t, o.live)
				to := time.Now()
				reads := func(e *Sharded) {
					t.Helper()
					for _, k := range []SeriesKey{k2, k3} {
						assertReadsEqual(t, mem, e, k, time.Time{}, to)
					}
					if o.demoted == nil {
						assertReadsEqual(t, mem, e, blockKey, time.Time{}, to)
						return
					}
					// Demoted: no raw samples, the exact whole-range aggregate.
					if got, err := e.Query(blockKey, time.Time{}, to); err != nil || len(got) != 0 {
						t.Fatalf("demoted series query = %d samples, %v; want none", len(got), err)
					}
					want, _ := memReference(t, o.demoted).Aggregate(blockKey, time.Time{}, to)
					if got, err := e.Aggregate(blockKey, time.Time{}, to); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("demoted aggregate = %+v (%v), want %+v", got, err, want)
					}
				}
				reads(re)
				// Published, the shard dir restores into a fresh engine as
				// the head rows over the blocks.
				must(t, re.SyncShard(0))
				fresh := openDurable(t, t.TempDir(), opts)
				defer fresh.Close()
				n, err := fresh.RestoreShard(0, filepath.Join(dir, "shard-0000"))
				must(t, err)
				if got, want := rowsKey(headRows(fresh.shards[0])), rowsKey(o.head); n != len(o.head) || !reflect.DeepEqual(got, want) {
					t.Fatalf("shard dir restores %d rows (%d in the head), want the %d head rows", n, len(got), len(want))
				}
				reads(fresh)
			})
		}
	}
}

// TestBlockPagedWalkManyPages exercises the merged QueryPage More/Next
// contract across the head/block boundary with awkward page sizes.
func TestBlockPagedWalkManyPages(t *testing.T) {
	dir := t.TempDir()
	rows := oldRows(237, blockKey)
	eng := openDurable(t, dir, ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatalf("append: %v", errs)
	}
	if err := eng.CompactAll(); err != nil {
		t.Fatal(err)
	}
	// Fresh rows into the head so the walk crosses blocks into head.
	now := time.Now().UTC().Truncate(time.Second)
	for i := 0; i < 23; i++ {
		smp := Sample{At: now.Add(time.Duration(i-30) * time.Second), Value: float64(1000 + i)}
		if err := eng.Append(blockKey, smp); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, Row{Key: blockKey, Sample: smp})
	}
	for _, limit := range []int{1, 7, 100, 1000} {
		var got []Sample
		var cur Cursor
		to := time.Now()
		for {
			page, err := eng.QueryPage(blockKey, time.Time{}, to, cur, limit)
			if err != nil {
				t.Fatalf("limit %d: %v", limit, err)
			}
			got = append(got, page.Samples...)
			if !page.More {
				break
			}
			if len(page.Samples) == 0 {
				t.Fatalf("limit %d: empty page with More set", limit)
			}
			cur = page.Next
		}
		if len(got) != len(rows) {
			t.Fatalf("limit %d: walked %d samples, want %d", limit, len(got), len(rows))
		}
		for i, smp := range got {
			if !smp.At.Equal(rows[i].Sample.At) || smp.Value != rows[i].Sample.Value {
				t.Fatalf("limit %d: sample %d = %+v, want %+v", limit, i, smp, rows[i].Sample)
			}
		}
	}
	_ = fmt.Sprintf // keep fmt imported if assertions change
}

// Over a demoted block every window width reads the rollups: 30 s and
// 90 s windows, which no rollup tier divides, count the same samples as
// 1m windows and as Aggregate, both over the whole series and over a
// range that cuts minutes at both ends (those fold their 1m buckets
// whole).
func TestDemotedDownsampleCountsEveryWindowWidth(t *testing.T) {
	base := time.Now().UTC().Truncate(time.Hour).Add(-6 * time.Hour)
	rows := make([]Row, 7200)
	for i := range rows {
		rows[i] = Row{Key: blockKey, Sample: Sample{At: base.Add(time.Duration(i) * time.Second), Value: float64(i % 7)}}
	}
	eng := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute, RetentionRaw: time.Hour}})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatal(errs[0])
	}
	for i := 0; i < 2; i++ { // cut, then demote
		if err := eng.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := eng.Query(blockKey, time.Time{}, time.Now()); err != nil || len(got) != 0 {
		t.Fatalf("block not demoted: %d raw samples, %v", len(got), err)
	}
	for _, rg := range [][2]time.Time{{time.Time{}, time.Now()}, {base.Add(17*time.Minute + 30*time.Second), base.Add(100*time.Minute + 10*time.Second)}} {
		agg, err := eng.Aggregate(blockKey, rg[0], rg[1])
		if err != nil || agg.Count == 0 {
			t.Fatalf("aggregate %v: %+v, %v", rg, agg, err)
		}
		for _, window := range []time.Duration{30 * time.Second, 90 * time.Second, time.Minute} {
			buckets, err := eng.Downsample(blockKey, rg[0], rg[1], window)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, b := range buckets {
				n += b.Count
			}
			if n != agg.Count {
				t.Fatalf("range %v, %v windows: %d buckets count %d samples, aggregate %d", rg, window, len(buckets), n, agg.Count)
			}
		}
	}
}

// Blocks can overlap in time: after block A is cut, out-of-order rows
// older than its end are cut into block B, some at A's very timestamps.
// Every aggregate and downsample of a range cutting into both must equal
// the in-memory engine's, ties of First and Last included: A's rows at
// an instant come before B's, as in the head they were cut from.
func TestOverlappingBlocksFoldLikeOneHead(t *testing.T) {
	base := time.Now().UTC().Truncate(time.Hour).Add(-6 * time.Hour)
	var a, b []Row
	for i := 0; i < 1500; i++ {
		a = append(a, Row{Key: blockKey, Sample: Sample{At: base.Add(time.Duration(i) * 7 * time.Second), Value: float64(i%50) + 0.25}})
	}
	for j := 0; j < 600; j++ {
		b = append(b, Row{Key: blockKey, Sample: Sample{At: base.Add(time.Hour + time.Duration(j)*11*time.Second), Value: float64(j%40) + 0.5}})
	}
	eng := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer eng.Close()
	for _, rows := range [][]Row{a, b} {
		if errs := eng.AppendBatch(rows); errs != nil {
			t.Fatal(errs[0])
		}
		if err := eng.CompactAll(); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.ShardStatus(0); st.Blocks != 2 {
		t.Fatalf("%d blocks, want 2", st.Blocks)
	}
	mem := memReference(t, append(a, b...))
	at := func(d time.Duration) time.Time { return base.Add(d) }
	for _, rg := range [][2]time.Time{
		{time.Time{}, time.Now()},
		{at(30*time.Minute + 13*time.Second), at(2*time.Hour + 7*time.Second)},
		{at(time.Hour + 5*time.Minute), at(time.Hour + 50*time.Minute)},
		{at(time.Hour + 77*time.Second), at(2*time.Hour + 154*time.Second)},
		{at(90 * time.Minute), time.Now()},
		{at(59 * time.Minute), at(61*time.Minute + 30*time.Second)},
	} {
		want, errW := mem.Aggregate(blockKey, rg[0], rg[1])
		got, errG := eng.Aggregate(blockKey, rg[0], rg[1])
		if errW != nil || errG != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("aggregate %v:\n got %+v (%v)\nwant %+v (%v)", rg, got, errG, want, errW)
		}
		for _, window := range []time.Duration{time.Minute, 5 * time.Minute, 90 * time.Second, time.Hour} {
			want, errW := mem.Downsample(blockKey, rg[0], rg[1], window)
			got, errG := eng.Downsample(blockKey, rg[0], rg[1], window)
			if errW != nil || errG != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("downsample %v at %v:\n got %+v (%v)\nwant %+v (%v)", rg, window, got, errG, want, errW)
			}
		}
	}
}

// Downsamples fold the head under its series lock while rows are
// appended to the same series, and share a block's cached 1h rollup
// while a compactor cuts the head into blocks: every fold of a range
// the writer stays out of is the same consistent cut (run it under
// -race).
func TestDownsampleUnderConcurrentCompactionAndAppends(t *testing.T) {
	rows := oldRows(4000, blockKey) // over an hour: the 1h folds walk the block's hour buckets
	eng := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer eng.Close()
	if errs := eng.AppendBatch(rows); errs != nil {
		t.Fatal(errs[0])
	}
	to := time.Now()
	mem := memReference(t, rows)
	windows := []time.Duration{time.Hour, 90 * time.Second}
	want := make([][]Bucket, len(windows))
	for i, w := range windows {
		var err error
		if want[i], err = mem.Downsample(blockKey, time.Time{}, to, w); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // cuts the head into a block, then snapshots
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.CompactAll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // grows the series past the range
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			row := Row{Key: blockKey, Sample: Sample{At: to.Add(time.Duration(i+1) * time.Millisecond), Value: 1}}
			if errs := eng.AppendBatch([]Row{row}); errs != nil {
				t.Error(errs[0])
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 100; i++ {
				for j, w := range windows {
					got, err := eng.Downsample(blockKey, time.Time{}, to, w)
					if err != nil || !reflect.DeepEqual(got, want[j]) {
						t.Errorf("read %d at %v: %d buckets (%v), want %d", i, w, len(got), err, len(want[j]))
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	bg.Wait()
}
