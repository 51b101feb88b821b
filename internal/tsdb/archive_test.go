package tsdb

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// shardDevices returns n devices that hash to shard i of shards.
func shardDevices(i, shards, n int) []SeriesKey {
	var out []SeriesKey
	for d := 0; len(out) < n; d++ {
		if k := shKey(d); ShardOf(k.Device, shards) == i {
			out = append(out, k)
		}
	}
	return out
}

// TestArchiveShardRoundTrip archives a durable shard holding head rows,
// a raw block and a demoted block, and restores it into the same shard
// of a second engine: the catalog and every series' reads are equal and
// the blocks byte-identical. The stream ArchiveShard writes is the one
// frameArchive frames from the directory, byte for byte, and that
// independently framed archive restores to the same result.
func TestArchiveShardRoundTrip(t *testing.T) {
	const shards, sh = 2, 1
	opts := ShardedOptions{Shards: shards, Blocks: BlockPolicy{HeadWindow: time.Minute, RetentionRaw: 2 * time.Hour}}
	keys := shardDevices(sh, shards, 3)
	now := time.Now().UTC().Truncate(time.Second)
	at := func(n int, from time.Duration, k SeriesKey) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Key: k, Sample: Sample{At: now.Add(from + time.Duration(i)*time.Second), Value: float64(i) + 0.5}}
		}
		return rows
	}
	src := openDurable(t, t.TempDir(), opts)
	defer src.Close()
	for _, rows := range [][]Row{at(100, -3*time.Hour, keys[0]), at(100, -90*time.Minute, keys[1])} {
		if errs := src.AppendBatch(rows); errs != nil {
			t.Fatal(errs)
		}
		if err := src.CompactShard(sh); err != nil { // the second cycle demotes the first block
			t.Fatal(err)
		}
	}
	head := append(at(20, -30*time.Second, keys[0]), at(20, -20*time.Second, keys[2])...)
	if errs := src.AppendBatch(head); errs != nil {
		t.Fatal(errs)
	}
	if err := src.SyncShard(sh); err != nil {
		t.Fatal(err)
	}
	if bs := src.bsets[sh].blocks; len(bs) != 2 || blockHasRaw(bs[0]) || !blockHasRaw(bs[1]) {
		t.Fatalf("source holds %d blocks, want a demoted and a raw one", len(bs))
	}

	var archive bytes.Buffer
	if err := src.ArchiveShard(sh, &archive); err != nil {
		t.Fatal(err)
	}
	framed, err := io.ReadAll(frameArchive(t, src.ShardDir(sh), sh, shards))
	if err != nil || !bytes.Equal(archive.Bytes(), framed) {
		t.Fatalf("ArchiveShard wrote %d bytes that differ from the %d framed from the directory", archive.Len(), len(framed))
	}
	ents, err := os.ReadDir(src.ShardDir(sh))
	if err != nil {
		t.Fatal(err)
	}
	var disk int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			disk += info.Size()
		}
	}
	if st := src.ShardStatus(sh); st.DiskBytes != disk || disk == 0 {
		t.Fatalf("DiskBytes %d, want the directory's %d", st.DiskBytes, disk)
	}

	for name, in := range map[string][]byte{"ArchiveShard": archive.Bytes(), "framed": framed} {
		dst := openDurable(t, t.TempDir(), opts)
		n, err := dst.RestoreShard(sh, bytes.NewReader(in))
		if err != nil || n != len(head) {
			t.Fatalf("%s: restore = %d head rows, %v; want %d, nil", name, n, err, len(head))
		}
		if got, want := dst.Catalog(sh), src.Catalog(sh); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored catalog %v, want %v", name, got, want)
		}
		for _, k := range keys {
			assertReadsEqual(t, src, dst, k, time.Time{}, now)
		}
		srcNames, err := BlockFiles(src.ShardDir(sh))
		if err != nil {
			t.Fatal(err)
		}
		dstNames, err := BlockFiles(dst.ShardDir(sh))
		if err != nil || len(dstNames) != len(srcNames) {
			t.Fatalf("%s: restored blocks %v (%v), want %d", name, dstNames, err, len(srcNames))
		}
		for i := range srcNames {
			a, errA := os.ReadFile(filepath.Join(src.ShardDir(sh), srcNames[i]))
			b, errB := os.ReadFile(filepath.Join(dst.ShardDir(sh), dstNames[i]))
			if errA != nil || errB != nil || !bytes.Equal(a, b) {
				t.Fatalf("%s: restored %s differs from archived %s (%v, %v)", name, dstNames[i], srcNames[i], errA, errB)
			}
		}
		dst.Close()
	}

	// The header must name the target: another shard, another count.
	other := openDurable(t, t.TempDir(), ShardedOptions{Shards: 4, Blocks: opts.Blocks})
	defer other.Close()
	if _, err := other.RestoreShard(sh, bytes.NewReader(archive.Bytes())); !errors.Is(err, ErrArchiveMismatch) {
		t.Fatalf("restore into a 4-shard engine: %v, want %v", err, ErrArchiveMismatch)
	}
	if _, err := src.RestoreShard(0, bytes.NewReader(archive.Bytes())); !errors.Is(err, ErrArchiveMismatch) {
		t.Fatalf("restore into shard 0: %v, want %v", err, ErrArchiveMismatch)
	}
	var none bytes.Buffer
	if err := newMem(t, Options{}).ArchiveShard(0, &none); !errors.Is(err, ErrNotDurable) || none.Len() != 0 {
		t.Fatalf("in-memory archive: %v after %d bytes, want %v before any", err, none.Len(), ErrNotDurable)
	}
}

// FuzzRestoreArchive feeds arbitrary bytes to RestoreShard of an
// in-memory two-shard engine holding one row, the only handoff input
// that comes from outside the program. It must not panic; it fails only
// with ErrBadArchive, ErrArchiveMismatch or ErrNotDurable, and a failed
// restore leaves the shard's catalog and rows as they were. The corpus
// is seeded with real archives of a durable engine's shard: head rows
// only (restores), with a block (an in-memory engine refuses it), with a
// device of the other shard, and of the other shard.
func FuzzRestoreArchive(f *testing.F) {
	const shards, sh = 2, 1
	keys := shardDevices(sh, shards, 2)
	foreign := shardDevices(1-sh, shards, 1)[0]
	now := time.Now().UTC().Truncate(time.Second)
	row := Row{Key: keys[0], Sample: Sample{At: now, Value: 1}}
	seed := func(shard int, rows []Row, compact bool) {
		src, err := OpenSharded(ShardedOptions{Shards: 1, Dir: f.TempDir(), Blocks: BlockPolicy{HeadWindow: time.Minute}})
		if err != nil {
			f.Fatal(err)
		}
		defer src.Close()
		if errs := src.AppendBatch(rows); errs != nil {
			f.Fatal(errs)
		}
		if compact {
			if err := src.CompactShard(0); err != nil {
				f.Fatal(err)
			}
		}
		if err := src.SyncShard(0); err != nil {
			f.Fatal(err)
		}
		archive, err := io.ReadAll(frameArchive(f, src.ShardDir(0), shard, shards))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(archive)
	}
	recent := []Row{{Key: keys[1], Sample: Sample{At: now.Add(-time.Second), Value: 2}}}
	old := []Row{{Key: keys[1], Sample: Sample{At: now.Add(-2 * time.Hour), Value: 3}}}
	seed(sh, recent, false)
	seed(sh, append(old, recent...), true)
	seed(sh, append(recent, Row{Key: foreign, Sample: Sample{At: now, Value: 4}}), false)
	seed(1-sh, recent, false)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, archive []byte) {
		eng := NewSharded(ShardedOptions{Shards: shards})
		defer eng.Close()
		if errs := eng.AppendBatch([]Row{row}); errs != nil {
			t.Fatal(errs)
		}
		_, err := eng.RestoreShard(sh, bytes.NewReader(archive))
		if err == nil {
			return
		}
		if !errors.Is(err, ErrBadArchive) && !errors.Is(err, ErrArchiveMismatch) && !errors.Is(err, ErrNotDurable) {
			t.Fatalf("restore failed with %v, want a bad archive, a mismatch or the not-durable error", err)
		}
		if got := eng.Catalog(sh); len(got) != 1 || got[0] != row.Key {
			t.Fatalf("failed restore changed the catalog to %v", got)
		}
		if got := headRows(eng.shards[sh]); len(got) != 1 || got[0] != row {
			t.Fatalf("failed restore changed the rows to %v", got)
		}
	})
}
