package tsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
	"repro/internal/wal"
)

// The columnar block layer of the durable Sharded engine. At snapshot
// cadence each shard's worker CUTS the head rows older than the
// configured head window into an immutable compressed block file
// (delta-of-delta timestamps, XOR floats, 1m/1h rollups — see
// internal/block), then writes a head snapshot whose FIRST record is a
// manifest naming the live block files, truncates the WAL below the
// watermark, and — atomically against readers — publishes the block and
// evicts the cut rows from the in-memory head. Reads merge the head
// with the blocks behind the same Iterator/QueryPage cursor contract,
// so callers cannot tell where the RAM/disk boundary sits.
//
// Crash safety is manifest-anchored: a block file becomes real only
// when a durable snapshot names it. Recovery opens exactly the
// manifest's blocks and deletes any stray *.blk — a crash between block
// write and snapshot write leaves the WAL untruncated, so the orphan's
// rows replay into the head and are simply cut again later.
//
// Retention rides the same loop: blocks entirely older than the raw
// horizon are demoted (rewritten without their raw chunks, keeping
// rollups and index aggregates), and blocks entirely older than the
// rollup horizon are deleted.

// DefaultHeadWindow is how much recent data stays in the in-memory head
// when BlockPolicy.HeadWindow is zero on a durable engine.
const DefaultHeadWindow = 30 * time.Minute

// BlockPolicy configures the columnar block layer of a durable engine.
// The zero value enables blocks with DefaultHeadWindow and infinite
// retention.
type BlockPolicy struct {
	// HeadWindow is how much recent data stays in the in-memory head;
	// at snapshot cadence, rows older than now-HeadWindow are cut into
	// a block file. Zero means DefaultHeadWindow; negative disables
	// block cutting (existing blocks are still served).
	HeadWindow time.Duration
	// RetentionRaw demotes blocks entirely older than now-RetentionRaw
	// to rollups only (raw chunks dropped, 1m/1h buckets and index
	// aggregates kept). Zero keeps raw data forever.
	RetentionRaw time.Duration
	// RetentionRollup deletes blocks entirely older than
	// now-RetentionRollup. Zero keeps rollups forever.
	RetentionRollup time.Duration
}

func (p BlockPolicy) headWindow() time.Duration {
	if p.HeadWindow == 0 {
		return DefaultHeadWindow
	}
	return p.HeadWindow
}

// blockSet is one shard's published view of its block files. Only the
// shard worker mutates the list (cut, demote, drop, import, reset);
// readers capture it under the read lock together with their head read,
// which is what makes a compaction's publish+evict atomic to them.
type blockSet struct {
	dir string

	// mu guards the view swap; block file IO happens strictly outside
	// it (readers retain blocks under the lock and decode after
	// unlock; the compactor writes files before taking it).
	mu     sync.RWMutex   // districtlint:lockio
	blocks []*block.Block // ascending cut order
	nextID uint64
}

// manifestPrefix marks the snapshot record that carries the block
// manifest. The prefix cannot open a valid rows record: its first byte
// decodes as row count 0x52, after which the next byte must be flag
// 0x01, never 'B' — so legacy snapshots (no manifest) and manifest
// snapshots are unambiguous.
var manifestPrefix = []byte("RBMF1")

type blockManifest struct {
	Blocks []string `json:"blocks"`
}

func encodeManifest(names []string) []byte {
	raw, _ := json.Marshal(blockManifest{Blocks: names})
	return append(append([]byte{}, manifestPrefix...), raw...)
}

// decodeManifest parses a snapshot record as a manifest; ok=false means
// the record is a plain rows record (legacy snapshot or head rows).
func decodeManifest(p []byte) (names []string, ok bool, err error) {
	if len(p) < len(manifestPrefix) || string(p[:len(manifestPrefix)]) != string(manifestPrefix) {
		return nil, false, nil
	}
	var m blockManifest
	if err := json.Unmarshal(p[len(manifestPrefix):], &m); err != nil {
		return nil, true, fmt.Errorf("tsdb: corrupt block manifest: %w", err)
	}
	return m.Blocks, true, nil
}

// BlockFiles reports the block file names the latest snapshot manifest
// of a shard directory references, without opening a live engine. A
// directory with no snapshot (or a pre-block snapshot) has none.
func BlockFiles(dir string) ([]string, error) {
	_, sr, err := wal.LatestSnapshot(dir)
	if err != nil || sr == nil {
		return nil, err
	}
	rec, err := sr.Record()
	if errors.Is(err, io.EOF) {
		err, rec = nil, nil
	}
	if err != nil {
		return nil, errors.Join(err, sr.Close())
	}
	names, _, err := decodeManifest(rec)
	return names, errors.Join(err, sr.Close())
}

func blockPath(dir, name string) string { return filepath.Join(dir, name) }

func blockName(id uint64) string { return fmt.Sprintf("%016x%s", id, block.Suffix) }

func parseBlockName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, block.Suffix) {
		return 0, false
	}
	id, err := strconv.ParseUint(strings.TrimSuffix(name, block.Suffix), 16, 64)
	return id, err == nil
}

// openManifestBlocks opens the manifest-listed blocks of a shard dir
// and deletes every other *.blk file (orphans of a crash between block
// write and snapshot write — their rows are still in the WAL and replay
// into the head).
func openManifestBlocks(dir string, names []string) ([]*block.Block, uint64, error) {
	listed := make(map[string]bool, len(names))
	for _, n := range names {
		listed[n] = true
	}
	var nextID uint64 = 1
	if ents, err := os.ReadDir(dir); err == nil {
		for _, e := range ents {
			name := e.Name()
			if strings.HasSuffix(name, block.Suffix+".tmp") {
				_ = os.Remove(blockPath(dir, name))
				continue
			}
			id, ok := parseBlockName(name)
			if !ok {
				continue
			}
			if !listed[name] {
				_ = os.Remove(blockPath(dir, name))
				continue
			}
			if id >= nextID {
				nextID = id + 1
			}
		}
	}
	blocks := make([]*block.Block, 0, len(names))
	for _, name := range names {
		b, err := block.Open(blockPath(dir, name))
		if err != nil {
			for _, ob := range blocks {
				err = errors.Join(err, ob.Close())
			}
			return nil, 0, fmt.Errorf("tsdb: open block %s: %w", name, err)
		}
		blocks = append(blocks, b)
	}
	return blocks, nextID, nil
}

func bk(key SeriesKey) block.Key {
	return block.Key{Device: key.Device, Quantity: key.Quantity}
}

// ---------------------------------------------------------------------
// Compaction (runs on the shard worker — the shard's single writer)
// ---------------------------------------------------------------------

// compactShard is the unified snapshot+compaction step of a durable
// shard: cut head rows older than the head window into a new block,
// demote/delete blocks past their retention horizons, write the
// manifest-bearing snapshot at the WAL watermark, atomically publish
// the new view while evicting the cut rows from the head, then truncate
// the WAL and remove replaced files. Any failure before the snapshot
// leaves the previous view fully intact (new files are unlinked; the
// WAL still covers everything).
func (s *Sharded) compactShard(store *Store, disk *shardDisk, bs *blockSet) error {
	start := time.Now()
	var boundary time.Time
	if hw := s.blockPolicy.headWindow(); hw > 0 {
		boundary = start.Add(-hw)
	}

	// Only the worker mutates bs.blocks, so reading the slice without
	// the lock is safe on this goroutine.
	old := bs.blocks

	var rawHorizon, rollupHorizon time.Time
	if d := s.blockPolicy.RetentionRaw; d > 0 {
		rawHorizon = start.Add(-d)
	}
	if d := s.blockPolicy.RetentionRollup; d > 0 {
		rollupHorizon = start.Add(-d)
	}

	var written []string       // files created this cycle, unlinked on failure
	var opened []*block.Block  // blocks opened this cycle, closed on failure
	var removed []*block.Block // old blocks leaving the view, deleted on success
	next := make([]*block.Block, 0, len(old)+1)
	fail := func(err error) error {
		for _, b := range opened {
			_ = b.Close()
		}
		for _, p := range written {
			_ = os.Remove(p)
		}
		return err
	}

	for _, b := range old {
		switch {
		case !rollupHorizon.IsZero() && b.MaxT() < rollupHorizon.UnixNano():
			removed = append(removed, b)
		case !rawHorizon.IsZero() && b.MaxT() < rawHorizon.UnixNano() && blockHasRaw(b):
			nb, path, err := demoteBlock(bs, b)
			if err != nil {
				// Keep the original this cycle; retry next cadence.
				next = append(next, b)
				continue
			}
			written = append(written, path)
			opened = append(opened, nb)
			next = append(next, nb)
			removed = append(removed, b)
		default:
			next = append(next, b)
		}
	}

	// Cut the new block from the head.
	cut := false
	if !boundary.IsZero() {
		nb, path, err := cutBlock(store, bs, boundary)
		if err != nil {
			return fail(err)
		}
		if nb != nil {
			cut = true
			written = append(written, path)
			opened = append(opened, nb)
			next = append(next, nb)
		}
	}

	// Durable point of no return: the snapshot names the new view and
	// carries the head rows at/after the boundary.
	names := make([]string, 0, len(next))
	for _, b := range next {
		names = append(names, filepath.Base(b.Path()))
	}
	seq := disk.log.LastSeq()
	if err := writeHeadSnapshot(store, disk.dir, seq, names, boundary); err != nil {
		return fail(err)
	}

	// Publish the new view and evict the cut rows in one write-locked
	// swap: a reader sees either head-with-old-rows + old blocks, or
	// head-without + new blocks — never both or neither.
	bs.mu.Lock()
	bs.blocks = next
	if cut {
		store.evictBefore(boundary)
	}
	bs.mu.Unlock()

	_ = disk.log.TruncateBefore(seq + 1)
	wal.RemoveSnapshotsBefore(disk.dir, seq)
	for _, b := range removed {
		path := b.Path()
		// Drop the set's reference; in-flight readers that retained the
		// block keep the mapping alive until their Release.
		_ = b.Close() //lint:ignore closecheck munmap of a replaced read-only block; readers hold their own refs
		_ = os.Remove(path)
	}
	disk.sinceSnap.Store(0)
	if disk.mx != nil {
		disk.mx.snapDur.ObserveDuration(time.Since(start))
		if disk.mx.compactDur != nil {
			disk.mx.compactDur.ObserveDuration(time.Since(start))
		}
	}
	return nil
}

// blockHasRaw reports whether any series of the block still carries raw
// chunks.
func blockHasRaw(b *block.Block) bool {
	for _, m := range b.Series() {
		if m.HasRaw() {
			return true
		}
	}
	return false
}

// cutBlock writes the head rows older than boundary into a new block
// file and opens it; with no such row it writes nothing and returns a
// nil block. The cut walks the series in key order (the order a block
// takes them in) and copies each one's old points under its lock into
// one reused buffer that goes straight to the writer, so a cut costs
// the buffer and the writer's scratch, not a copy of every series. Runs
// on the shard worker, so nothing appends to the head meanwhile.
func cutBlock(store *Store, bs *blockSet, boundary time.Time) (*block.Block, string, error) {
	var w *block.Writer
	path := blockPath(bs.dir, blockName(bs.nextID))
	hi := nanos(boundary) - 1
	keys := store.Keys()
	slices.SortFunc(keys, func(a, b SeriesKey) int {
		if c := strings.Compare(a.Device, b.Device); c != 0 {
			return c
		}
		return strings.Compare(a.Quantity, b.Quantity)
	})
	var pts []block.Point
	for _, key := range keys {
		pts = store.appendPoints(pts[:0], key, math.MinInt64, hi)
		if len(pts) == 0 {
			continue
		}
		if w == nil {
			var err error
			if w, err = block.NewWriter(path); err != nil {
				return nil, "", err
			}
		}
		if err := w.Add(bk(key), pts); err != nil {
			w.Abort()
			return nil, "", err
		}
	}
	if w == nil {
		return nil, "", nil
	}
	if _, _, err := w.Finish(); err != nil {
		return nil, "", err
	}
	bs.nextID++
	nb, err := block.Open(path)
	if err != nil {
		_ = os.Remove(path)
		return nil, "", err
	}
	return nb, path, nil
}

// demoteBlock rewrites a block without its raw chunks (rollups and
// index aggregates survive) under a fresh name. The original stays
// published until the caller's snapshot + swap.
func demoteBlock(bs *blockSet, b *block.Block) (*block.Block, string, error) {
	path := blockPath(bs.dir, blockName(bs.nextID))
	w, err := block.NewWriter(path)
	if err != nil {
		return nil, "", err
	}
	for _, m := range b.Series() {
		r1m, err := b.Rollup(m.Key, block.Res1m)
		if err != nil {
			w.Abort()
			return nil, "", err
		}
		r1h, err := b.Rollup(m.Key, block.Res1h)
		if err != nil {
			w.Abort()
			return nil, "", err
		}
		if err := w.AddRollups(m, r1m, r1h); err != nil {
			w.Abort()
			return nil, "", err
		}
	}
	if _, _, err := w.Finish(); err != nil {
		return nil, "", err
	}
	bs.nextID++
	nb, err := block.Open(path)
	if err != nil {
		_ = os.Remove(path)
		return nil, "", err
	}
	return nb, path, nil
}

// writeHeadSnapshot writes the snapshot of a block-bearing shard: the
// manifest record first, then every head row at/after boundary (all
// rows when boundary is zero). Each series' rows are copied under its
// lock into one reused point buffer, then fed through one reused row
// chunk into records of snapshotChunk rows.
func writeHeadSnapshot(store *Store, dir string, seq uint64, blockNames []string, boundary time.Time) error {
	lo := int64(math.MinInt64)
	if !boundary.IsZero() {
		lo = nanos(boundary)
	}
	return wal.WriteSnapshot(dir, seq, func(sw *wal.SnapshotWriter) error {
		if err := sw.Record(encodeManifest(blockNames)); err != nil {
			return err
		}
		rows := make([]Row, 0, snapshotChunk)
		var buf []byte
		flush := func() error {
			if len(rows) == 0 {
				return nil
			}
			buf = encodeRows(buf[:0], rows)
			rows = rows[:0]
			return sw.Record(buf)
		}
		var pts []block.Point
		for _, key := range store.Keys() {
			pts = store.appendPoints(pts[:0], key, lo, math.MaxInt64)
			for _, p := range pts {
				rows = append(rows, Row{Key: key, Sample: Sample{At: time.Unix(0, p.T), Value: p.V}})
				if len(rows) == snapshotChunk {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		return flush()
	})
}

// dropSeries removes a series from a shard: head drop plus a rewrite of
// every block containing the key, anchored by a fresh snapshot (a shard
// with no such block, as every in-memory one, stops at the head drop).
// Runs on the shard worker.
func (s *Sharded) dropSeries(store *Store, disk *shardDisk, bs *blockSet, key SeriesKey) error {
	store.Drop(key)
	target := bk(key)
	touched := false
	for _, b := range bs.blocks {
		if _, ok := b.Meta(target); ok {
			touched = true
			break
		}
	}
	if !touched {
		return nil
	}
	old := bs.blocks
	next := make([]*block.Block, 0, len(old))
	var written []string
	var opened []*block.Block
	var removed []*block.Block
	fail := func(err error) error {
		for _, b := range opened {
			_ = b.Close()
		}
		for _, p := range written {
			_ = os.Remove(p)
		}
		return err
	}
	for _, b := range old {
		if _, ok := b.Meta(target); !ok {
			next = append(next, b)
			continue
		}
		if len(b.Series()) == 1 {
			removed = append(removed, b)
			continue
		}
		nb, path, err := rewriteWithout(bs, b, target)
		if err != nil {
			return fail(err)
		}
		written = append(written, path)
		opened = append(opened, nb)
		next = append(next, nb)
		removed = append(removed, b)
	}
	names := make([]string, 0, len(next))
	for _, b := range next {
		names = append(names, filepath.Base(b.Path()))
	}
	seq := disk.log.LastSeq()
	if err := writeHeadSnapshot(store, disk.dir, seq, names, time.Time{}); err != nil {
		return fail(err)
	}
	bs.mu.Lock()
	bs.blocks = next
	bs.mu.Unlock()
	_ = disk.log.TruncateBefore(seq + 1)
	wal.RemoveSnapshotsBefore(disk.dir, seq)
	for _, b := range removed {
		path := b.Path()
		_ = b.Close() //lint:ignore closecheck munmap of a replaced read-only block; readers hold their own refs
		_ = os.Remove(path)
	}
	disk.sinceSnap.Store(0)
	disk.lastSnap.Store(time.Now().UnixNano())
	return nil
}

// rewriteWithout copies a block minus one series under a fresh name.
func rewriteWithout(bs *blockSet, b *block.Block, drop block.Key) (*block.Block, string, error) {
	path := blockPath(bs.dir, blockName(bs.nextID))
	w, err := block.NewWriter(path)
	if err != nil {
		return nil, "", err
	}
	var pts []block.Point
	for _, m := range b.Series() {
		if m.Key == drop {
			continue
		}
		if m.HasRaw() {
			pts = pts[:0]
			pts, err = b.Points(pts, m.Key, m.MinT, m.MaxT)
			if err == nil {
				err = w.Add(m.Key, pts)
			}
		} else {
			var r1m, r1h []block.Bucket
			if r1m, err = b.Rollup(m.Key, block.Res1m); err == nil {
				if r1h, err = b.Rollup(m.Key, block.Res1h); err == nil {
					err = w.AddRollups(m, r1m, r1h)
				}
			}
		}
		if err != nil {
			w.Abort()
			return nil, "", err
		}
	}
	if _, _, err := w.Finish(); err != nil {
		return nil, "", err
	}
	bs.nextID++
	nb, err := block.Open(path)
	if err != nil {
		_ = os.Remove(path)
		return nil, "", err
	}
	return nb, path, nil
}

// clear closes and deletes every block of the set (shard reset). Caller
// must be the shard worker; the snapshot anchoring the empty view must
// already be durable.
func (bs *blockSet) clear() {
	bs.mu.Lock()
	old := bs.blocks
	bs.blocks = nil
	bs.mu.Unlock()
	for _, b := range old {
		path := b.Path()
		_ = b.Close() //lint:ignore closecheck munmap of a removed read-only block; readers hold their own refs
		_ = os.Remove(path)
	}
}

// importBlocks copies the manifest-listed block files of srcDir into
// the shard under fresh names, opens and publishes them, and anchors
// the new view with a snapshot. The cluster restore path uses it so
// blocks (including rollup-only ones whose raw rows no longer exist)
// ship wholesale instead of being re-journaled row by row.
func (s *Sharded) importBlocks(store *Store, disk *shardDisk, bs *blockSet, srcDir string) error {
	names, err := BlockFiles(srcDir)
	if err != nil {
		return err
	}
	if len(names) == 0 {
		return nil
	}
	var added []*block.Block
	var written []string
	fail := func(err error) error {
		for _, b := range added {
			_ = b.Close()
		}
		for _, p := range written {
			_ = os.Remove(p)
		}
		return err
	}
	for _, name := range names {
		dst := blockPath(bs.dir, blockName(bs.nextID))
		if err := copyFileSync(blockPath(srcDir, name), dst); err != nil {
			return fail(err)
		}
		bs.nextID++
		written = append(written, dst)
		b, err := block.Open(dst)
		if err != nil {
			return fail(err)
		}
		added = append(added, b)
	}
	// Imported blocks are older than anything local, so they go first
	// in cut order.
	next := append(added, bs.blocks...)
	manifest := make([]string, 0, len(next))
	for _, b := range next {
		manifest = append(manifest, filepath.Base(b.Path()))
	}
	seq := disk.log.LastSeq()
	if err := writeHeadSnapshot(store, disk.dir, seq, manifest, time.Time{}); err != nil {
		return fail(err)
	}
	bs.mu.Lock()
	bs.blocks = next
	bs.mu.Unlock()
	_ = disk.log.TruncateBefore(seq + 1)
	wal.RemoveSnapshotsBefore(disk.dir, seq)
	disk.lastSnap.Store(time.Now().UnixNano())
	return nil
}

func copyFileSync(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return errors.Join(err, in.Close())
	}
	_, err = io.Copy(out, in)
	err = errors.Join(err, in.Close())
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(dst)
		return err
	}
	return nil
}
