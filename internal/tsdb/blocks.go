package tsdb

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
	"repro/internal/wal"
)

// The columnar block layer of the durable Sharded engine. At snapshot
// cadence each shard's worker CUTS the head rows older than the
// configured head window into an immutable compressed block file
// (delta-of-delta timestamps, XOR floats, 1m/1h rollups — see
// internal/block). Reads merge the head with the blocks in one scanner
// behind one cursor contract, so callers cannot tell where the RAM/disk
// boundary sits.
//
// Every change of a shard's block view — a compaction cycle, a restore,
// a reset, a publish before a handoff — is one step, publish: write the
// head snapshot whose FIRST record is a manifest naming the new view, at
// the seq of the last node-log record the shard applied; swap the view,
// evicting the rows a cut moved into a block from the head (or, for a
// restore, swapping in the archived head) in the same write-locked
// section, so readers see the move atomically; truncate the node log
// below its floor and drop the shard's older snapshots; delete the
// blocks that left the view.
// The ops themselves only decide the new view and write its new files,
// all through one block writer (writeBlock).
//
// Crash safety is manifest-anchored: a block file becomes real only
// when a durable snapshot names it. Until then the previous view stays
// authoritative, and a failed change deletes the files it wrote.
// Recovery opens exactly the manifest's blocks and deletes any stray
// *.blk — a crash between block write and snapshot write leaves the
// shard's records above its old snapshot in the node log, so the
// orphan's rows replay into the head and are simply cut again later.
//
// Retention rides the compaction cycle: blocks entirely older than the
// raw horizon are demoted (rewritten without their raw chunks, keeping
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
// shard worker changes the list, through publish; readers capture it
// under the read lock together with their head read, which is what
// makes a compaction's publish+evict atomic to them.
type blockSet struct {
	dir string

	// mu guards the view swap; block file IO happens strictly outside
	// it (readers retain blocks under the lock and decode after
	// unlock; the compactor writes files before taking it).
	mu     sync.RWMutex   // districtlint:lockio
	blocks []*block.Block // ascending cut order
	nextID uint64
	gen    atomic.Uint64 // view swaps: publish bumps it under mu; a scan that sees it move re-captures
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
	_, names, err := readSnapshot(dir, nil)
	return names, err
}

func blockPath(dir, name string) string { return filepath.Join(dir, name) }

// openManifestBlocks opens the manifest-listed blocks of a shard dir,
// deletes every other block file (orphans of a crash between block
// write and snapshot write — their rows are still in the node log and replay
// into the head) and sweeps the temp files a crash left. The next block
// id is past every listed one; a dir that cannot be listed is an error,
// since guessing the id could write over a listed block.
func openManifestBlocks(dir string, names []string) ([]*block.Block, uint64, error) {
	ids, err := wal.ListSeq(dir, block.Suffix)
	if err != nil {
		return nil, 0, err
	}
	wal.SweepTemps(dir)
	listed := make(map[string]bool, len(names))
	for _, n := range names {
		listed[n] = true
	}
	var nextID uint64 = 1
	for _, id := range ids {
		if name := wal.SeqName(id, block.Suffix); !listed[name] {
			_ = os.Remove(blockPath(dir, name))
		} else {
			nextID = id + 1
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
// View changes (run on the shard worker — the shard's single writer)
// ---------------------------------------------------------------------

// viewChange is one change of a shard's block view: next replaces the
// published list, created are the files written for it (deleted if the
// change fails), removed the blocks leaving it (deleted once it is
// durable). A non-zero boundary evicts the head rows before it — the
// rows a cut moved into a created block — in the same swap; a non-nil
// head replaces the shard's head in it (a restore).
type viewChange struct {
	next, created, removed []*block.Block
	boundary               time.Time
	head                   *Store
}

// publish makes a view change durable and visible. It is the only step
// that writes a head snapshot or truncates the node log, in this order:
//  1. the snapshot naming vc.next, with the head rows (vc.head's, if
//     set) at/after vc.boundary, at the seq of the last record the
//     shard applied — the durable point of no return; if it fails, the
//     created files are deleted and the previous view stays
//     authoritative;
//  2. the view swap, with the new head taken in or the cut rows
//     evicted, and the removal of the empty head entries of series no
//     block holds any more, under one write lock: a reader sees
//     head-with-old-rows + old blocks, or head-without + new blocks —
//     never both or neither;
//  3. the node log truncated below its floor, which the new watermark
//     may raise, and the shard's older snapshots dropped (best effort:
//     the snapshot already covers them);
//  4. the removed blocks closed and deleted;
//  5. the snapshot gauges restarted and the duration observed.
func publish(store *Store, disk *shardDisk, bs *blockSet, vc viewChange) error {
	start := time.Now()
	names := make([]string, len(vc.next))
	for i, b := range vc.next {
		names[i] = filepath.Base(b.Path())
	}
	seq := disk.applied
	if err := writeHeadSnapshot(cmp.Or(vc.head, store), disk.dir, seq, names, vc.boundary); err != nil {
		unlink(vc.created)
		return err
	}
	bs.mu.Lock()
	bs.blocks = vc.next
	if vc.head != nil {
		store.take(vc.head)
	}
	if !vc.boundary.IsZero() {
		store.evictBefore(vc.boundary)
	}
	vc.dropLeaving(store)
	bs.gen.Add(1)
	store.ver.Add(1)
	bs.mu.Unlock()
	disk.snapRows.Store(disk.appliedRows)
	disk.snapSeq.Store(seq)
	disk.node.truncate()
	wal.RemoveSnapshotsBefore(disk.dir, seq)
	unlink(vc.removed)
	disk.sinceSnap.Store(0)
	disk.lastSnap.Store(time.Now().UnixNano())
	if disk.mx != nil {
		disk.mx.snapDur.ObserveDuration(time.Since(start))
	}
	return nil
}

// dropLeaving removes the empty head entries of the series that leave
// the view with the removed blocks. A cut leaves an entry empty when it
// moves the entry's rows into a block; the entry goes with the last
// block holding the series, so a series is listed only while a head row
// or a block index entry holds it. Only the shard worker appends, so
// nothing refills an entry meanwhile.
func (vc *viewChange) dropLeaving(store *Store) {
	for _, b := range vc.removed {
		for _, m := range b.Series() {
			sr := store.lookup(SeriesKey(m.Key))
			if sr == nil || slices.ContainsFunc(vc.next, func(nb *block.Block) bool { _, ok := nb.Meta(m.Key); return ok }) {
				continue
			}
			sr.mu.Lock()
			empty := sr.count == 0
			sr.mu.Unlock()
			if empty {
				store.Drop(SeriesKey(m.Key))
			}
		}
	}
}

// unlink drops the set's reference to each block and deletes its file.
// In-flight readers that retained a block keep its mapping alive until
// their Release.
func unlink(blocks []*block.Block) {
	for _, b := range blocks {
		path := b.Path()
		_ = b.Close() //lint:ignore closecheck munmap of a read-only block leaving the view; readers hold their own refs
		_ = os.Remove(path)
	}
}

// compactShard is the compaction cycle of a durable shard: demote or
// delete blocks past their retention horizons, cut head rows older
// than the head window into a new block, and publish the result.
func (s *Sharded) compactShard(store *Store, disk *shardDisk, bs *blockSet) error {
	start := time.Now()
	rawHorizon, rollupHorizon := int64(math.MinInt64), int64(math.MinInt64) // keep forever
	if d := s.blockPolicy.RetentionRaw; d > 0 {
		rawHorizon = start.Add(-d).UnixNano()
	}
	if d := s.blockPolicy.RetentionRollup; d > 0 {
		rollupHorizon = start.Add(-d).UnixNano()
	}
	var vc viewChange
	// Only the worker changes bs.blocks, so reading the slice without the
	// lock is safe on this goroutine.
	for _, b := range bs.blocks {
		if b.MaxT() < rollupHorizon {
			vc.removed = append(vc.removed, b)
			continue
		}
		if b.MaxT() < rawHorizon && blockHasRaw(b) {
			// On failure the original stays this cycle; the next retries.
			if nb, err := copyBlock(bs, b, true); err == nil {
				vc.created = append(vc.created, nb)
				vc.removed = append(vc.removed, b)
				b = nb
			}
		}
		vc.next = append(vc.next, b)
	}
	if hw := s.blockPolicy.headWindow(); hw > 0 {
		boundary := start.Add(-hw)
		nb, err := cutBlock(store, bs, boundary)
		if err != nil {
			unlink(vc.created)
			return err
		}
		if nb != nil {
			vc.created = append(vc.created, nb)
			vc.next = append(vc.next, nb)
			vc.boundary = boundary
		}
	}
	if err := publish(store, disk, bs, vc); err != nil {
		return err
	}
	if disk.mx != nil {
		disk.mx.compactDur.ObserveDuration(time.Since(start))
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

// restoreShard replaces the shard with the archived shard directory dir
// (RestoreShard) and reports the head rows it loaded. The archive is
// read and checked whole before the shard changes: its rows into a new
// head by replayShard, the reader recovery uses, its blocks opened from
// its manifest; what it refuses there is ErrBadArchive. The blocks are
// then copied through the shard's block writer, which re-checks their
// frames, and one publish swaps the new head and blocks in for the old
// at the shard's applied seq.
func (s *Sharded) restoreShard(i int, store *Store, disk *shardDisk, bs *blockSet, dir string) (int, error) {
	foreign := func(device string) error {
		if sh := s.ShardFor(device); sh != i {
			return badArchive(": device %q hashes to shard %d, not %d", device, sh, i)
		}
		return nil
	}
	head, rows := newStore(store.opts), 0
	_, manifest, err := replayShard(dir, func(batch []Row) error {
		for _, r := range batch {
			if err := foreign(r.Key.Device); err != nil {
				return err
			}
			if !Storable(r.Sample.At) {
				return badArchive(": %w", ErrTimeRange)
			}
		}
		head.AppendBatch(batch)
		rows += len(batch)
		return nil
	})
	switch {
	case errors.Is(err, ErrBadArchive):
		return 0, err
	case err != nil:
		return 0, badArchive(": %w", err)
	case disk == nil && len(manifest) > 0:
		return 0, ErrNotDurable
	case disk == nil:
		store.take(head)
		return rows, nil
	}
	srcs := make([]*block.Block, 0, len(manifest))
	defer func() {
		for _, b := range srcs {
			_ = b.Close() // munmap of a read-only archived block
		}
	}()
	for _, name := range manifest {
		if !plainName(name) {
			return 0, badArchive(" block name %q", name)
		}
		b, err := block.Open(blockPath(dir, name))
		if err != nil {
			return 0, badArchive(": %w", err)
		}
		srcs = append(srcs, b)
		for _, m := range b.Series() {
			if err := foreign(m.Key.Device); err != nil {
				return 0, err
			}
		}
	}
	// From here on a failure empties the shard.
	vc := viewChange{removed: bs.blocks, head: head}
	for _, src := range srcs {
		nb, err := copyBlock(bs, src, false)
		if err != nil {
			unlink(vc.created)
			return 0, errors.Join(err, resetShard(store, disk, bs))
		}
		if nb != nil {
			vc.created = append(vc.created, nb)
		}
	}
	vc.next = vc.created
	if err := publish(store, disk, bs, vc); err != nil {
		return 0, errors.Join(err, resetShard(store, disk, bs))
	}
	return rows, nil
}

// resetShard empties one shard: the head, and on a durable shard the
// block view, published empty — the snapshot at the watermark holds
// nothing and covers every record below it, so a reopen recovers the
// shard as empty.
func resetShard(store *Store, disk *shardDisk, bs *blockSet) error {
	store.Reset()
	if disk == nil {
		return nil
	}
	return publish(store, disk, bs, viewChange{removed: bs.blocks})
}

// ---------------------------------------------------------------------
// The block writer
// ---------------------------------------------------------------------

// writeBlock writes the series fill adds into the set's next block file
// and opens it. The file is created on fill's first series, so a fill
// that adds none writes nothing and returns a nil block; on failure
// nothing is left on disk.
func (bs *blockSet) writeBlock(fill func(w *lazyWriter) error) (*block.Block, error) {
	w := &lazyWriter{path: blockPath(bs.dir, wal.SeqName(bs.nextID, block.Suffix))}
	err := fill(w)
	if w.w == nil {
		return nil, err
	}
	if err == nil {
		_, _, err = w.w.Finish()
	}
	if err != nil {
		w.w.Abort()
		return nil, err
	}
	bs.nextID++
	b, err := block.Open(w.path)
	if err != nil {
		_ = os.Remove(w.path)
		return nil, err
	}
	return b, nil
}

// lazyWriter is the block.Writer a fill sees: it creates the file on
// the first series added.
type lazyWriter struct {
	path string
	w    *block.Writer
}

func (lw *lazyWriter) open() (err error) {
	if lw.w == nil {
		lw.w, err = block.NewWriter(lw.path)
	}
	return err
}

// Add appends one series with its raw points; no points add nothing.
func (lw *lazyWriter) Add(key block.Key, pts []block.Point) error {
	if len(pts) == 0 {
		return nil
	}
	if err := lw.open(); err != nil {
		return err
	}
	return lw.w.Add(key, pts)
}

// AddRollups appends one series as its rollups and index aggregates.
func (lw *lazyWriter) AddRollups(m block.SeriesMeta, r1m, r1h []block.Bucket) error {
	if err := lw.open(); err != nil {
		return err
	}
	return lw.w.AddRollups(m, r1m, r1h)
}

// cutBlock writes the head rows older than boundary into a new block;
// with no such row it writes nothing and returns a nil block. The cut
// walks the series in key order (the order a block takes them in) and
// copies each one's old points under its lock into one reused buffer
// that goes straight to the writer, so a cut costs the buffer and the
// writer's scratch, not a copy of every series. Runs on the shard
// worker, so nothing appends to the head meanwhile.
func cutBlock(store *Store, bs *blockSet, boundary time.Time) (*block.Block, error) {
	hi := nanos(boundary) - 1
	keys := store.keys()
	slices.SortFunc(keys, CompareKeys)
	return bs.writeBlock(func(w *lazyWriter) error {
		var pts []block.Point
		for _, key := range keys {
			pts, _ = store.appendPoints(pts[:0], key, math.MinInt64, 0, hi, -1)
			if err := w.Add(bk(key), pts); err != nil {
				return err
			}
		}
		return nil
	})
}

// copyBlock writes b's series into a new block. A series keeps its raw
// points unless rollupsOnly is set or it has none left; then its rollups
// and index aggregates carry over. A retention demote and a restore's
// block copy both rewrite through it.
func copyBlock(bs *blockSet, b *block.Block, rollupsOnly bool) (*block.Block, error) {
	return bs.writeBlock(func(w *lazyWriter) error {
		var pts []block.Point
		for _, m := range b.Series() {
			var err error
			if m.HasRaw() && !rollupsOnly {
				if pts, err = b.Points(pts[:0], m.Key, m.MinT, m.MaxT); err == nil {
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
				return err
			}
		}
		return nil
	})
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
		for _, key := range store.keys() {
			pts, _ = store.appendPoints(pts[:0], key, lo, 0, math.MaxInt64, -1)
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
