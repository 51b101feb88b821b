package tsdb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// The shard side of the durable Sharded engine. Every row is journaled
// in the node log (nodelog.go) before a shard applies it; each shard
// keeps its head in snapshot files under <Dir>/shard-NNNN, cut at the
// seq of the last record it applied (publish, blocks.go), which lets
// the log be truncated. Boot-time recovery loads every shard's latest
// snapshot, then replays the node log once, applying a shard's part
// where its seq is above that shard's snapshot watermark.

// shardDisk is one shard's durable state. The atomics are read by
// metric scrapes and the floor; the shard worker is their only writer
// after recovery, but for journaled, which staging sets.
type shardDisk struct {
	dir  string
	node *nodeLog
	mx   *shardMetrics // nil when the engine runs unmetered

	sinceSnap atomic.Int64 // rows applied since the last snapshot
	lastSnap  atomic.Int64 // unix-nanos of the last snapshot cut

	// snapSeq is the node-log seq the latest snapshot covers; journaled
	// the seq of the last record with a part for the shard, set before
	// the part is handed over. journaled > snapSeq means the log holds
	// rows of the shard that no snapshot does.
	snapSeq, journaled atomic.Uint64
	// snapRows is the node's count of journaled rows through snapSeq.
	snapRows atomic.Int64
	// applied is the seq of the last record the shard applied, and
	// appliedRows the journaled-row count through it; worker-only.
	applied     uint64
	appliedRows int64
	// forced is set while a publish forcePublish queued is pending.
	forced atomic.Bool
}

// shardMetrics holds one shard's latency histograms. Gauges over the
// shard's live state are registered as scrape-time callbacks instead,
// so the append hot path never updates them.
type shardMetrics struct {
	snapDur    *obs.Histogram
	compactDur *obs.Histogram
}

func newShardMetrics(reg *obs.Registry, i int) *shardMetrics {
	shard := obs.Labels{"shard": strconv.Itoa(i)}
	return &shardMetrics{
		snapDur: reg.Histogram("repro_tsdb_snapshot_duration_seconds",
			"Snapshot cut duration, per shard.",
			obs.LatencyBuckets, shard),
		compactDur: reg.Histogram("repro_tsdb_block_compaction_seconds",
			"Block compaction cycle duration (cut + retention + snapshot), per shard.",
			obs.LatencyBuckets, shard),
	}
}

// engineMeta pins layout decisions a reopen must honour.
type engineMeta struct {
	Shards int `json:"shards"`
}

const metaFile = "engine.json"

// loadOrWriteMeta reconciles the requested shard count with the one the
// data directory was created with: rows are placed by device-hash %
// shards, so reopening with a different count would strand them. The
// on-disk value wins.
func loadOrWriteMeta(dir string, shards int) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("tsdb: %w", err)
	}
	path := filepath.Join(dir, metaFile)
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		var m engineMeta
		if err := json.Unmarshal(raw, &m); err != nil {
			return 0, fmt.Errorf("tsdb: corrupt %s: %w", path, err)
		}
		if m.Shards <= 0 {
			return 0, fmt.Errorf("tsdb: corrupt %s: %d shards", path, m.Shards)
		}
		return m.Shards, nil
	case os.IsNotExist(err):
		// Atomic, like snapshots: a crash during first boot must leave
		// either no meta file or a whole one — a truncated engine.json
		// would brick the data dir on every reopen.
		raw, _ := json.Marshal(engineMeta{Shards: shards})
		f, err := wal.CreateAtomic(path)
		if err == nil {
			_, _ = f.Write(raw) // a write error is sticky: Commit returns it
			err = f.Commit()
		}
		if err != nil {
			return 0, fmt.Errorf("tsdb: %w", err)
		}
		return shards, nil
	default:
		return 0, fmt.Errorf("tsdb: %w", err)
	}
}

// readSnapshot reads the latest snapshot of a shard directory: its
// watermark, the block manifest its first record carries (nil for a
// pre-block snapshot, or none at all), and — into rows, in order —
// every rows record. With rows nil it stops after the manifest.
func readSnapshot(dir string, rows func([]byte) error) (uint64, []string, error) {
	seq, sr, err := wal.LatestSnapshot(dir)
	if err != nil || sr == nil {
		return 0, nil, err
	}
	var manifest []string
	for first := true; ; first = false {
		p, err := sr.Record()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, nil, errors.Join(err, sr.Close())
		}
		if first {
			names, isManifest, err := decodeManifest(p)
			if err != nil {
				return 0, nil, errors.Join(err, sr.Close())
			}
			manifest = names
			if isManifest && rows != nil {
				continue
			}
		}
		if rows == nil {
			break
		}
		if err := rows(p); err != nil {
			return 0, nil, errors.Join(err, sr.Close())
		}
	}
	// A close error on the read-only file cannot invalidate what was
	// decoded.
	_ = sr.Close() //lint:ignore closecheck read-only snapshot already decoded; close error cannot lose data
	return seq, manifest, nil
}

// replayShard streams the row batches of a shard directory into apply —
// the latest snapshot's, then the shard's own log tail above the
// snapshot's watermark, which only a directory of the per-shard layout
// (one log per shard, before the node log) holds — and returns the last
// seq it read, the snapshot's watermark when no record is above it,
// with the snapshot's block manifest.
func replayShard(dir string, apply func([]Row) error) (uint64, []string, error) {
	rec := func(p []byte) error {
		rows, err := decodeRows(p)
		if err != nil {
			return err
		}
		return apply(rows)
	}
	last, manifest, err := readSnapshot(dir, rec)
	if err != nil {
		return 0, nil, err
	}
	err = wal.ReadDir(dir, last, func(seq uint64, p []byte) error {
		last = seq
		return rec(p)
	})
	return last, manifest, err
}

// openDurable recovers a durable engine. Every shard loads its latest
// snapshot and blocks — and, on the first boot over the per-shard
// layout, replays its own log tail — then one pass over the node log
// applies each shard's parts above its watermark and collects the
// notes. A new node log starts above every shard's seq, so the
// snapshots it cuts outrank the older layout's; a shard that had its own
// log is then published and the log removed. Workers are not running
// yet, so rows apply directly.
func (s *Sharded) openDurable(opts ShardedOptions, reg *obs.Registry) (err error) {
	node := &nodeLog{disks: make([]*shardDisk, len(s.shards)), groupRows: s.groupRows}
	if s.groupRows != nil {
		node.uncounted = make(map[uint64]int)
	}
	defer func() {
		if err == nil {
			return
		}
		if node.log != nil {
			err = errors.Join(err, node.log.Close())
		}
		for _, bs := range s.bsets {
			for _, b := range bs.blocks {
				err = errors.Join(err, b.Close())
			}
		}
	}()
	var top uint64
	var legacy []int
	for i := range node.disks {
		d := &shardDisk{dir: filepath.Join(opts.Dir, fmt.Sprintf("shard-%04d", i)), node: node}
		if err := os.MkdirAll(d.dir, 0o755); err != nil {
			return fmt.Errorf("tsdb: %w", err)
		}
		segs, err := wal.ListLog(d.dir)
		if err != nil {
			return fmt.Errorf("tsdb: recover shard %d: %w", i, err)
		}
		if len(segs) > 0 {
			legacy = append(legacy, i)
		}
		store := s.shards[i]
		last, manifest, err := replayShard(d.dir, func(rows []Row) error {
			store.AppendBatch(rows)
			return nil
		})
		if err != nil {
			return fmt.Errorf("tsdb: recover shard %d: %w", i, err)
		}
		blocks, nextID, err := openManifestBlocks(d.dir, manifest)
		if err != nil {
			return fmt.Errorf("tsdb: recover shard %d: %w", i, err)
		}
		s.bsets[i] = &blockSet{dir: d.dir, blocks: blocks, nextID: nextID}
		d.snapSeq.Store(last)
		d.journaled.Store(last)
		d.applied = last
		d.lastSnap.Store(time.Now().UnixNano())
		top = max(top, last)
		node.disks[i] = d
	}
	lopts := wal.Options{SegmentBytes: opts.SegmentBytes, Fsync: opts.Fsync, FirstSeq: top + 1}
	if reg != nil {
		node.walAppend = reg.Histogram("repro_tsdb_wal_append_seconds",
			"Node-log group-commit append latency.", obs.LatencyBuckets, nil)
		lopts.OnSync = reg.Histogram("repro_tsdb_wal_fsync_seconds",
			"Node-log data-file fsync latency.", obs.FastLatencyBuckets, nil).ObserveDuration
	}
	if node.log, err = wal.Open(filepath.Join(opts.Dir, "wal"), lopts); err != nil {
		return fmt.Errorf("tsdb: open node log: %w", err)
	}
	err = node.log.Replay(0, func(seq uint64, p []byte) error {
		note, err := walkRecord(p, func(sh int, part []byte) error {
			if sh < 0 || sh >= len(node.disks) {
				return errBadRecord
			}
			d := node.disks[sh]
			if seq <= d.snapSeq.Load() {
				return nil
			}
			rows, err := decodeRows(part)
			if err != nil {
				return err
			}
			store := s.shards[sh]
			store.AppendBatch(rows)
			d.journaled.Store(seq)
			d.applied = seq
			d.sinceSnap.Add(int64(len(rows)))
			return nil
		})
		if len(note) > 0 {
			node.notes = append(node.notes, Note{Seq: seq, Data: bytes.Clone(note)})
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("tsdb: replay node log: %w", err)
	}
	node.marked.Store(node.log.LastSeq())
	s.node, s.disks, s.blockPolicy = node, node.disks, opts.Blocks
	for _, i := range legacy {
		d := node.disks[i]
		d.applied = node.log.LastSeq()
		if err := publish(s.shards[i], d, s.bsets[i], viewChange{next: s.bsets[i].blocks}); err != nil {
			return fmt.Errorf("tsdb: upgrade shard %d: %w", i, err)
		}
		if err := wal.RemoveLog(d.dir); err != nil {
			return fmt.Errorf("tsdb: upgrade shard %d: %w", i, err)
		}
	}
	if reg != nil {
		s.registerDurableMetrics(reg)
	}
	return nil
}

// maybeSnapshot runs the shard's compaction cycle once SnapshotEvery
// rows have been applied since the last snapshot. Runs on the shard
// worker, so the store sees no concurrent writes while dumping. Reports
// whether a pass ran at all (even a failed one) — the caller bumps the
// shard generation on it, since a compaction pass may have republished
// the block view.
func (s *Sharded) maybeSnapshot(store *Store, disk *shardDisk, bs *blockSet) bool {
	if s.snapEvery <= 0 || int(disk.sinceSnap.Load()) < s.snapEvery {
		return false
	}
	_ = s.compactShard(store, disk, bs) // on failure: log intact, previous view authoritative
	return true
}

// ---------------------------------------------------------------------
// Row record codec
// ---------------------------------------------------------------------

// snapshotChunk is how many rows one snapshot record carries.
const snapshotChunk = 2048

// encodeRows appends the WAL/snapshot encoding of a row batch to dst.
// Consecutive rows of the same series carry a 1-byte key-reuse flag
// instead of repeating the strings — the engine's partition orders a
// shard part by series, so a record carries one key payload per series.
func encodeRows(dst []byte, rows []Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	var prev SeriesKey
	for i := range rows {
		r := &rows[i]
		if i > 0 && r.Key == prev {
			dst = append(dst, 0)
		} else {
			dst = append(dst, 1)
			dst = binary.AppendUvarint(dst, uint64(len(r.Key.Device)))
			dst = append(dst, r.Key.Device...)
			dst = binary.AppendUvarint(dst, uint64(len(r.Key.Quantity)))
			dst = append(dst, r.Key.Quantity...)
			prev = r.Key
		}
		dst = binary.AppendVarint(dst, r.Sample.At.UnixNano())
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Sample.Value))
	}
	return dst
}

var errBadRecord = errors.New("tsdb: malformed row record")

// decodeRows parses one encoded row batch. The record arrived through a
// CRC-checked frame, so a decode failure means a version mismatch or a
// bug, not bit rot — it is returned, never papered over.
func decodeRows(p []byte) ([]Row, error) {
	n, off := binary.Uvarint(p)
	if off <= 0 || n > uint64(len(p)) { // each row needs >= 1 byte
		return nil, errBadRecord
	}
	rows := make([]Row, 0, n)
	var key SeriesKey
	readString := func() (string, bool) {
		l, m := binary.Uvarint(p[off:])
		if m <= 0 {
			return "", false
		}
		off += m
		if uint64(len(p)-off) < l {
			return "", false
		}
		s := string(p[off : off+int(l)])
		off += int(l)
		return s, true
	}
	for i := uint64(0); i < n; i++ {
		if off >= len(p) {
			return nil, errBadRecord
		}
		flag := p[off]
		off++
		if flag == 1 {
			dev, ok := readString()
			if !ok {
				return nil, errBadRecord
			}
			qty, ok := readString()
			if !ok {
				return nil, errBadRecord
			}
			key = SeriesKey{Device: dev, Quantity: qty}
		} else if flag != 0 || i == 0 {
			return nil, errBadRecord
		}
		at, m := binary.Varint(p[off:])
		if m <= 0 {
			return nil, errBadRecord
		}
		off += m
		if len(p)-off < 8 {
			return nil, errBadRecord
		}
		val := math.Float64frombits(binary.LittleEndian.Uint64(p[off:]))
		off += 8
		rows = append(rows, Row{Key: key, Sample: Sample{At: time.Unix(0, at).UTC(), Value: val}})
	}
	return rows, nil
}
