package tsdb

import (
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

// The durable layer of the Sharded engine. Each shard owns a segmented
// write-ahead log under <Dir>/shard-NNNN: the shard's single-writer
// worker journals every queued row batch (group-committed — one fsync
// covers everything queued behind the first item) BEFORE applying it to
// the in-memory store, so a row is never acked without being on disk
// first. Periodically the worker runs a compaction cycle, whose view
// change (publish, blocks.go) dumps the shard's head into a snapshot
// file at the current log watermark and deletes the segments below it,
// bounding both recovery time and disk footprint. Boot-time
// recovery is the reverse: load the latest snapshot, replay the log
// tail above its watermark, and the series catalog rebuilds itself as
// rows land in the store.

// shardDisk is one shard's durable state; only that shard's worker
// goroutine mutates it after recovery. sinceSnap and lastSnap are
// atomics purely so metric scrapes can read them from other
// goroutines — the worker remains the only writer.
type shardDisk struct {
	log *wal.Log
	dir string
	mx  *shardMetrics // nil when the engine runs unmetered

	sinceSnap atomic.Int64 // rows appended since the last snapshot
	lastSnap  atomic.Int64 // unix-nanos of the last snapshot cut

	// enc is the WAL record scratch of the shard's commit groups; only
	// the worker touches it.
	enc recordScratch
}

// recordScratch is the record buffer one shard's commit groups share:
// every queue item of a group encodes into buf, and recs are the
// records' windows over it. A group reuses what the previous one grew,
// so the encoder allocates nothing in steady state.
type recordScratch struct {
	buf    []byte
	bounds []int
	recs   [][]byte
}

// maxRetainedRecordBytes bounds the record buffer a shard keeps between
// groups: one outsized group (a restore replaying huge batches) must not
// pin its buffer for the life of the engine.
const maxRetainedRecordBytes = 4 << 20

// encode encodes the rows of every item of group, one record per item
// with rows, and returns the records. They alias the scratch: they are
// valid until the next encode or release.
func (rs *recordScratch) encode(group []batchItem) [][]byte {
	buf, bounds := rs.buf[:0], rs.bounds[:0]
	for _, it := range group {
		if len(it.rows) == 0 {
			continue
		}
		start := len(buf)
		buf = encodeRows(buf, it.rows)
		bounds = append(bounds, start, len(buf))
	}
	recs := rs.recs[:0]
	for j := 0; j < len(bounds); j += 2 {
		recs = append(recs, buf[bounds[j]:bounds[j+1]])
	}
	rs.buf, rs.bounds, rs.recs = buf, bounds, recs
	return recs
}

// release ends the use of the last encode's records, dropping a buffer
// grown past maxRetainedRecordBytes.
func (rs *recordScratch) release() {
	if cap(rs.buf) > maxRetainedRecordBytes {
		clear(rs.recs) // the windows would pin the dropped buffer
		rs.buf = nil
	}
}

// shardMetrics holds one shard's latency histograms. Gauges over the
// shard's live state are registered as scrape-time callbacks instead,
// so the append hot path never updates them.
type shardMetrics struct {
	walAppend  *obs.Histogram
	fsync      *obs.Histogram
	snapDur    *obs.Histogram
	compactDur *obs.Histogram
}

func newShardMetrics(reg *obs.Registry, i int) *shardMetrics {
	shard := obs.Labels{"shard": strconv.Itoa(i)}
	return &shardMetrics{
		walAppend: reg.Histogram("repro_tsdb_wal_append_seconds",
			"WAL group-commit append latency, per shard.",
			obs.LatencyBuckets, shard),
		fsync: reg.Histogram("repro_tsdb_wal_fsync_seconds",
			"WAL data-file fsync latency, per shard.",
			obs.FastLatencyBuckets, shard),
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
		if err := json.Unmarshal(raw, &m); err != nil || m.Shards <= 0 {
			return 0, fmt.Errorf("tsdb: corrupt %s: %v", path, err)
		}
		return m.Shards, nil
	case os.IsNotExist(err):
		// tmp + fsync + rename (+ directory sync), like snapshots: a
		// crash during first boot must leave either no meta file or a
		// whole one — a truncated engine.json would brick the data dir
		// on every reopen.
		raw, _ := json.Marshal(engineMeta{Shards: shards})
		tmp := path + ".tmp"
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, fmt.Errorf("tsdb: %w", err)
		}
		_, werr := f.Write(raw)
		if serr := f.Sync(); werr == nil {
			werr = serr
		}
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr == nil {
			werr = os.Rename(tmp, path)
		}
		if werr != nil {
			os.Remove(tmp)
			return 0, fmt.Errorf("tsdb: %w", werr)
		}
		// Best effort, like the WAL's own directory fsyncs.
		_ = wal.SyncDir(dir)
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
// the latest snapshot's, then the WAL tail's above its watermark — and
// returns the log, open at its tail, with the snapshot's block manifest.
func replayShard(dir string, lopts wal.Options, apply func([]Row) error) (*wal.Log, []string, error) {
	rec := func(p []byte) error {
		rows, err := decodeRows(p)
		if err != nil {
			return err
		}
		return apply(rows)
	}
	seq, manifest, err := readSnapshot(dir, rec)
	if err != nil {
		return nil, nil, err
	}
	log, err := wal.Open(dir, lopts)
	if err != nil {
		return nil, nil, err
	}
	if err := log.Replay(seq, func(_ uint64, p []byte) error { return rec(p) }); err != nil {
		return nil, nil, errors.Join(err, log.Close())
	}
	return log, manifest, nil
}

// recoverShard rebuilds one shard's store from its snapshot and log
// tail, then leaves the log open for the shard worker to append to.
// Workers are not running yet, so rows apply directly. onSync (may be
// nil) is handed to the log as its fsync-latency observer. The returned
// manifest names the block files the snapshot anchors; the caller opens
// them.
func recoverShard(dir string, store *Store, opts ShardedOptions, onSync func(time.Duration)) (*shardDisk, []string, error) {
	lopts := wal.Options{SegmentBytes: opts.SegmentBytes, Fsync: opts.Fsync, OnSync: onSync}
	log, manifest, err := replayShard(dir, lopts, func(rows []Row) error {
		store.AppendBatch(rows)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	disk := &shardDisk{log: log, dir: dir}
	disk.lastSnap.Store(time.Now().UnixNano())
	return disk, manifest, nil
}

// ReadShardDir streams the row batches a shard directory holds — the
// latest snapshot first, then the WAL tail above its watermark —
// without opening a live engine. The cluster restore path replays a
// copied shard directory through the receiving node's own write path
// with it, so the rows are re-journaled locally instead of adopting the
// source's files wholesale. Block files are not rows: they ship
// wholesale via BlockFiles/ImportShardBlocks, since demoted data has no
// raw rows to replay.
func ReadShardDir(dir string, fn func([]Row) error) error {
	log, _, err := replayShard(dir, wal.Options{}, fn)
	if err != nil {
		return err
	}
	return log.Close()
}

// maybeSnapshot runs the shard's compaction cycle once SnapshotEvery
// rows have been journaled since the last snapshot. Runs on the shard
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

// snapshotChunk is how many rows one snapshot record carries.
const snapshotChunk = 2048

// ---------------------------------------------------------------------
// Row record codec
// ---------------------------------------------------------------------

// encodeRows appends the WAL/snapshot encoding of a row batch to dst.
// Consecutive rows of the same series carry a 1-byte key-reuse flag
// instead of repeating the strings — batched producers ship per-device
// runs, so the common case is a handful of key payloads per record.
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
