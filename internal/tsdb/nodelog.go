package tsdb

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// The node log: a durable engine's one write-ahead log, under
// <Dir>/wal. A single journal writer appends one record per caller
// batch — the batch's shard parts and its caller's note — group-
// committing everything queued, then hands each shard its parts in log
// order (sharded.go applies them). Shard snapshots (publish, blocks.go)
// let the log be truncated below its floor.

// nodeLog is the engine's one write-ahead log and what bounds it.
type nodeLog struct {
	log   *wal.Log
	disks []*shardDisk
	// marked is the seq of the last record whose shards' journaled marks
	// are set: a record above it may not be marked yet.
	marked atomic.Uint64
	// pin, when set, reports the lowest seq a caller still needs.
	pin atomic.Pointer[func() uint64]
	// notes are the notes recovery found, until Notes hands them out.
	notes []Note
	// rows counts the rows journaled since open; writer-only.
	rows int64

	walAppend *obs.Histogram // nil when unmetered
}

// Note is a caller's note as the node log holds it: the seq of its
// record and its bytes.
type Note struct {
	Seq  uint64
	Data []byte
}

// floor is the lowest seq the node log must keep: the first record a
// shard applied since its snapshot, any record not yet marked, and the
// pinned holder's seq. A shard without rows above its snapshot does not
// hold the log.
func (n *nodeLog) floor() uint64 {
	f := n.marked.Load() + 1
	for _, d := range n.disks {
		if snap := d.snapSeq.Load(); d.journaled.Load() > snap {
			f = min(f, snap+1)
		}
	}
	if pin := n.pin.Load(); pin != nil {
		f = min(f, (*pin)())
	}
	return f
}

// truncate drops the node-log segments below the floor (best effort:
// a segment left behind only costs disk until the next truncation).
func (n *nodeLog) truncate() {
	_ = n.log.TruncateBefore(n.floor())
}

// journalItem is one caller batch on its way through the node log: the
// shard parts partition made, their record (encoded by the caller, so
// producers encode in parallel), and the outcome slots. The journal
// writer sets seq (the record's; 0 when the append failed) and jrows
// before it releases its hold on done.
type journalItem struct {
	per    [][]Row
	idx    [][]int
	errs   []error
	done   *sync.WaitGroup
	stages *obs.Stages
	rec    []byte
	seq    uint64
	jrows  int64
}

// maxCommitGroup bounds how many queued batches one node-log group
// commit covers.
const maxCommitGroup = 64

// journal is the node log's single writer. Everything already queued
// behind the first item is committed as one group: one node-log append,
// so one write(2) and, in always mode, one fsync, covers the whole wave
// before any of it is applied.
func (s *Sharded) journal() {
	defer s.jwg.Done()
	group := make([]*journalItem, 0, maxCommitGroup)
	recs := make([][]byte, 0, maxCommitGroup)
	for it := range s.jq {
		group = append(group[:0], it)
	drain:
		for len(group) < maxCommitGroup {
			select {
			case it, ok := <-s.jq:
				if !ok {
					break drain
				}
				group = append(group, it)
			default:
				break drain
			}
		}
		recs = recs[:0]
		for _, it := range group {
			recs = append(recs, it.rec)
		}
		s.commit(group, recs)
	}
}

// commit journals one group, recs being its items' records, then hands
// every record's shard parts to the shard queues in log order. Each
// shard's journaled mark is set before its part is handed over, and
// marked after all of them, so the floor never passes a record a shard
// still needs. A node-log failure fails every row of the group without
// applying any of them — the engine never acknowledges state it cannot
// recover.
func (s *Sharded) commit(group []*journalItem, recs [][]byte) {
	n := s.node
	rows := 0
	for _, it := range group {
		for _, part := range it.per {
			rows += len(part)
		}
	}
	if s.groupRows != nil && rows > 0 {
		s.groupRows.Observe(float64(rows))
	}
	// The group commits as one append, so its latency IS each member
	// request's wal-append wait. Timing only happens when someone is
	// listening — the uninstrumented hot path takes no timestamps.
	timed := n.walAppend != nil || anyStages(group)
	var start time.Time
	if timed {
		start = time.Now()
	}
	last, err := n.log.AppendBatch(recs)
	if timed {
		d := time.Since(start)
		if n.walAppend != nil {
			n.walAppend.ObserveDuration(d)
		}
		for _, it := range group {
			it.stages.Observe("wal-append", d)
		}
	}
	if err != nil {
		for _, it := range group {
			for sh, part := range it.per {
				for _, j := range it.idx[sh] {
					it.errs[j] = err
				}
				s.dropped.Add(uint64(len(part)))
			}
			it.done.Done()
		}
		return
	}
	seq := last + 1 - uint64(len(group))
	for _, it := range group {
		it.seq = seq
		seq++
		for sh, part := range it.per {
			if len(part) > 0 {
				n.disks[sh].journaled.Store(it.seq)
				n.rows += int64(len(part))
			}
		}
		it.jrows = n.rows
	}
	n.marked.Store(last)
	for _, it := range group {
		s.dispatch(it)
	}
	s.forcePublish()
}

// dispatch hands every shard part of it to its shard's queue, tagged
// with the record's seq, then releases its own hold on it.done: the
// batch is acked once every part has applied.
func (s *Sharded) dispatch(it *journalItem) {
	for sh, part := range it.per {
		if len(part) == 0 {
			continue
		}
		it.done.Add(1)
		s.queues[sh] <- batchItem{rows: part, idx: it.idx[sh], errs: it.errs, done: it.done, stages: it.stages, seq: it.seq, jrows: it.jrows}
	}
	it.done.Done()
}

// forcePublish keeps the node log bounded however cold a shard is: a
// shard with rows above its snapshot once 2 × SnapshotEvery × shards
// rows have been journaled since is sent a compaction cycle, which
// snapshots it and lets the floor past it. A shard taking its share of
// the rows reaches SnapshotEvery of its own after about SnapshotEvery ×
// shards; the factor 2 leaves that cycle to it instead of doubling it.
// Runs on the journal writer.
func (s *Sharded) forcePublish() {
	if s.snapEvery <= 0 {
		return
	}
	limit := 2 * int64(s.snapEvery) * int64(len(s.shards))
	for i, d := range s.disks {
		if d.journaled.Load() > d.snapSeq.Load() && s.node.rows-d.snapRows.Load() >= limit && !d.forced.Swap(true) {
			s.queues[i] <- batchItem{op: &shardOp{kind: opCompact, done: make(chan error, 1)}}
		}
	}
}

// anyStages reports whether any item in the wave carries a stage
// collector.
func anyStages(group []*journalItem) bool {
	for _, it := range group {
		if it.stages != nil {
			return true
		}
	}
	return false
}

// Notes hands back, in log order, the notes of the records a durable
// engine recovered at open; later calls return none.
func (s *Sharded) Notes() []Note {
	if s.node == nil {
		return nil
	}
	notes := s.node.notes
	s.node.notes = nil
	return notes
}

// PinLog registers fn as the node log's one outside holder: truncation
// keeps every record from the seq fn reports (a seq past the log pins
// nothing). The ingest idempotency window pins the oldest delivery it
// remembers. No-op on an in-memory engine.
func (s *Sharded) PinLog(fn func() uint64) {
	if s.node != nil {
		s.node.pin.Store(&fn)
	}
}

// recRows is the type byte of a node-log record holding a caller note
// and the row parts of one batch.
const recRows byte = 1

// appendRecord appends the node-log record of one batch to dst: the
// type byte, the note (uvarint length, bytes), then one part per shard
// with rows — uvarint shard index, 4-byte little-endian length, the
// encodeRows payload — so replay can skip a part without decoding it.
func appendRecord(dst, note []byte, per [][]Row) []byte {
	dst = append(dst, recRows)
	dst = binary.AppendUvarint(dst, uint64(len(note)))
	dst = append(dst, note...)
	for sh, rows := range per {
		if len(rows) == 0 {
			continue
		}
		dst = binary.AppendUvarint(dst, uint64(sh))
		dst = append(dst, 0, 0, 0, 0)
		start := len(dst)
		dst = encodeRows(dst, rows)
		binary.LittleEndian.PutUint32(dst[start-4:], uint32(len(dst)-start))
	}
	return dst
}

// walkRecord hands each shard part of a node-log record to part, in
// order, and returns the record's note, which aliases p.
func walkRecord(p []byte, part func(shard int, payload []byte) error) ([]byte, error) {
	if len(p) == 0 || p[0] != recRows {
		return nil, errBadRecord
	}
	p = p[1:]
	l, m := binary.Uvarint(p)
	if m <= 0 || l > uint64(len(p)-m) {
		return nil, errBadRecord
	}
	note := p[m : m+int(l)]
	for p = p[m+int(l):]; len(p) > 0; {
		sh, m := binary.Uvarint(p)
		if m <= 0 || sh > math.MaxInt32 || len(p)-m < 4 {
			return nil, errBadRecord
		}
		size := binary.LittleEndian.Uint32(p[m:])
		p = p[m+4:]
		if uint64(size) > uint64(len(p)) {
			return nil, errBadRecord
		}
		if err := part(int(sh), p[:size]); err != nil {
			return nil, err
		}
		p = p[size:]
	}
	return note, nil
}

// maxRetainedRecordBytes bounds the record buffer a pooled partition
// scratch keeps between batches.
const maxRetainedRecordBytes = 4 << 20
