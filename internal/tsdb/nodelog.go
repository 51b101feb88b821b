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
// <Dir>/wal. Each caller batch stages one record — its shard parts and
// its caller's note — and hands each shard its part, then commits the
// record while the shards work through their queues; a shard worker
// commits the record too before it applies the part (sharded.go), which
// is a no-op once it is written. The log group-commits them. Shard
// snapshots (publish, blocks.go) let the log be truncated below its
// floor.

// nodeLog is the engine's one write-ahead log and what bounds it.
type nodeLog struct {
	log   *wal.Log
	disks []*shardDisk
	// mu orders the log's records with the shard queues: a batch stages
	// its record, sets its shards' journaled marks and hands its parts
	// to the shard queues under it, so every shard receives its parts in
	// seq order. A full queue holds it (backpressure), which cannot
	// deadlock: the shard workers that drain the queues never take it.
	// Log IO never runs under it.
	mu sync.Mutex // districtlint:lockio
	// marked is the seq of the last record whose shards' journaled marks
	// are set: a record above it may not be marked yet.
	marked atomic.Uint64
	// pin, when set, reports the lowest seq a caller still needs.
	pin atomic.Pointer[func() uint64]
	// notes are the notes recovery found, until Notes hands them out.
	notes []Note

	// gmu guards staging against the commit-group count: rows counts
	// the rows journaled since open (written under mu and gmu), uncounted
	// the rows of each staged record no node-log write has counted yet
	// (instrumented engines only).
	gmu       sync.Mutex
	rows      int64
	uncounted map[uint64]int

	walAppend *obs.Histogram // nil when unmetered
	groupRows *obs.Histogram // nil when unmetered
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

// commit returns once the record seq is in the node log. The record's
// producer times its wait as the record's wal-append (timed), once
// however many shards the record spans; the call that wrote counts the
// rows its write covered, so one commit group is one node-log write.
func (n *nodeLog) commit(seq uint64, timed bool, st *obs.Stages) error {
	timed = timed && (n.walAppend != nil || st != nil)
	var start time.Time
	if timed {
		start = time.Now()
	}
	first, last, err := n.log.Commit(seq)
	if timed {
		d := time.Since(start)
		if n.walAppend != nil {
			n.walAppend.ObserveDuration(d)
		}
		st.Observe("wal-append", d)
	}
	if last > 0 && n.uncounted != nil {
		n.gmu.Lock()
		rows := 0
		for q := first; q <= last; q++ {
			rows += n.uncounted[q]
			delete(n.uncounted, q)
		}
		n.gmu.Unlock()
		if rows > 0 {
			n.groupRows.Observe(float64(rows))
		}
	}
	return err
}

// journalItem is one caller batch on its way through the node log: the
// shard parts partition made, their record (encoded by the caller, so
// producers encode in parallel), and the outcome slots. stage sets seq
// (the record's; 0 when nothing was journaled) and jrows.
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

// stage journals one caller batch: under the node log's lock it stages
// the batch's record, sets the journaled mark of every shard the record
// has rows for, and hands each shard its part, so every shard queue
// holds its parts in log order. Each part commits the record before it
// applies (apply). A log that refuses the record fails every row of the
// batch — the engine never acknowledges state it cannot recover — and
// leaves it.seq 0.
func (s *Sharded) stage(it *journalItem) {
	n := s.node
	rows := 0
	for _, part := range it.per {
		rows += len(part)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gmu.Lock()
	seq, err := n.log.Stage(it.rec)
	if err == nil {
		n.rows += int64(rows)
		if n.uncounted != nil {
			n.uncounted[seq] = rows
		}
	}
	n.gmu.Unlock()
	if err != nil {
		for sh, part := range it.per {
			s.drop(part, it.idx[sh], it.errs, err)
		}
		it.done.Done()
		return
	}
	it.seq, it.jrows = seq, n.rows
	for sh, part := range it.per {
		if len(part) > 0 {
			n.disks[sh].journaled.Store(seq)
		}
	}
	n.marked.Store(seq)
	s.dispatch(it)
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
// Runs under the node log's lock.
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
