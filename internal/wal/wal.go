// Package wal is the durable storage substrate of the infrastructure: a
// segmented, CRC-checked, append-only record log plus atomic snapshot
// files. The tsdb engine journals every acked row batch through one Log
// per shard, the stream hub re-backs its replay ring with one, and the
// ingest idempotency window persists delivery outcomes alongside — all
// three ride the same segment abstraction, so crash recovery, torn-tail
// handling and compaction behave identically across the write path.
//
// Records are framed as [len uint32][crc32c uint32][payload]; a torn
// frame at the tail (the normal shape of a SIGKILL mid-append) fails the
// CRC, is truncated away on Open, and its sequence number is reused by
// the next append. Every append is write(2)-flushed to the OS before it
// returns, so a process kill never loses acked records in any fsync
// mode; the fsync policy only decides what a whole-machine crash can
// take with it:
//
//	FsyncNone      no fsync — survives process kill, not power loss
//	FsyncInterval  fsync at most every SyncEvery — bounded loss window
//	FsyncAlways    fsync before the append returns — group-committed
//	               by callers that batch, full durability
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Mode is a WAL fsync policy.
type Mode int

// Fsync policies, weakest to strongest.
const (
	FsyncNone Mode = iota
	FsyncInterval
	FsyncAlways
)

// String renders the mode in the form the -fsync flags accept.
func (m Mode) String() string {
	switch m {
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	default:
		return "none"
	}
}

// ParseMode parses a -fsync flag value ("" means FsyncNone).
func ParseMode(s string) (Mode, error) {
	switch strings.TrimSpace(s) {
	case "", "none":
		return FsyncNone, nil
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	default:
		return FsyncNone, fmt.Errorf("wal: bad fsync mode %q (want none, interval or always)", s)
	}
}

// Errors returned by the log.
var (
	ErrClosed  = errors.New("wal: log closed")
	ErrCorrupt = errors.New("wal: corrupt record")
	ErrTooBig  = errors.New("wal: record exceeds MaxRecord")
)

// Options configure a Log.
type Options struct {
	// SegmentBytes rolls the active segment once it exceeds this many
	// bytes (default 8 MiB). Sealed segments are the unit of compaction:
	// TruncateBefore deletes whole segments below a snapshot watermark.
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncNone).
	Fsync Mode
	// SyncEvery is the FsyncInterval background sync period (default
	// 100ms); ignored in the other modes.
	SyncEvery time.Duration
	// FirstSeq is the sequence number of the first record when the
	// directory is empty (default 1). An existing log continues from its
	// own tail and ignores this.
	FirstSeq uint64
	// MaxRecord bounds one record's payload (default 64 MiB); it guards
	// the decoder against reading a garbage length as an allocation.
	MaxRecord int
	// OnSync, when set, receives the duration of every data-file fsync
	// (observability hook). It is called with the log's mutex held and
	// must not block or call back into the log.
	OnSync func(d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.FirstSeq == 0 {
		o.FirstSeq = 1
	}
	if o.MaxRecord <= 0 {
		o.MaxRecord = maxRecord
	}
	return o
}

const (
	segSuffix   = ".seg"
	frameHeader = 8        // len + crc
	maxRecord   = 64 << 20 // default MaxRecord, and every snapshot record's bound
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is a segmented append-only record log. Appends assign contiguous
// sequence numbers; segment files are named by the sequence of their
// first record, so a reader derives every record's sequence from the
// file name and its position. One goroutine may append at a time (the
// log serializes internally); Replay is meant for recovery, before
// concurrent appends start.
type Log struct {
	dir  string
	opts Options

	mu     sync.Mutex
	f      *os.File // active segment
	buf    []byte   // frames not yet written to f
	segs   []uint64 // base seq of every segment, ascending; last is active
	next   uint64   // next seq to assign
	size   int64    // bytes in the active segment
	dirty  bool     // bytes flushed to the OS but not fsynced
	err    error    // sticky background sync failure
	closed bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open opens (creating if needed) the log in dir. The tail segment is
// scanned and truncated at the first torn or corrupt frame, so a log
// cut down mid-append by a crash recovers to its last whole record.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	bases, err := ListSeq(dir, segSuffix)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, stop: make(chan struct{})}
	if len(bases) == 0 {
		if err := l.createSegment(opts.FirstSeq); err != nil {
			return nil, err
		}
	} else {
		base := bases[len(bases)-1]
		count, valid, err := scanSegment(l.segPath(base), opts.MaxRecord)
		if err != nil {
			return nil, err
		}
		if info, err := os.Stat(l.segPath(base)); err == nil && info.Size() > valid {
			if err := os.Truncate(l.segPath(base), valid); err != nil {
				return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
			}
		}
		f, err := os.OpenFile(l.segPath(base), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f = f
		l.segs = bases
		l.next = base + uint64(count)
		l.size = valid
	}
	if opts.Fsync == FsyncInterval {
		l.wg.Add(1)
		go l.syncLoop()
	}
	return l, nil
}

func (l *Log) segPath(base uint64) string {
	return filepath.Join(l.dir, SeqName(base, segSuffix))
}

// scanSegment counts the whole frames of a segment and the byte length
// they occupy; a torn or corrupt tail is simply excluded.
func scanSegment(path string, limit int) (count int, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close() //lint:ignore closecheck read-only scan; close error cannot lose data
	r := newFrameReader(f, limit)
	for {
		_, err := r.next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, ErrCorrupt) {
				return count, valid, nil
			}
			return 0, 0, err
		}
		count++
		valid = r.off
	}
}

// frameReader reads frames sequentially, tracking the offset after the
// last whole frame. Any malformed frame — short header, zero or
// oversized length, payload cut short, CRC mismatch — reads as
// ErrCorrupt; clean end-of-file as io.EOF.
type frameReader struct {
	r   io.Reader
	max int
	off int64
	buf []byte
}

func newFrameReader(r io.Reader, max int) *frameReader {
	return &frameReader{r: bufio.NewReaderSize(r, 1<<16), max: max}
}

// appendFrameHeader appends the header of p's frame to dst.
func appendFrameHeader(dst, p []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(p, castagnoli))
}

func (fr *frameReader) next() ([]byte, error) {
	var hdr [frameHeader]byte
	n, err := io.ReadFull(fr.r, hdr[:])
	if n == 0 && errors.Is(err, io.EOF) {
		return nil, io.EOF
	}
	if err != nil {
		return nil, ErrCorrupt // torn header
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	crc := binary.LittleEndian.Uint32(hdr[4:8])
	if length == 0 || int(length) > fr.max {
		return nil, ErrCorrupt
	}
	if cap(fr.buf) < int(length) {
		fr.buf = make([]byte, length)
	}
	payload := fr.buf[:length]
	if _, err := io.ReadFull(fr.r, payload); err != nil {
		return nil, ErrCorrupt // torn payload
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, ErrCorrupt
	}
	fr.off += frameHeader + int64(length)
	return payload, nil
}

func (l *Log) createSegment(base uint64) error {
	f, err := os.OpenFile(l.segPath(base), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.segs = append(l.segs, base)
	l.next = base
	l.size = 0
	return nil
}

// rollLocked seals the active segment and opens the next one, based at
// base (normally l.next). Sealed segments are fsynced in the durable
// modes so compaction never deletes the only synced copy of a record.
func (l *Log) rollLocked(base uint64) error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.opts.Fsync != FsyncNone {
		if err := l.syncFile(l.f); err != nil {
			return err
		}
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.createSegment(base)
}

// SkipTo advances the next sequence to seq by sealing the active
// segment and opening a new one based there. Callers that bind an
// external ID space to the log (the stream hub's event IDs) use it
// after a restart to jump past IDs that may have been assigned live
// but lost from the journal's tail — re-issuing those to different
// records would let a resuming consumer mistake fresh data for
// already-seen. No-op when seq is not ahead of the log.
func (l *Log) SkipTo(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if seq <= l.next {
		return nil
	}
	if err := l.rollLocked(seq); err != nil {
		return l.failLocked(fmt.Errorf("wal: skip to %d: %w", seq, err))
	}
	return nil
}

// Append writes one record and returns its sequence number, honouring
// the fsync policy. The payload reaches the OS (write(2)) before Append
// returns in every mode.
func (l *Log) Append(p []byte) (uint64, error) {
	return l.AppendBatch([][]byte{p})
}

// AppendBatch writes records contiguously and returns the sequence of
// the last. In FsyncAlways mode the whole batch is covered by a single
// fsync — the group-commit path for callers that queue writes.
func (l *Log) AppendBatch(ps [][]byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if len(ps) == 0 {
		return l.next - 1, nil
	}
	// Validate the whole batch before buffering any of it: rejecting a
	// record mid-batch would leave its predecessors buffered with
	// sequence numbers assigned — flushed by the next successful append
	// as phantom records of a batch the caller was told failed.
	for _, p := range ps {
		if len(p) == 0 || len(p) > l.opts.MaxRecord {
			return 0, ErrTooBig
		}
	}
	for _, p := range ps {
		if l.size >= l.opts.SegmentBytes {
			if err := l.rollLocked(l.next); err != nil {
				return 0, l.failLocked(fmt.Errorf("wal: roll segment: %w", err))
			}
		}
		l.buf = append(appendFrameHeader(l.buf, p), p...)
		l.size += frameHeader + int64(len(p))
		l.next++
	}
	if err := l.flushLocked(); err != nil {
		return 0, l.failLocked(fmt.Errorf("wal: %w", err))
	}
	if l.opts.Fsync == FsyncAlways {
		if err := l.syncFile(l.f); err != nil {
			return 0, l.failLocked(fmt.Errorf("wal: %w", err))
		}
	} else {
		l.dirty = true
	}
	return l.next - 1, nil
}

// flushLocked writes the buffered frames to the active segment.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	_, err := l.f.Write(l.buf)
	l.buf = l.buf[:0]
	return err
}

// syncFile fsyncs one of the log's data files, reporting the stall to
// the OnSync observability hook when one is installed.
func (l *Log) syncFile(f *os.File) error {
	if l.opts.OnSync == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	l.opts.OnSync(time.Since(start))
	return err
}

// failLocked poisons the log after a write-path failure. A failed or
// short write can leave a torn frame mid-segment; anything appended
// after it would sit beyond the tear and be silently truncated by the
// next recovery scan — acked-but-unrecoverable, the one thing a WAL
// must never produce. So the first failure is sticky: every later
// append fails fast until the log is reopened (which truncates at the
// tear and restores the invariant).
func (l *Log) failLocked(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// Sync flushes and fsyncs the active segment. Like append failures, a
// sync failure poisons the log (see failLocked).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.syncLocked(); err != nil {
		if !errors.Is(err, ErrClosed) {
			return l.failLocked(err)
		}
		return err
	}
	return nil
}

func (l *Log) syncLocked() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	if err := l.syncFile(l.f); err != nil {
		return err
	}
	l.dirty = false
	return nil
}

// syncLoop is the FsyncInterval background syncer; a failure parks in
// l.err so the next Append surfaces it instead of acking unsynced data.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if !l.closed {
				if err := l.syncLocked(); err != nil && l.err == nil {
					l.err = err
				}
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// LastSeq returns the sequence of the most recent record (FirstSeq-1
// when the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Segments reports how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// Replay streams every record with sequence > after, in order. A torn
// tail in the last segment ends the replay cleanly; corruption in an
// earlier segment is unreachable-data loss and is returned as an error
// wrapping ErrCorrupt. The log is locked for the duration — Replay is a
// recovery-time operation.
func (l *Log) Replay(after uint64, fn func(seq uint64, rec []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.flushLocked(); err != nil {
		return err
	}
	for i, base := range l.segs {
		last := i == len(l.segs)-1
		if !last && l.segs[i+1] <= after+1 {
			continue // every record in this segment is <= after
		}
		if err := l.replaySegment(base, last, after, fn); err != nil {
			return err
		}
	}
	return nil
}

func (l *Log) replaySegment(base uint64, last bool, after uint64, fn func(uint64, []byte) error) error {
	f, err := os.Open(l.segPath(base))
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	defer f.Close() //lint:ignore closecheck read-only replay; close error cannot lose data
	r := newFrameReader(f, l.opts.MaxRecord)
	seq := base
	for {
		p, err := r.next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if errors.Is(err, ErrCorrupt) {
			if last {
				return nil // torn tail: normal kill artefact
			}
			return fmt.Errorf("wal: segment %016x record %d: %w", base, seq, ErrCorrupt)
		}
		if err != nil {
			return err
		}
		if seq > after {
			if err := fn(seq, p); err != nil {
				return err
			}
		}
		seq++
	}
}

// TruncateBefore deletes sealed segments every record of which has
// sequence < seq — the compaction step after a snapshot at seq-1. The
// active segment is never deleted.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segs[:0]
	for i, base := range l.segs {
		if i < len(l.segs)-1 && l.segs[i+1] <= seq {
			if err := os.Remove(l.segPath(base)); err != nil && !os.IsNotExist(err) {
				// Keep the bookkeeping consistent with the directory.
				kept = append(kept, base)
			}
			continue
		}
		kept = append(kept, base)
	}
	l.segs = kept
	return nil
}

// Close flushes, fsyncs and closes the log. Safe to call twice.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	close(l.stop)
	l.mu.Unlock()
	l.wg.Wait()

	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.flushLocked()
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.closed = true
	return err
}
