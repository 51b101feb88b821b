// Package wal is the durable storage substrate of the infrastructure: a
// segmented, CRC-checked, append-only record log plus atomic snapshot
// files. A measurements node keeps two logs: the tsdb engine's node log,
// which journals every acked row batch — and, beside its rows, the
// caller's note, such as a keyed ingest request's outcome — before any
// shard applies it, and the stream hub's journal, which re-backs its
// replay ring. Both ride the same segment abstraction, so crash
// recovery, torn-tail handling and compaction behave identically across
// the write path.
//
// Records are framed as [len uint32][crc32c uint32][payload]; a torn
// frame at the tail (the normal shape of a SIGKILL mid-append) fails the
// CRC, is truncated away on Open, and its sequence number is reused by
// the next append. The log group-commits its appenders itself (see
// Log), and a committed record has been write(2)-flushed to the OS, so
// a process kill never loses it in any fsync mode; the fsync policy
// only decides what a whole-machine crash can take with it:
//
//	FsyncNone      no fsync — survives process kill, not power loss
//	FsyncInterval  fsync at most every 100 ms — bounded loss window
//	FsyncAlways    fsync before the commit returns — one per log write,
//	               however many appenders' records it carries
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
	"sync/atomic"
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
	ErrTooBig  = errors.New("wal: record empty or over 64 MiB")
)

// Options configure a Log.
type Options struct {
	// SegmentBytes rolls the active segment, before the next write,
	// once it exceeds this many bytes (default 8 MiB). Sealed segments
	// are the unit of compaction: TruncateBefore deletes whole segments
	// below a snapshot watermark.
	SegmentBytes int64
	// Fsync is the durability policy (default FsyncNone).
	Fsync Mode
	// FirstSeq is the sequence number of the first record when the
	// directory is empty (default 1). An existing log continues from its
	// own tail and ignores this.
	FirstSeq uint64
	// OnSync, when set, receives the duration of every data-file fsync
	// (observability hook). It is called with the log's write side held
	// and must not block or call back into the log.
	OnSync func(d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FirstSeq == 0 {
		o.FirstSeq = 1
	}
	return o
}

const (
	segSuffix   = ".seg"
	frameHeader = 8 // len + crc
	// maxRecord bounds one record's payload, in the log and in a
	// snapshot alike; it guards the decoder against reading a garbage
	// length as an allocation.
	maxRecord = 64 << 20
	// syncEvery is the FsyncInterval background sync period.
	syncEvery = 100 * time.Millisecond
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is a segmented append-only record log that group-commits its
// concurrent appenders: Stage numbers and frames a record in memory,
// and Commit writes everything staged so far — LevelDB's writer queue,
// where the front writer commits for everyone queued behind it. Segment
// roll, interval sync and truncation run on that write side. Segment
// files are named by the sequence of their first record, so a reader
// derives every record's sequence from the file name and its position.
// Replay is meant for recovery, before appends start.
type Log struct {
	dir  string
	opts Options

	// mu is the staging lock: it is held to frame a record into buf or
	// to take buf for a write, never across IO. Lock order: wmu, mu.
	mu     sync.Mutex
	buf    []byte // staged frames, from seq committed+1 on
	next   uint64 // next seq to assign
	err    error  // sticky write-path failure
	closed bool

	// wmu is the write side: held across write(2), fsync, segment roll
	// and truncation, and guarding what they touch.
	wmu   sync.Mutex
	f     *os.File // active segment; nil once closed
	spare []byte   // the last written buffer, staged into next
	segs  []uint64 // base seq of every segment, ascending; last is active
	size  int64    // bytes in the active segment
	dirty bool     // bytes written to the OS but not fsynced

	// committed is the seq of the last record written (and, under
	// FsyncAlways, synced).
	committed atomic.Uint64

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
		l.next = opts.FirstSeq
	} else {
		base := bases[len(bases)-1]
		count, valid, err := scanSegment(l.segPath(base), maxRecord)
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
	l.committed.Store(l.next - 1)
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
	f, r, err := openFrames(path, limit)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close() //lint:ignore closecheck read-only scan; close error cannot lose data
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
// oversized length, a length past the end of the file, payload cut
// short, CRC mismatch — reads as ErrCorrupt; clean end-of-file as
// io.EOF. A length is checked before its payload is allocated, so a
// garbage header costs no more memory than the file holds.
type frameReader struct {
	r    io.Reader
	max  int
	size int64 // the file's length when it was opened
	off  int64
	buf  []byte
}

// openFrames opens the framed file at path (a log segment or a
// snapshot) and a frameReader over it; the caller closes the file.
func openFrames(path string, max int) (*os.File, *frameReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close() //lint:ignore closecheck read-only; the Stat failure is the error reported
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	return f, &frameReader{r: bufio.NewReaderSize(f, 1<<16), max: max, size: st.Size()}, nil
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
	if length == 0 || int(length) > fr.max || int64(length) > fr.size-fr.off-frameHeader {
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
	l.size = 0
	return nil
}

// rollLocked seals the active segment and opens the next one, based at
// base. Sealed segments are fsynced in the durable modes so compaction
// never deletes the only synced copy of a record. Held: wmu.
func (l *Log) rollLocked(base uint64) error {
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
// already-seen. No-op when seq is not ahead of the log. Like Replay it
// belongs before appends start.
func (l *Log) SkipTo(seq uint64) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if _, _, err := l.writeLocked(); err != nil || seq <= l.committed.Load()+1 {
		return err
	}
	if err := l.rollLocked(seq); err != nil {
		return l.fail(fmt.Errorf("wal: skip to %d: %w", seq, err))
	}
	l.mu.Lock()
	l.next = seq
	l.mu.Unlock()
	l.committed.Store(seq - 1)
	return nil
}

// Append stages one record and commits it, returning its sequence
// number (meaningless with an error).
func (l *Log) Append(p []byte) (uint64, error) {
	seq, err := l.Stage(p)
	if err == nil {
		_, _, err = l.Commit(seq)
	}
	return seq, err
}

// Stage assigns p the next sequence number and frames it into the
// staging buffer; it waits on no IO, so a caller may stage under a lock
// of its own to bind its order to the log's. The record reaches the log
// at the first Commit through its seq or any later one; until then a
// crash loses it along with every record staged after it. A log that
// failed (see fail) or closed stages nothing.
func (l *Log) Stage(p []byte) (uint64, error) {
	if len(p) == 0 || len(p) > maxRecord {
		return 0, ErrTooBig
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	l.buf = append(appendFrameHeader(l.buf, p), p...)
	seq := l.next
	l.next++
	return seq, nil
}

// Commit returns once every record staged through seq is written to the
// OS and, under FsyncAlways, synced. A committer that finds the write
// side busy waits, and then usually finds its record written by the one
// ahead of it; otherwise it writes everything staged so far, with one
// write(2) and one fsync. It returns the seqs of the first and the last
// record this call wrote, both 0 when an earlier write covered seq. A
// failed write poisons the log, and every record it did not cover
// reports the failure.
func (l *Log) Commit(seq uint64) (first, last uint64, err error) {
	if l.committed.Load() >= seq {
		return 0, 0, nil
	}
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.committed.Load() >= seq {
		return 0, 0, nil
	}
	first, last, err = l.writeLocked()
	if err == nil && last < seq {
		err = fmt.Errorf("wal: commit of seq %d, never staged", seq)
	}
	return first, last, err
}

// maxRetainedBuf bounds the staging buffer a write hands back for reuse:
// one outsized group must not pin its buffer for the life of the log.
const maxRetainedBuf = 1 << 20

// writeLocked writes every staged frame with one write(2) — into a new
// segment when the active one is full, so a write never spans two — and
// under FsyncAlways syncs them. It returns the seqs of the first and
// the last record written (0, 0: nothing was staged). Held: wmu.
func (l *Log) writeLocked() (first, last uint64, err error) {
	if l.f == nil {
		return 0, 0, ErrClosed
	}
	l.mu.Lock()
	b := l.buf
	last, err = l.next-1, l.err
	if err == nil {
		l.buf, l.spare = l.spare[:0], nil
	}
	l.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	if len(b) == 0 {
		l.spare = b
		return 0, 0, nil
	}
	first = l.committed.Load() + 1
	if l.size >= l.opts.SegmentBytes {
		if err := l.rollLocked(first); err != nil {
			return 0, 0, l.fail(fmt.Errorf("wal: roll segment: %w", err))
		}
	}
	if _, err := l.f.Write(b); err != nil {
		return 0, 0, l.fail(fmt.Errorf("wal: %w", err))
	}
	l.size += int64(len(b))
	if l.opts.Fsync == FsyncAlways {
		if err := l.syncFile(l.f); err != nil {
			return 0, 0, l.fail(fmt.Errorf("wal: %w", err))
		}
	} else {
		l.dirty = true
	}
	if cap(b) <= maxRetainedBuf {
		l.spare = b[:0]
	}
	l.committed.Store(last)
	return first, last, nil
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

// fail poisons the log after a write-path failure. A failed or short
// write can leave a torn frame mid-segment; anything appended after it
// would sit beyond the tear and be silently truncated by the next
// recovery scan — acked-but-unrecoverable, the one thing a WAL must
// never produce. So the first failure is sticky: every later stage and
// commit fails fast until the log is reopened (which truncates at the
// tear and restores the invariant).
func (l *Log) fail(err error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
	return err
}

// Sync writes what is staged and fsyncs the active segment. Like a
// failed write, a failed sync poisons the log (see fail).
func (l *Log) Sync() error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if _, _, err := l.writeLocked(); err != nil {
		return err
	}
	if !l.dirty {
		return nil
	}
	if err := l.syncFile(l.f); err != nil {
		return l.fail(fmt.Errorf("wal: %w", err))
	}
	l.dirty = false
	return nil
}

// syncLoop is the FsyncInterval background syncer; a failure poisons
// the log, so the next Stage or Commit surfaces it instead of acking
// unsynced data.
func (l *Log) syncLoop() {
	defer l.wg.Done()
	t := time.NewTicker(syncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync() //lint:ignore closecheck a failure is sticky in l.err, where the next Stage or Commit reports it
		case <-l.stop:
			return
		}
	}
}

// LastSeq returns the sequence of the most recently staged record
// (FirstSeq-1 when the log is empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next - 1
}

// Segments reports how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	return len(l.segs)
}

// Replay streams every record with sequence > after, in order. A torn
// tail in the last segment ends the replay cleanly; corruption in an
// earlier segment is unreachable-data loss and is returned as an error
// wrapping ErrCorrupt. What is staged is written first, and the write
// side stays locked for the duration — Replay is a recovery-time
// operation.
func (l *Log) Replay(after uint64, fn func(seq uint64, rec []byte) error) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if _, _, err := l.writeLocked(); err != nil {
		return err
	}
	return replaySegments(l.dir, l.segs, maxRecord, after, fn)
}

// ReadDir is Replay over the log in dir without opening it: nothing is
// created, truncated or repaired, and a dir without segments holds no
// records. It reads an archived copy, a log a newer layout replaced, or
// a live log up to its last whole record.
func ReadDir(dir string, after uint64, fn func(seq uint64, rec []byte) error) error {
	segs, err := ListLog(dir)
	if err != nil {
		return err
	}
	return replaySegments(dir, segs, maxRecord, after, fn)
}

// ListLog returns the base sequences of the log segments in dir,
// ascending.
func ListLog(dir string) ([]uint64, error) { return ListSeq(dir, segSuffix) }

// RemoveLog deletes every segment of the log in dir; nothing may have
// the log open.
func RemoveLog(dir string) error {
	segs, err := ListLog(dir)
	for _, base := range segs {
		if rerr := os.Remove(filepath.Join(dir, SeqName(base, segSuffix))); rerr != nil && !os.IsNotExist(rerr) {
			err = errors.Join(err, rerr)
		}
	}
	return err
}

// replaySegments streams the records with sequence > after of the
// segments segs of dir.
func replaySegments(dir string, segs []uint64, limit int, after uint64, fn func(uint64, []byte) error) error {
	for i, base := range segs {
		last := i == len(segs)-1
		if !last && segs[i+1] <= after+1 {
			continue // every record in this segment is <= after
		}
		if err := replaySegment(filepath.Join(dir, SeqName(base, segSuffix)), base, limit, last, after, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, base uint64, limit int, last bool, after uint64, fn func(uint64, []byte) error) error {
	f, r, err := openFrames(path, limit)
	if err != nil {
		return err
	}
	defer f.Close() //lint:ignore closecheck read-only replay; close error cannot lose data
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
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.f == nil {
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

// Close writes what is staged, fsyncs and closes the log; it stages
// nothing from its start on. Safe to call twice, and a commit of a
// record staged before Close returns once Close has written it.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	close(l.stop)
	l.wg.Wait()

	l.wmu.Lock()
	defer l.wmu.Unlock()
	_, _, err := l.writeLocked()
	if serr := l.f.Sync(); err == nil {
		err = serr
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
