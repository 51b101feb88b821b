package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Snapshots are the compaction half of the durability layer: a snapshot
// file captures the full state of a store as of one log sequence, after
// which every log segment at or below that watermark can be deleted
// (TruncateBefore). A snapshot is an AtomicFile, so a crash
// mid-snapshot leaves the previous snapshot (and the uncompacted log)
// authoritative. Content is a stream of CRC-framed records in the same
// format as log segments.

const snapSuffix = ".snap"

// SnapshotWriter frames records into a snapshot file.
type SnapshotWriter struct {
	f *AtomicFile
}

// Record appends one framed record to the snapshot.
func (sw *SnapshotWriter) Record(p []byte) error {
	if len(p) == 0 || len(p) > maxRecord {
		return ErrTooBig
	}
	var hdr [frameHeader]byte
	_, _ = sw.f.Write(appendFrameHeader(hdr[:0], p)) // a write error is sticky: the next Write returns it
	_, err := sw.f.Write(p)
	return err
}

// WriteSnapshot atomically writes the snapshot for watermark seq into
// dir: fn streams the records, then the file is committed as
// <seq>.snap. After it returns, TruncateBefore(seq+1) is safe.
func WriteSnapshot(dir string, seq uint64, fn func(*SnapshotWriter) error) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	f, err := CreateAtomic(snapPath(dir, seq))
	if err != nil {
		return err
	}
	if err := fn(&SnapshotWriter{f: f}); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, SeqName(seq, snapSuffix))
}

// SnapshotReader streams the records of one snapshot file.
type SnapshotReader struct {
	f  *os.File
	fr *frameReader
}

// Record returns the next snapshot record; io.EOF ends the stream. A
// torn or corrupt record returns an error wrapping ErrCorrupt — a
// snapshot is atomic, so unlike a log tail there is no benign cut.
func (sr *SnapshotReader) Record() ([]byte, error) {
	p, err := sr.fr.next()
	if errors.Is(err, ErrCorrupt) {
		return nil, fmt.Errorf("wal: snapshot %s: %w", sr.f.Name(), ErrCorrupt)
	}
	return p, err
}

// Close releases the snapshot file.
func (sr *SnapshotReader) Close() error { return sr.f.Close() }

// LatestSnapshot opens the newest snapshot in dir, returning its
// watermark sequence. A (0, nil, nil) return means no snapshot exists.
func LatestSnapshot(dir string) (uint64, *SnapshotReader, error) {
	seqs, err := ListSeq(dir, snapSuffix)
	if err != nil || len(seqs) == 0 {
		return 0, nil, err
	}
	seq := seqs[len(seqs)-1]
	sr, err := openSnapshot(dir, seq)
	return seq, sr, err
}

func openSnapshot(dir string, seq uint64) (*SnapshotReader, error) {
	f, fr, err := openFrames(snapPath(dir, seq), maxRecord)
	if err != nil {
		return nil, err
	}
	return &SnapshotReader{f: f, fr: fr}, nil
}

// RemoveSnapshotsBefore deletes snapshots with watermark < seq, then
// sweeps the temp files of abandoned ones (SweepTemps). Best effort.
func RemoveSnapshotsBefore(dir string, seq uint64) {
	seqs, _ := ListSeq(dir, snapSuffix)
	for _, s := range seqs {
		if s < seq {
			_ = os.Remove(snapPath(dir, s))
		}
	}
	SweepTemps(dir)
}
