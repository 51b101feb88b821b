package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The file rules every durable layer shares. A file that must appear
// whole or not at all (a snapshot, a block, the engine meta file) is an
// AtomicFile, so a crash leaves the old state or the new file, plus at
// worst a temp file SweepTemps removes. A file named by a sequence (a
// log segment, a snapshot, a block) is named SeqName and listed by
// ListSeq.

const tmpSuffix = ".tmp"

// AtomicFile is a buffered file written under <path>.tmp that takes its
// final name only on Commit.
type AtomicFile struct {
	f    *os.File
	w    *bufio.Writer
	path string
}

// CreateAtomic opens an AtomicFile that Commit will place at path. A
// temp file left at <path>.tmp by an earlier crash is overwritten.
func CreateAtomic(path string) (*AtomicFile, error) {
	f, err := os.OpenFile(path+tmpSuffix, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &AtomicFile{f: f, w: bufio.NewWriterSize(f, 1<<16), path: path}, nil
}

// Write buffers p. A write error is sticky: Commit returns it too.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.w.Write(p) }

// Commit flushes, fsyncs and closes the file, renames it into place and
// syncs the directory. On failure the temp file is removed and nothing
// is left under either name.
func (a *AtomicFile) Commit() error {
	tmp := a.f.Name()
	err := a.w.Flush()
	if err == nil {
		err = a.f.Sync()
	}
	if cerr := a.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, a.path)
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("wal: commit %s: %w", a.path, err)
	}
	// Best effort: the data fsync above already landed, and some
	// filesystems reject directory fsync.
	_ = syncDir(filepath.Dir(a.path))
	return nil
}

// Abort discards the file: nothing is left under either name.
func (a *AtomicFile) Abort() {
	_ = a.f.Close() //lint:ignore closecheck aborting: the temp file is deleted below, nothing durable depends on it
	_ = os.Remove(a.f.Name())
}

// syncDir fsyncs a directory so renames inside it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	return errors.Join(err, d.Close())
}

// SweepTemps removes every *.tmp file in dir: the temp files of atomic
// files a crash cut short. Best effort; run it only while nothing is
// writing an atomic file in dir.
func SweepTemps(dir string) {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// SeqName is the file name of sequence seq: 16 lower-case hex digits,
// then suffix.
func SeqName(seq uint64, suffix string) string {
	return fmt.Sprintf("%016x%s", seq, suffix)
}

// ListSeq returns the sequences of the files in dir named
// SeqName(seq, suffix), ascending (fixed-width names sort as their
// sequences do); other files are left alone. A missing dir holds none;
// any other listing failure is an error.
func ListSeq(dir, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var seqs []uint64
	for _, e := range ents {
		// A name is in the grammar when it is what SeqName makes of it.
		hex, _ := strings.CutSuffix(e.Name(), suffix)
		if seq, err := strconv.ParseUint(hex, 16, 64); err == nil && SeqName(seq, suffix) == e.Name() {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}
