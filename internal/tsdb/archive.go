package tsdb

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// The handoff archive of one shard: a cluster moves a shard between
// nodes as the files of its frozen directory, framed as one stream — a
// uvarint-framed JSON header {"shard","shards"}, then per regular file
// a uvarint name length, the name, a uvarint size and the bytes, then a
// zero terminator. The engine that owns the directory writes the
// stream (ArchiveShard) and reads it back (RestoreShard); the cluster
// layer only carries it.

var (
	// ErrBadArchive marks a restore refused for the archive's content: a
	// malformed frame or file name, a row or block series of a device
	// that hashes to another shard, a row outside Storable, a snapshot
	// record that does not decode, a block that does not open.
	ErrBadArchive = errors.New("tsdb: bad archive")
	// ErrArchiveMismatch marks an archive of another shard, or of an
	// engine with another shard count.
	ErrArchiveMismatch = errors.New("tsdb: archive of another shard")
)

// Archive stream limits: the header frame and a file name frame.
const (
	maxArchiveHeader = 1 << 12
	maxArchiveName   = 1 << 10
)

// archiveHeader leads an archive stream.
type archiveHeader struct {
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
}

// badArchive wraps ErrBadArchive; format continues its message.
func badArchive(format string, a ...any) error {
	return fmt.Errorf("%w"+format, append([]any{ErrBadArchive}, a...)...)
}

// shardFiles lists the regular files directly inside a shard directory
// (shard directories are flat), in name order.
func shardFiles(dir string) ([]fs.FileInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make([]fs.FileInfo, 0, len(ents))
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			files = append(files, info)
		}
	}
	return files, nil
}

// dirBytes sums the sizes of a shard directory's files (0 when it
// cannot be listed).
func dirBytes(dir string) int64 {
	files, _ := shardFiles(dir)
	var n int64
	for _, f := range files {
		n += f.Size()
	}
	return n
}

// ArchiveShard writes shard i's directory to w as an archive stream: a
// snapshot and blocks (or, on a node of the per-shard layout, a log
// beside them). The shard must be synced (SyncShard) and take no writes
// or compactions until the copy ends, so each file's declared size is
// exact. An in-memory engine has nothing to archive (ErrNotDurable).
// Nothing is written to w before the directory is listed; a later error
// leaves the stream torn, which the restorer's frame parse refuses.
func (s *Sharded) ArchiveShard(i int, w io.Writer) error {
	dir := s.ShardDir(i)
	if dir == "" {
		return ErrNotDurable
	}
	files, err := shardFiles(dir)
	if err != nil {
		return fmt.Errorf("tsdb: archive shard %d: %w", i, err)
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	frame := func(p []byte) {
		_, _ = bw.Write(binary.AppendUvarint(nil, uint64(len(p))))
		_, _ = bw.Write(p) // a write error sticks in bw and is returned by Flush
	}
	hdr, _ := json.Marshal(archiveHeader{Shard: i, Shards: len(s.shards)})
	frame(hdr)
	for _, info := range files {
		frame([]byte(info.Name()))
		_, _ = bw.Write(binary.AppendUvarint(nil, uint64(info.Size())))
		if err := copyFile(bw, filepath.Join(dir, info.Name()), info.Size()); err != nil {
			return fmt.Errorf("tsdb: archive shard %d: %w", i, err)
		}
	}
	_ = bw.WriteByte(0)
	return bw.Flush()
}

// copyFile copies the first n bytes of the file at path to w.
func copyFile(w io.Writer, path string, n int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close() //lint:ignore closecheck read-only archive source; a close error cannot corrupt the stream
	_, err = io.CopyN(w, f, n)
	return err
}

// RestoreShard replaces shard i, through its worker queue, with the
// shard an archive stream carries — its snapshot's head rows, the log
// tail an archive of the per-shard layout carries, and its manifest's
// blocks — and reports the head rows it loaded. The files land in a
// temporary directory, removed when the restore ends. The replacement
// is one view change, made durable by one snapshot, so no row is
// journaled again. An archive of another shard fails with
// ErrArchiveMismatch, and one refused for its content with
// ErrBadArchive, before the shard changes; a failure past those checks
// (the target's own IO, a block chunk that fails its CRC) leaves the
// shard empty, durably, so a retry restores it whole. An in-memory
// engine restores only an archive without blocks (ErrNotDurable).
func (s *Sharded) RestoreShard(i int, archive io.Reader) (int, error) {
	dir, err := s.unpackArchive(i, archive)
	if dir != "" {
		defer os.RemoveAll(dir)
	}
	if err != nil {
		return 0, err
	}
	op := &shardOp{kind: opRestore, dir: dir}
	err = s.enqueueOp(i, op)
	return op.rows, err
}

// unpackArchive checks an archive's header against shard i and writes
// its files into a new temporary directory, which it returns ("" if it
// made none).
func (s *Sharded) unpackArchive(i int, archive io.Reader) (string, error) {
	br := bufio.NewReaderSize(archive, 1<<16)
	readFrame := func(limit uint64) ([]byte, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if n > limit {
			return nil, fmt.Errorf("frame of %d bytes exceeds limit %d", n, limit)
		}
		p := make([]byte, n)
		if _, err := io.ReadFull(br, p); err != nil {
			return nil, err
		}
		return p, nil
	}
	raw, err := readFrame(maxArchiveHeader)
	if err != nil {
		return "", badArchive(" header: %v", err)
	}
	var hdr archiveHeader
	if err := json.Unmarshal(raw, &hdr); err != nil {
		return "", badArchive(" header: %v", err)
	}
	if hdr.Shard != i || hdr.Shards != len(s.shards) {
		return "", fmt.Errorf("%w: archive is shard %d of %d, this engine expects shard %d of %d",
			ErrArchiveMismatch, hdr.Shard, hdr.Shards, i, len(s.shards))
	}
	dir, err := os.MkdirTemp("", "tsdb-restore-")
	if err != nil {
		return "", fmt.Errorf("tsdb: %w", err)
	}
	for {
		name, err := readFrame(maxArchiveName)
		if err != nil {
			return dir, badArchive(" frame: %v", err)
		}
		if len(name) == 0 {
			return dir, nil // terminator
		}
		if !plainName(string(name)) {
			return dir, badArchive(" file name %q", name)
		}
		size, err := binary.ReadUvarint(br)
		if err != nil {
			return dir, badArchive(" frame: %v", err)
		}
		if err := writeArchived(filepath.Join(dir, string(name)), br, int64(size)); err != nil {
			return dir, err
		}
	}
}

// writeArchived writes the next size bytes of an archive stream to a
// new file at path. A stream that ends first is a bad archive; a
// failure to write is the target's own.
func writeArchived(path string, r io.Reader, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	_, err = io.CopyN(f, r, size)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return badArchive(" file %q: %v", filepath.Base(path), err)
	case err != nil:
		return fmt.Errorf("tsdb: %w", err)
	}
	return nil
}

// plainName reports whether an archived name is one plain file name: no
// path, not the directory itself, and short enough for any file system.
func plainName(n string) bool {
	return n != "" && n != "." && n != ".." && len(n) <= 255 && !strings.ContainsAny(n, "/\\\x00")
}
