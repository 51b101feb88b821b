package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collect replays the whole log into memory.
func collect(t *testing.T, l *Log, after uint64) (seqs []uint64, recs [][]byte) {
	t.Helper()
	err := l.Replay(after, func(seq uint64, p []byte) error {
		seqs = append(seqs, seq)
		recs = append(recs, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("one"), []byte("two"), []byte("three")}
	for i, p := range want {
		seq, err := l.Append(p)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", seq, i+1)
		}
	}
	seqs, recs := collect(t, l, 0)
	if len(recs) != 3 || !bytes.Equal(recs[2], []byte("three")) || seqs[0] != 1 {
		t.Fatalf("replay = %v %q", seqs, recs)
	}
	// after-filter
	seqs, _ = collect(t, l, 2)
	if len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("replay after 2 = %v", seqs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: continues numbering, keeps the data.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after reopen = %d", got)
	}
	if seq, err := l2.Append([]byte("four")); err != nil || seq != 4 {
		t.Fatalf("append after reopen = %d, %v", seq, err)
	}
	seqs, _ = collect(t, l2, 0)
	if len(seqs) != 4 {
		t.Fatalf("replay after reopen = %v", seqs)
	}
}

func TestFirstSeqAndEmptyLastSeq(t *testing.T) {
	l, err := Open(t.TempDir(), Options{FirstSeq: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.LastSeq(); got != 999 {
		t.Fatalf("empty LastSeq = %d, want 999", got)
	}
	if seq, _ := l.Append([]byte("x")); seq != 1000 {
		t.Fatalf("first seq = %d, want 1000", seq)
	}
}

// tailSegment returns the path of the newest segment file.
func tailSegment(t *testing.T, dir string) string {
	t.Helper()
	bases, err := ListSeq(dir, segSuffix)
	if err != nil || len(bases) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	return filepath.Join(dir, SeqName(bases[len(bases)-1], segSuffix))
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte{byte(i), 1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a kill mid-append: garbage (a torn frame) at the tail.
	f, err := os.OpenFile(tailSegment(t, dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 3 {
		t.Fatalf("LastSeq after torn tail = %d, want 3", got)
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 3 {
		t.Fatalf("replay after torn tail = %v", seqs)
	}
	// The torn record's sequence is reused by the next append.
	if seq, err := l2.Append([]byte("fresh")); err != nil || seq != 4 {
		t.Fatalf("append after truncation = %d, %v", seq, err)
	}
	_, recs := collect(t, l2, 3)
	if len(recs) != 1 || !bytes.Equal(recs[0], []byte("fresh")) {
		t.Fatalf("recs = %q", recs)
	}
}

func TestCorruptPayloadTruncated(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(bytes.Repeat([]byte("a"), 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(bytes.Repeat([]byte("b"), 32)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Flip a byte inside the LAST record's payload: its CRC fails and it
	// is dropped; the first record survives.
	path := tailSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 1 {
		t.Fatalf("replay after corruption = %v, want 1 record", seqs)
	}
}

func TestSegmentRollAndTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 40; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 4 {
		t.Fatalf("segments = %d, want several", l.Segments())
	}
	if err := l.TruncateBefore(21); err != nil {
		t.Fatal(err)
	}
	seqs, _ := collect(t, l, 0)
	if len(seqs) == 0 || seqs[0] > 21 {
		t.Fatalf("first retained seq = %v, want <= 21", seqs)
	}
	if seqs[len(seqs)-1] != 40 {
		t.Fatalf("last seq = %d", seqs[len(seqs)-1])
	}
	// Records >= 21 are all still present (whole-segment granularity may
	// retain some earlier ones).
	n := 0
	for _, s := range seqs {
		if s >= 21 {
			n++
		}
	}
	if n != 20 {
		t.Fatalf("retained >= 21: %d, want 20", n)
	}
}

func TestStageGroupAndTooBig(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i, p := range []string{"a", "b", "c"} {
		if seq, err := l.Stage([]byte(p)); err != nil || seq != uint64(i+1) {
			t.Fatalf("stage %q = %d, %v; want %d", p, seq, err, i+1)
		}
	}
	if first, last, err := l.Commit(2); err != nil || first != 1 || last != 3 {
		t.Fatalf("commit through 2 = %d..%d, %v; want the whole group, 1..3", first, last, err)
	}
	if first, last, err := l.Commit(3); err != nil || first != 0 || last != 0 {
		t.Fatalf("commit of a written seq = %d..%d, %v; want nothing written", first, last, err)
	}
	if _, err := l.Append(make([]byte, maxRecord+1)); !errors.Is(err, ErrTooBig) {
		t.Fatalf("oversized append err = %v", err)
	}
	if _, err := l.Stage(nil); !errors.Is(err, ErrTooBig) {
		t.Fatalf("empty stage err = %v", err)
	}
	if seq, err := l.Append([]byte("d")); err != nil || seq != 4 {
		t.Fatalf("append after refusals = %d, %v; want 4", seq, err)
	}
}

// TestGroupCommitConcurrentAppenders: appenders staging and committing
// concurrently under FsyncAlways get contiguous seqs, every record
// replays under its seq, and the committers share fsyncs — a commit
// that finds its record written by the one ahead of it syncs nothing.
func TestGroupCommitConcurrentAppenders(t *testing.T) {
	const appenders, each = 8, 40
	dir := t.TempDir()
	var syncs atomic.Int64
	l, err := Open(dir, Options{Fsync: FsyncAlways, OnSync: func(time.Duration) { syncs.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	want := map[uint64]string{}
	run := func(phase string, commitAfterAll bool) {
		var staged, done sync.WaitGroup
		staged.Add(appenders)
		errs := make(chan error, appenders)
		for g := 0; g < appenders; g++ {
			done.Add(1)
			go func() {
				defer done.Done()
				seqs := make([]uint64, 0, each)
				for i := 0; i < each; i++ {
					p := fmt.Sprintf("%s/%d/%d", phase, g, i)
					seq, err := l.Stage([]byte(p))
					if err != nil {
						errs <- err
						staged.Done()
						return
					}
					mu.Lock()
					want[seq] = p
					mu.Unlock()
					if !commitAfterAll {
						if _, _, err := l.Commit(seq); err != nil {
							errs <- err
						}
					}
					seqs = append(seqs, seq)
				}
				staged.Done()
				if commitAfterAll {
					staged.Wait()
					for _, seq := range seqs {
						if _, _, err := l.Commit(seq); err != nil {
							errs <- err
						}
					}
				}
			}()
		}
		done.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	run("free", false)  // stage and commit as each appender goes
	run("queued", true) // everyone staged before anyone commits
	commits := 2 * appenders * each
	t.Logf("%d fsyncs for %d commits", syncs.Load(), commits)
	if n := syncs.Load(); n == 0 || n >= int64(commits) {
		t.Fatalf("%d fsyncs for %d commits; want at least one and fewer than one a commit", n, commits)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seqs, recs := collect(t, l2, 0)
	if len(seqs) != commits {
		t.Fatalf("replayed %d records, want %d", len(seqs), commits)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) || string(recs[i]) != want[seq] {
			t.Fatalf("record %d replays as seq %d %q; want seq %d %q", i, seq, recs[i], i+1, want[uint64(i+1)])
		}
	}
}

func TestFsyncModes(t *testing.T) {
	for _, mode := range []Mode{FsyncNone, FsyncInterval, FsyncAlways} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := l.Append([]byte("payload")); err != nil {
				t.Fatal(err)
			}
			if mode == FsyncInterval {
				time.Sleep(syncEvery + 50*time.Millisecond) // let the syncer run once
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			// Reopen WITHOUT closing: the kill-shaped path. The append was
			// write(2)-flushed, so it must be visible in every mode.
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			seqs, _ := collect(t, l2, 0)
			if len(seqs) != 1 {
				t.Fatalf("mode %v lost the record: %v", mode, seqs)
			}
			l2.Close()
			l.Close()
		})
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"": FsyncNone, "none": FsyncNone, "interval": FsyncInterval, "always": FsyncAlways} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Fatalf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if seq, sr, err := LatestSnapshot(dir); err != nil || sr != nil || seq != 0 {
		t.Fatalf("empty dir snapshot = %d, %v, %v", seq, sr, err)
	}
	write := func(seq uint64, recs ...string) {
		err := WriteSnapshot(dir, seq, func(sw *SnapshotWriter) error {
			for _, r := range recs {
				if err := sw.Record([]byte(r)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	write(10, "alpha", "beta")
	write(25, "gamma")

	seq, sr, err := LatestSnapshot(dir)
	if err != nil || sr == nil || seq != 25 {
		t.Fatalf("latest = %d, %v", seq, err)
	}
	p, err := sr.Record()
	if err != nil || string(p) != "gamma" {
		t.Fatalf("record = %q, %v", p, err)
	}
	if _, err := sr.Record(); !errors.Is(err, io.EOF) {
		t.Fatalf("end err = %v", err)
	}
	sr.Close()

	RemoveSnapshotsBefore(dir, 25)
	seqs, err := ListSeq(dir, snapSuffix)
	if err != nil || len(seqs) != 1 || seqs[0] != 25 {
		t.Fatalf("after prune: %v, %v", seqs, err)
	}
}

func TestSnapshotCrashLeavesPreviousAuthoritative(t *testing.T) {
	dir := t.TempDir()
	if err := WriteSnapshot(dir, 5, func(sw *SnapshotWriter) error { return sw.Record([]byte("good")) }); err != nil {
		t.Fatal(err)
	}
	// A failing producer must not leave a half-written snapshot behind.
	wantErr := errors.New("producer died")
	if err := WriteSnapshot(dir, 9, func(sw *SnapshotWriter) error {
		_ = sw.Record([]byte("partial"))
		return wantErr
	}); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	seq, sr, err := LatestSnapshot(dir)
	if err != nil || seq != 5 {
		t.Fatalf("latest after failed write = %d, %v", seq, err)
	}
	sr.Close()
}

func TestSkipTo(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("a")); err != nil { // seq 1
		t.Fatal(err)
	}
	if err := l.SkipTo(100); err != nil {
		t.Fatal(err)
	}
	if err := l.SkipTo(50); err != nil { // behind: no-op
		t.Fatal(err)
	}
	if seq, err := l.Append([]byte("b")); err != nil || seq != 100 {
		t.Fatalf("post-skip seq = %d, %v", seq, err)
	}
	l.Close()

	// The jump survives a reopen and replay sees both epochs with their
	// original sequences.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 100 {
		t.Fatalf("LastSeq after reopen = %d", got)
	}
	seqs, _ := collect(t, l2, 0)
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 100 {
		t.Fatalf("replay = %v", seqs)
	}
}
