package measuredb

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/tsdb"
	"repro/internal/wal"
)

// The upgrade reader of the per-shard layout's idempotency log: the one
// place that still reads dedup/, kept apart so it can be deleted whole
// once no node of that layout is left.

// upgradeDedup moves the outcomes a node of the older layout journaled
// in a log of their own under dir — with, older still, a snapshot
// beside it — into the node log as one note-only record (an old outcome
// has the shape of a final note), then removes dir. It returns that
// record's note.
func upgradeDedup(dir string, sh *tsdb.Sharded) ([]tsdb.Note, error) {
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil, nil
	}
	note := []byte{'['}
	add := func(p []byte) {
		if !json.Valid(p) {
			return // unreadable outcome: drop it, keep the rest
		}
		if len(note) > 1 {
			note = append(note, ',')
		}
		note = append(note, p...)
	}
	_, sr, err := wal.LatestSnapshot(dir)
	for sr != nil {
		p, rerr := sr.Record()
		if errors.Is(rerr, io.EOF) {
			break
		}
		if rerr != nil {
			return nil, errors.Join(rerr, sr.Close())
		}
		add(p)
	}
	if sr != nil {
		_ = sr.Close() //lint:ignore closecheck read-only snapshot already read to EOF; close error cannot lose data
	}
	if err == nil {
		err = wal.ReadDir(dir, 0, func(_ uint64, p []byte) error { add(p); return nil })
	}
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", dir, err)
	}
	note = append(note, ']')
	var notes []tsdb.Note
	if len(note) > 2 {
		_, seq := sh.AppendBatchNote(nil, nil, note)
		if seq == 0 {
			return nil, errors.New("the node log refused the remembered outcomes")
		}
		notes = append(notes, tsdb.Note{Seq: seq, Data: note})
	}
	return notes, os.RemoveAll(dir)
}
