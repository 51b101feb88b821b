package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// VerifyResult summarizes a read-only integrity scan of one log
// directory.
type VerifyResult struct {
	// Segments and Records count the segment files and the whole,
	// CRC-valid records they hold.
	Segments int `json:"segments"`
	Records  int `json:"records"`
	// TornTailBytes is how many bytes past the last whole record the
	// active (last) segment carries — the normal artefact of a kill
	// mid-append, truncated away by the next Open.
	TornTailBytes int64 `json:"torn_tail_bytes,omitempty"`
	// Snapshots and SnapshotRecords count the snapshot files and their
	// records, all CRC-checked.
	Snapshots       int `json:"snapshots"`
	SnapshotRecords int `json:"snapshot_records"`
}

// VerifyDir CRC-checks every record of every segment and snapshot in
// dir without opening a live log: nothing is created, truncated, or
// repaired. A torn tail on the last segment is reported, not an error
// (Open recovers it); corruption anywhere else is.
func VerifyDir(dir string) (VerifyResult, error) {
	var res VerifyResult
	bases, err := ListSeq(dir, segSuffix)
	if err != nil {
		return res, err
	}
	for i, base := range bases {
		path := filepath.Join(dir, SeqName(base, segSuffix))
		count, valid, err := scanSegment(path, maxRecord)
		if err != nil {
			return res, err
		}
		res.Segments++
		res.Records += count
		if info, err := os.Stat(path); err == nil && info.Size() > valid {
			if i < len(bases)-1 {
				return res, fmt.Errorf("wal: segment %016x: %d bytes of corruption mid-log: %w",
					base, info.Size()-valid, ErrCorrupt)
			}
			res.TornTailBytes = info.Size() - valid
		}
	}
	seqs, err := ListSeq(dir, snapSuffix)
	if err != nil {
		return res, err
	}
	for _, seq := range seqs {
		sr, err := openSnapshot(dir, seq)
		if err != nil {
			return res, err
		}
		for _, err = sr.Record(); err == nil; _, err = sr.Record() {
			res.SnapshotRecords++
		}
		_ = sr.Close() //lint:ignore closecheck read-only verification scan; close error cannot lose data
		if !errors.Is(err, io.EOF) {
			return res, err
		}
		res.Snapshots++
	}
	return res, nil
}
