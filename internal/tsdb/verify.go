package tsdb

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/block"
	"repro/internal/wal"
)

// ShardVerifyResult summarizes a read-only integrity check of one shard
// directory: WAL segments, snapshots, and the manifest-listed block
// files.
type ShardVerifyResult struct {
	Dir string           `json:"dir"`
	WAL wal.VerifyResult `json:"wal"`
	// Blocks, BlockBytes, and BlockSamples cover the manifest-listed
	// block files, every frame of which decoded clean.
	Blocks       int   `json:"blocks"`
	BlockBytes   int64 `json:"block_bytes,omitempty"`
	BlockSamples int64 `json:"block_samples,omitempty"`
	// OrphanBlocks are .blk files in the directory the manifest does not
	// list — crash artefacts the next recovery deletes. Reported, not an
	// error: their rows are still covered by the untruncated WAL.
	OrphanBlocks []string `json:"orphan_blocks,omitempty"`
}

// VerifyShardDir CRC-checks one shard directory in place without
// opening a live engine or modifying anything: every WAL segment and
// snapshot record, and every frame (raw chunks, rollups, index) of
// every manifest-listed block file. Verifying a directory a live
// engine is writing to may report transient torn tails; archived or
// cold copies verify exactly.
func VerifyShardDir(dir string) (ShardVerifyResult, error) {
	res := ShardVerifyResult{Dir: dir}
	var err error
	res.WAL, err = wal.VerifyDir(dir)
	if err != nil {
		return res, err
	}
	manifest, err := BlockFiles(dir)
	if err != nil {
		return res, fmt.Errorf("tsdb: block manifest: %w", err)
	}
	listed := make(map[string]bool, len(manifest))
	for _, name := range manifest {
		listed[name] = true
		b, err := block.Open(blockPath(dir, name))
		if err != nil {
			return res, err
		}
		verr := b.Verify()
		res.Blocks++
		res.BlockBytes += b.Size()
		res.BlockSamples += b.NumSamples()
		if cerr := b.Close(); verr == nil {
			verr = cerr
		}
		if verr != nil {
			return res, verr
		}
	}
	ids, err := wal.ListSeq(dir, block.Suffix)
	if err != nil {
		return res, err
	}
	for _, id := range ids {
		if name := wal.SeqName(id, block.Suffix); !listed[name] {
			res.OrphanBlocks = append(res.OrphanBlocks, name)
		}
	}
	return res, nil
}

// VerifyDataDir verifies every shard-NNNN directory under an engine
// data dir (the tsdb directory OpenSharded was pointed at), or dir
// itself when it is a single shard directory.
func VerifyDataDir(dir string) ([]ShardVerifyResult, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: %w", err)
	}
	var out []ShardVerifyResult
	var verr error
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "shard-") {
			continue
		}
		res, err := VerifyShardDir(dir + "/" + e.Name())
		out = append(out, res)
		if err != nil {
			verr = errors.Join(verr, fmt.Errorf("%s: %w", e.Name(), err))
		}
	}
	if out == nil {
		res, err := VerifyShardDir(dir)
		return []ShardVerifyResult{res}, err
	}
	return out, verr
}
