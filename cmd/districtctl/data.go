package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/client"
	"repro/internal/tsdb"
)

// Data commands, the ops surface of the durable storage layer:
// "data status" renders a running measurements DB's per-shard storage
// report (head vs block sizes, WAL watermarks, the heap the blocks'
// restart tables hold beside their disk bytes); "data compact" forces a
// block compaction cycle; "data verify" CRC-checks a data directory on
// disk — WAL segments, snapshots, and every frame of every block file —
// without a running service.

func cmdData(ctx context.Context, c *client.Client, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: districtctl data status|compact|verify [options]")
	}
	switch args[0] {
	case "status":
		return cmdDataStatus(ctx, c, args[1:])
	case "compact":
		return cmdDataCompact(ctx, c, args[1:])
	case "verify":
		return cmdDataVerify(args[1:])
	default:
		return fmt.Errorf("unknown data subcommand %q (want status, compact or verify)", args[0])
	}
}

func cmdDataStatus(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("data status", flag.ExitOnError)
	urlFlag := fs.String("url", "", "measurements DB base URL (default: resolve via the master)")
	district := fs.String("district", "turin", "district (for -url resolution)")
	fs.Parse(args)
	base, err := measureBase(ctx, c, *urlFlag, *district)
	if err != nil {
		return err
	}
	st, err := c.Ops(base).StorageStatus(ctx)
	if err != nil {
		return err
	}
	if !st.Durable {
		fmt.Println("engine is in-memory (no -data-dir); nothing on disk")
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "SHARD\tSERIES\tSAMPLES\tHEAD\tBLOCKS\tBLOCK BYTES\tBLOCK SAMPLES\tWAL ROWS\tWAL SEGS\tDISK\tRESTARTS\tROLLUPS\tDIR")
	var blocks int
	var headBytes, blockBytes, diskBytes, restartBytes, rollupBytes int64
	for _, sh := range st.Shards {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%d\t%s\t%d\t%d\t%d\t%s\t%s\t%s\t%s\n",
			sh.Shard, sh.Series, sh.Samples, sizeOf(sh.HeadBytes), sh.Blocks, sizeOf(sh.BlockBytes),
			sh.BlockSamples, sh.WALPending, sh.WALSegments, sizeOf(sh.DiskBytes), sizeOf(sh.RestartBytes), sizeOf(sh.RollupBytes), sh.Dir)
		blocks += sh.Blocks
		headBytes += sh.HeadBytes
		blockBytes += sh.BlockBytes
		diskBytes += sh.DiskBytes
		restartBytes += sh.RestartBytes
		rollupBytes += sh.RollupBytes
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d shards, %d blocks, %s in blocks, %s on disk, %s of head samples, %s of restart tables and %s of 1h rollups in memory\n",
		len(st.Shards), blocks, sizeOf(blockBytes), sizeOf(diskBytes), sizeOf(headBytes), sizeOf(restartBytes), sizeOf(rollupBytes))
	return nil
}

func cmdDataCompact(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("data compact", flag.ExitOnError)
	urlFlag := fs.String("url", "", "measurements DB base URL (default: resolve via the master)")
	district := fs.String("district", "turin", "district (for -url resolution)")
	shard := fs.Int("shard", -1, "shard to compact (-1: all)")
	fs.Parse(args)
	base, err := measureBase(ctx, c, *urlFlag, *district)
	if err != nil {
		return err
	}
	if err := c.Ops(base).Compact(ctx, *shard); err != nil {
		return err
	}
	if *shard >= 0 {
		fmt.Printf("compacted shard %d\n", *shard)
	} else {
		fmt.Println("compacted all shards")
	}
	return nil
}

func cmdDataVerify(args []string) error {
	fs := flag.NewFlagSet("data verify", flag.ExitOnError)
	dir := fs.String("dir", "", "tsdb data directory (the engine dir holding shard-NNNN/, or one shard dir)")
	fs.Parse(args)
	if *dir == "" && fs.NArg() > 0 {
		*dir = fs.Arg(0)
	}
	if *dir == "" {
		return fmt.Errorf("usage: districtctl data verify -dir <tsdb-dir>")
	}
	results, err := tsdb.VerifyDataDir(*dir)
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "DIR\tSEGS\tRECORDS\tSNAPS\tSNAP RECS\tBLOCKS\tBLOCK BYTES\tTORN TAIL\tORPHANS")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%s\n",
			r.Dir, r.WAL.Segments, r.WAL.Records, r.WAL.Snapshots, r.WAL.SnapshotRecords,
			r.Blocks, sizeOf(r.BlockBytes), r.WAL.TornTailBytes, orDash(strings.Join(r.OrphanBlocks, ",")))
	}
	if werr := tw.Flush(); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	fmt.Printf("%d shard dir(s) verified clean\n", len(results))
	return nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
