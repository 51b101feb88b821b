package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"text/tabwriter"

	"repro/internal/client"
)

// Cluster commands: "cluster status" renders the master's shard map and
// every node's shard-level state from its /v1/storage report
// (ownership, on-disk size, WAL depth);
// "cluster move <shard> <node>" performs a live shard handoff —
// freeze, archive copy, restore on the target, map flip, release — while
// ingest keeps running against the coordinator.

func cmdCluster(ctx context.Context, c *client.Client, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: districtctl cluster status|move [options]")
	}
	switch args[0] {
	case "status":
		return cmdClusterStatus(ctx, c, args[1:])
	case "move":
		return cmdClusterMove(ctx, c, args[1:])
	default:
		return fmt.Errorf("unknown cluster subcommand %q (want status or move)", args[0])
	}
}

func cmdClusterStatus(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("cluster status", flag.ExitOnError)
	fs.Parse(args)
	m, err := c.Cluster().Map(ctx)
	if err != nil {
		return fmt.Errorf("shard map: %w", err)
	}
	fmt.Printf("shard map epoch %d, %d shards over %d nodes\n", m.Epoch, m.Shards, len(m.Nodes()))
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tSHARD\tOWNED\tMOVING\tSERIES\tSAMPLES\tDISK\tWAL ROWS\tWAL SEGS")
	for _, node := range m.Nodes() {
		st, err := c.Ops(node).StorageStatus(ctx)
		if err != nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t-\t-\t(%v)\n", node, err)
			continue
		}
		for _, sh := range st.Shards {
			if !sh.Owned && !sh.Moving && sh.Series == 0 {
				continue // empty unowned shard: noise
			}
			fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%d\t%d\t%s\t%d\t%d\n",
				node, sh.Shard, sh.Owned, sh.Moving, sh.Series, sh.Samples,
				sizeOf(sh.DiskBytes), sh.WALPending, sh.WALSegments)
		}
	}
	return tw.Flush()
}

// sizeOf renders a byte count compactly.
func sizeOf(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return strconv.FormatInt(n, 10) + "B"
	}
}

func cmdClusterMove(ctx context.Context, c *client.Client, args []string) error {
	fs := flag.NewFlagSet("cluster move", flag.ExitOnError)
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) != 2 {
		return fmt.Errorf("usage: districtctl cluster move <shard> <node-url>")
	}
	shard, err := strconv.Atoi(rest[0])
	if err != nil {
		return fmt.Errorf("bad shard %q", rest[0])
	}
	rep, err := c.Cluster().Move(ctx, shard, rest[1])
	if err != nil {
		return err
	}
	fmt.Printf("moved shard %d: %s -> %s (%d rows restored, map epoch %d)\n",
		rep.Shard, rep.From, rep.To, rep.Rows, rep.Epoch)
	return nil
}
