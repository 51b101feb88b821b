// Command districtsim boots an entire synthetic district in one process
// — master node, measurements database, GIS/BIM/SIM
// proxies, and device proxies over simulated WSN hardware — then prints
// the endpoints so districtctl (or curl) can explore it.
//
// Usage:
//
//	districtsim -buildings 4 -devices 4 -networks 1 -poll 1s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/measuredb"
)

func main() {
	buildings := flag.Int("buildings", 3, "number of buildings")
	networks := flag.Int("networks", 1, "number of distribution networks")
	devices := flag.Int("devices", 4, "devices per building")
	poll := flag.Duration("poll", time.Second, "device sampling period")
	seed := flag.Int64("seed", 1, "synthetic generation seed")
	legacy := flag.Bool("legacy-aliases", false, "serve unversioned legacy route aliases on every service (escape hatch)")
	readRate := flag.Float64("read-rate", 0, "measurements DB read-tier rate limit per client IP (req/s, 0 = off)")
	batchRate := flag.Float64("batch-rate", 0, "measurements DB /v2/query batch-tier rate limit per client IP (req/s, 0 = off)")
	ingestRate := flag.Float64("ingest-rate", 0, "measurements DB /v2 ingest write-tier rate limit per client IP (req/s, 0 = off)")
	shards := flag.Int("shards", 0, "measurements DB storage shards (0 = engine default)")
	measureNodes := flag.Int("measure-nodes", 0, "deploy the measurements DB as this many cluster nodes behind one coordinator (0/1 = single service)")
	dataDir := flag.String("data-dir", "", "durable storage directory: WAL+snapshots under the measurements DB, persisted stream replay ring and ingest dedup window (empty = in-memory)")
	fsync := flag.String("fsync", "none", "WAL fsync policy with -data-dir: none | interval | always")
	snapshotEvery := flag.Int("snapshot-every", 0, "snapshot+compact each storage shard after N applied rows (0 = engine default)")
	headWindow := flag.Duration("head-window", 0, "with -data-dir: keep this much recent data in the RAM head, compact older samples into columnar block files (0 = engine default 30m, negative = disable blocks)")
	retentionRaw := flag.Duration("retention-raw", 0, "with -data-dir: demote raw samples older than this to 1m/1h rollups (0 = keep forever)")
	retentionRollup := flag.Duration("retention-rollup", 0, "with -data-dir: drop rollups of raw-expired data older than this (0 = keep forever)")
	qcacheBytes := flag.Int64("qcache-bytes", 0, "bound the measurements DB's generation-keyed query result cache in bytes (0 = disabled)")
	pprof := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on every service")
	flag.Parse()

	d, err := core.Bootstrap(core.Spec{
		Buildings:          *buildings,
		Networks:           *networks,
		DevicesPerBuilding: *devices,
		PollEvery:          *poll,
		Seed:               *seed,
		LegacyAliases:      *legacy,
		MeasureReadRate:    *readRate,
		MeasureBatchRate:   *batchRate,
		MeasureWriteRate:   *ingestRate,
		MeasureShards:      *shards,
		MeasureNodes:       *measureNodes,
		DataDir:            *dataDir,
		FsyncMode:          *fsync,
		SnapshotEvery:      *snapshotEvery,
		HeadWindow:         *headWindow,
		RetentionRaw:       *retentionRaw,
		RetentionRollup:    *retentionRollup,
		QCacheBytes:        *qcacheBytes,
		EnablePprof:        *pprof,
	})
	if err != nil {
		log.Fatalf("bootstrap: %v", err)
	}
	fmt.Printf("district %q is up:\n", d.Spec.District)
	fmt.Printf("  master node     %s\n", d.MasterURL)
	if len(d.MeasureNodeURLs) > 0 {
		fmt.Printf("  measurements DB %s (coordinator over %d nodes)\n", d.MeasureURL, len(d.MeasureNodeURLs))
		for i, u := range d.MeasureNodeURLs {
			fmt.Printf("    node %d        %s\n", i, u)
		}
	} else {
		fmt.Printf("  measurements DB %s\n", d.MeasureURL)
	}
	if *dataDir != "" {
		fmt.Printf("  durable storage %s (fsync=%s)\n", *dataDir, *fsync)
	}
	fmt.Printf("  %d buildings, %d networks, %d device proxies\n",
		len(d.BIMs), len(d.SIMs), len(d.DeviceProxies))
	fmt.Printf("\ntry: districtctl -master %s model -district %s\n", d.MasterURL, d.Spec.District)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(10 * time.Second)
	defer ticker.Stop()
	// The periodic report goes through the /v2 data plane over HTTP —
	// one batch query aggregating every stored series — so the sim
	// exercises the same path a remote dashboard would.
	mc := d.Client().Measurements(d.MeasureURL)
	ctx := context.Background()
	for {
		select {
		case <-ticker.C:
			var st measuredb.Stats
			if d.Measure != nil {
				st = d.Measure.Stats()
			} else {
				// Clustered deployment: sum the nodes the same way the
				// coordinator's /v1/stats does.
				for _, n := range d.MeasureNodes {
					ns := n.Stats()
					st.Ingested += ns.Ingested
					st.Store.Series += ns.Store.Series
				}
			}
			rsp, err := mc.Query(ctx, measuredb.BatchQuery{
				Selectors: []measuredb.SeriesSelector{{Device: "*"}},
				Aggregate: true,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "measurements: %d ingested, %d series (v2 batch query failed: %v)\n",
					st.Ingested, st.Store.Series, err)
				continue
			}
			fmt.Fprintf(os.Stderr, "measurements: %d ingested; v2 batch: %d series, %d samples aggregated\n",
				st.Ingested, rsp.Series, rsp.Samples)
		case <-sig:
			fmt.Fprintln(os.Stderr, "shutting down")
			d.Close()
			return
		}
	}
}
