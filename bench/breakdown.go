package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/dataformat"
	"repro/internal/ontology"
)

// scrapeBreakdown turns the traced phase's scrape deltas and sampled
// traces into per-layer metrics. Every workload gets every metric; a
// layer a workload leaves idle reads 0, which is itself the evidence
// that the workload bypasses it.
func scrapeBreakdown(e *env, services map[string]scrapeDelta, tr *tracer, op string, seconds float64) {
	L := e.layer
	// The storage internals live on the nodes and pool over them; the
	// coordinator, when there is one, is the service clients talk to.
	var perNode []scrapeDelta
	for _, base := range e.sut.Nodes {
		perNode = append(perNode, services[base])
	}
	nodes, master := pooled(perNode), services[e.sut.Master]
	var front scrapeDelta
	if e.sut.spec.MeasureNodes > 1 {
		front = services[e.sut.Measure]
	}
	all := pooled(append(perNode, front))

	L["client.net_self_ms_p50"], e.hopSelfMS = tr.netSelfMS(op)
	L["api.route_ms_mean.ingest"] = nodes.routeMeanMs("POST /v2/ingest")
	L["api.route_ms_mean.query"] = nodes.routeMeanMs("POST /v2/query")
	L["api.route_ms_mean.samples"] = nodes.routeMeanMs("GET /v2/series/{device}/{quantity}/samples")
	L["api.route_ms_mean.aggregate"] = nodes.routeMeanMs("GET /v2/series/{device}/{quantity}/aggregate")
	L["api.route_ms_mean.latest"] = nodes.routeMeanMs("GET /v2/series/{device}/{quantity}/latest")

	L["measuredb.dedup_claim_us_p50"] = tr.stageP50US("dedup-claim")
	L["measuredb.dedup_window_entries"] = nodes.gaugeMax("repro_ingest_dedup_window_entries")
	L["measuredb.fanout_series_mean"] = histMean(nodes.hist("repro_query_fanout_series"))
	L["measuredb.forward_retries"] = front.counter("repro_cluster_forward_retries_total")
	L["measuredb.forward_errors"] = front.counter("repro_cluster_forward_errors_total")

	L["tsdb.commit_group_rows_mean"] = histMean(nodes.hist("repro_tsdb_commit_group_rows"))
	L["tsdb.queue_depth_max"] = nodes.gaugeMax("repro_tsdb_queue_depth")
	L["tsdb.store_apply_us_p50"] = tr.stageP50US("store-apply")
	L["tsdb.reads.head"] = nodes.counterWhere("repro_tsdb_reads_total", "path", "head")
	L["tsdb.reads.blocks"] = nodes.counterWhere("repro_tsdb_reads_total", "path", "blocks")
	comp := nodes.hist("repro_tsdb_block_compaction_seconds")
	L["tsdb.compaction_cycles"] = float64(comp.Count)
	L["tsdb.compaction_s_sum"] = comp.Sum
	L["tsdb.snapshot_s_sum"] = nodes.hist("repro_tsdb_snapshot_duration_seconds").Sum

	L["wal.append_us_p50"] = tr.stageP50US("wal-append")
	fsync := nodes.hist("repro_tsdb_wal_fsync_seconds")
	L["wal.fsyncs"] = float64(fsync.Count)
	L["wal.fsync_ms_p50"] = fsync.Quantile(0.5) * 1e3
	L["wal.segments"] = nodes.after.sum("repro_tsdb_wal_segments")

	L["stream.hub_publish_us_p50"] = tr.stageP50US("hub-publish")
	if pub := nodes.counter("repro_stream_published_total"); pub > 0 {
		L["stream.delivered_per_published"] = nodes.counter("repro_stream_delivered_total") / pub
	}
	L["stream.evicted"] = nodes.counter("repro_stream_evicted_total")

	// The cache exists on the nodes and on the coordinator; both tiers
	// count.
	hits, misses := all.counter("repro_qcache_hits_total"), all.counter("repro_qcache_misses_total")
	if hits+misses > 0 {
		L["qcache.hit_ratio"] = hits / (hits + misses)
	}
	L["qcache.evictions"] = all.counter("repro_qcache_evictions_total")
	L["qcache.bytes"] = all.after.sum("repro_qcache_bytes")
	if seconds > 0 {
		L["qcache.generation_bumps_per_s"] = nodes.counter("repro_tsdb_shard_generation") / seconds
	}

	L["cluster.fanout_ms_p50"] = front.hist("repro_cluster_fanout_seconds").Quantile(0.5) * 1e3
	refreshes := "GET /v1/cluster/map"
	L["cluster.map_refreshes"] = float64(master.after.routes[refreshes].Count) - float64(master.before.routes[refreshes].Count)
}

// areaBreakdown times the steps of the paper's area query one at a
// time against the SUT: the master's resolution, one model fetch from
// each kind of database proxy, and one device proxy's info + latest.
func areaBreakdown(ctx context.Context, e *env) error {
	const rounds = 15
	cat := e.cl.Catalog()
	qr, err := cat.Query(ctx, district, client.Area{})
	if err != nil {
		return err
	}
	var bim, sim, building string
	for _, en := range qr.Entities {
		switch {
		case en.Kind == ontology.KindBuilding && bim == "":
			bim, building = en.ProxyURI, en.URI
		case en.Kind == ontology.KindNetwork && sim == "":
			sim = en.ProxyURI
		}
	}
	devs, err := cat.Devices(ctx, building)
	if err != nil || len(devs) == 0 || bim == "" || sim == "" || qr.GISURI == "" {
		return fmt.Errorf("area breakdown: incomplete resolution (err=%v)", err)
	}
	steps := map[string]func() error{
		"master.resolve_ms_p50":    func() error { _, err := cat.Query(ctx, district, client.Area{}); return err },
		"dbproxy.fetch_ms_p50.bim": func() error { _, err := e.cl.FetchModel(ctx, bim); return err },
		"dbproxy.fetch_ms_p50.sim": func() error { _, err := e.cl.FetchModel(ctx, sim); return err },
		"dbproxy.fetch_ms_p50.gis": func() error { _, err := e.cl.FetchGISFeatures(ctx, qr.GISURI, client.Area{}); return err },
		"deviceproxy.info_latest_ms_p50": func() error {
			if _, err := e.cl.Devices().Info(ctx, devs[0].ProxyURI); err != nil {
				return err
			}
			_, err := e.cl.Devices().Latest(ctx, devs[0].ProxyURI, dataformat.Temperature)
			return err
		},
	}
	for name, step := range steps {
		var ms []float64
		for i := 0; i < rounds; i++ {
			began := time.Now()
			if !e.ops.check(step() == nil, "area breakdown step %s failed", name) {
				break
			}
			ms = append(ms, float64(time.Since(began))/float64(time.Millisecond))
		}
		e.layer[name] = median(ms)
	}
	return nil
}
