package main

// metricDef is one metric of BENCHMARK.json. The lists below are the
// benchmark's single definition of what it emits; a test holds
// BENCHMARK.json to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// defaultSeconds is the timed window when --seconds is not given; it
// is BENCHMARK.json's run_seconds.
const defaultSeconds = 10

// endToEnd is reported by every workload with --trace 0. What "work"
// and "op" mean is the workload's (README.md, "End-to-end metrics"):
//
//	ingest_bulk      work = row acknowledged        op = 1000-row Append → ack
//	live_visibility  work = row delivered on SSE    op = batch due → row received
//	dashboard_read   work = read completed          op = agg_glob
//	mixed_rw         work = read completed          op = agg_glob beside the writer
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "work_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sut_cpu_us_per_work", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "sut_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

func lower(name, unit string) metricDef  { return metricDef{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }

// perLayer is reported by every workload with --trace 1. The first
// block are the workloads' own end-to-end figures under their issue
// names: they exist on some workloads only (0 elsewhere), so they
// cannot carry a bound, but they are what a change to one layer is
// expected to move. The rest is one block per module.
var perLayer = []metricDef{
	higher("rows_per_s", "1/s"),
	lower("ack_ms_p50", "ms"),
	lower("ack_ms_p95", "ms"),
	lower("visible_ms_p50", "ms"),
	lower("visible_ms_p95", "ms"),
	higher("read_ops_per_s", "1/s"),
	lower("agg_glob_ms_p50", "ms"),
	lower("history_ms_p50", "ms"),
	lower("area_query_ms_p50", "ms"),
	lower("page_recent_ms_p50", "ms"),
	lower("stream_day_ms_p50", "ms"),
	lower("latest_ms_p50", "ms"),
	lower("op_ms_p95", "ms"),
	lower("sut_cpu_us_per_row", "us"),
	lower("sut_cpu_ms_per_read", "ms"),
	lower("disk_bytes_per_row", "B"),

	lower("client.append_us_per_row", "us"),
	lower("client.stream_decode_ns_per_row", "ns"),
	lower("client.net_self_ms_p50", "ms"),

	lower("api.chain_us_per_request", "us"),
	lower("api.route_ms_mean.ingest", "ms"),
	lower("api.route_ms_mean.query", "ms"),
	lower("api.route_ms_mean.samples", "ms"),
	lower("api.route_ms_mean.aggregate", "ms"),
	lower("api.route_ms_mean.latest", "ms"),

	lower("measuredb.ingest_handler_ns_per_row", "ns"),
	lower("measuredb.ingest_decode_ns_per_row", "ns"),
	lower("measuredb.ingest_self_ns_per_row", "ns"),
	lower("measuredb.dedup_claim_us_p50", "us"),
	lower("measuredb.dedup_window_entries", "count"),
	lower("measuredb.encode_ns_per_row.json", "ns"),
	lower("measuredb.encode_ns_per_row.ndjson", "ns"),
	lower("measuredb.encode_ns_per_row.csv", "ns"),
	lower("measuredb.batch_query_us_per_series", "us"),
	lower("measuredb.fanout_series_mean", "count"),
	lower("measuredb.coordinator_ingest_ratio", "ratio"),
	lower("measuredb.coordinator_query_ratio", "ratio"),
	lower("measuredb.coordinator_ingest_us_per_row", "us"),
	lower("measuredb.forward_retries", "count"),
	lower("measuredb.forward_errors", "count"),

	lower("tsdb.append_ns_per_row.mem", "ns"),
	lower("tsdb.append_ns_per_row.wal", "ns"),
	higher("tsdb.commit_group_rows_mean", "count"),
	lower("tsdb.queue_depth_max", "count"),
	lower("tsdb.store_apply_us_p50", "us"),
	lower("tsdb.head_aggregate_ns_per_sample", "ns"),
	lower("tsdb.block_aggregate_us", "us"),
	lower("tsdb.iter_ns_per_sample.head", "ns"),
	lower("tsdb.iter_ns_per_sample.block", "ns"),
	lower("tsdb.reads.head", "count"),
	lower("tsdb.reads.blocks", "count"),
	lower("tsdb.compaction_cycles", "count"),
	lower("tsdb.compaction_s_sum", "s"),
	lower("tsdb.snapshot_s_sum", "s"),
	lower("tsdb.recovery_ms", "ms"),

	lower("wal.append_us_p50", "us"),
	lower("wal.append_batch_ns_per_row", "ns"),
	lower("wal.bytes_per_row", "B"),
	lower("wal.fsyncs", "count"),
	lower("wal.fsync_ms_p50", "ms"),
	lower("wal.segments", "count"),

	lower("block.write_ns_per_sample", "ns"),
	lower("block.decode_ns_per_sample", "ns"),
	lower("block.rollup_ns_per_bucket", "ns"),
	lower("block.bytes_per_sample", "B"),
	lower("block.files", "count"),

	lower("stream.publish_ns_per_event.subs0", "ns"),
	lower("stream.publish_ns_per_event.subs1", "ns"),
	lower("stream.hub_publish_us_p50", "us"),
	lower("stream.sse_delivery_ms_p50", "ms"),
	higher("stream.delivered_per_published", "ratio"),
	lower("stream.evicted", "count"),

	higher("qcache.hit_ratio", "ratio"),
	lower("qcache.evictions", "count"),
	lower("qcache.bytes", "B"),
	lower("qcache.get_ns", "ns"),
	lower("qcache.generation_bumps_per_s", "1/s"),

	lower("cluster.fanout_ms_p50", "ms"),
	lower("cluster.map_refreshes", "count"),

	lower("master.resolve_ms_p50", "ms"),
	lower("dbproxy.fetch_ms_p50.gis", "ms"),
	lower("dbproxy.fetch_ms_p50.bim", "ms"),
	lower("dbproxy.fetch_ms_p50.sim", "ms"),
	lower("deviceproxy.info_latest_ms_p50", "ms"),
	lower("integration.merge_us", "us"),
	lower("dataformat.codec_us.json", "us"),
	lower("dataformat.codec_us.xml", "us"),
	lower("deviceproxy.poll_us.ieee802154", "us"),
	lower("deviceproxy.poll_us.zigbee", "us"),
	lower("deviceproxy.poll_us.enocean", "us"),
	lower("deviceproxy.poll_us.opcua", "us"),

	higher("gen.host_speed", "ratio"),
	lower("gen.lag_ms_p95", "ms"),
	lower("gen.cpu_share", "ratio"),
	lower("trace.overhead_share", "ratio"),
	lower("budget.unattributed_share", "ratio"),
}
