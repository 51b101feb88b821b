// Package measuredb implements the district's global measurements
// database service: the store "where data collected by sensors placed in
// the district" accumulates (paper §II). Device-proxies ship their
// samples to its batched /v2 ingest plane — the store's only writer —
// and the service serves historical queries through the /v2 read plane
// and live events through /v1/stream.
package measuredb

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/obs"
	"repro/internal/proxyhttp"
	"repro/internal/qcache"
	"repro/internal/stream"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

func init() {
	// Store sentinels → HTTP statuses for the unified error envelope.
	// Registered here (the store's first web consumer); the device-proxy
	// shares the mapping through the same table.
	api.RegisterStatus(tsdb.ErrNoSeries, http.StatusNotFound)
	api.RegisterStatus(tsdb.ErrBadInterval, http.StatusBadRequest)
}

// Topic space for measurements: measurements/<district>/<entity>/<device>/<quantity>.
const (
	// TopicRoot prefixes every measurement publication.
	TopicRoot = "measurements"
	// IngestPattern subscribes to every measurement in the district.
	IngestPattern = TopicRoot + "/#"
)

// Service is the measurements database.
type Service struct {
	store tsdb.Engine
	srv   proxyhttp.Server
	apiS  *api.Server
	dedup *dedupWindow

	// streamS is /v1/stream and /v1/publish over the service's hub: an
	// event published on it is streamed to subscribers, never stored.
	streamS *stream.Service

	ingested atomic.Uint64
	rejected atomic.Uint64

	// reg is the service's instrument registry (storage internals,
	// stream counters, ingest histograms); attached to the API metrics so
	// /v1/metrics exposes it.
	reg        *obs.Registry
	dedupClaim *obs.Histogram // Idempotency-Key claim wait
	fanout     *obs.Histogram // series matched per selector resolution

	// cnode holds the node's cluster state — cached shard map, handoff
	// freezes, ownership guards (cluster.go); nil on unclustered nodes.
	cnode *clusterNode

	// qc is the generation-keyed result cache (nil = disabled, which
	// Get/Put treat as always-miss) and qsh the sharded engine whose
	// generation counters key it. Both set only when Options.QCacheBytes
	// is positive and the engine is the default sharded one.
	qc  *qcache.Cache
	qsh *tsdb.Sharded
}

// Options configure the service.
type Options struct {
	// Engine overrides the backing storage engine. Nil builds a
	// device-hash tsdb.Sharded engine with Shards partitions.
	Engine tsdb.Engine
	// Shards sizes the default sharded engine (0 = tsdb.DefaultShards).
	// Ignored when Engine is supplied.
	Shards int
	// Logger receives access-log lines; nil silences them.
	Logger api.Logger
	// Stream tunes the streaming subsystem (hub sizing, publish-ingress
	// rate limiting). A PublishLimiter set here is exposed in the
	// metrics as the "publish" tier.
	Stream stream.Options
	// DisableLegacyAliases drops the unversioned route aliases; only
	// /v1 and /v2 paths are then served.
	DisableLegacyAliases bool
	// ReadLimiter, when set, rate-limits the cheap /v2 read routes per
	// client IP — the "read" tier.
	ReadLimiter *api.RateLimiter
	// BatchLimiter, when set, rate-limits POST /v2/query per client IP
	// — the "batch" tier. Batch reads fan out over many series, so they
	// get a tighter budget than cheap single-series reads.
	BatchLimiter *api.RateLimiter
	// WriteLimiter, when set, rate-limits the /v2 ingest plane
	// (POST /v2/ingest, PUT /v2/series/.../samples) per client IP — the
	// "write" tier.
	WriteLimiter *api.RateLimiter

	// DataDir enables the durable storage layer: the default engine
	// becomes a tsdb.Sharded under <DataDir>/tsdb whose node log
	// journals every row batch — and, in the same record, a keyed
	// request's idempotency note, so an acked keyed batch replays after
	// a crash instead of double-appending — and the stream replay ring
	// is journaled under <DataDir>/stream (Last-Event-ID resume survives
	// a restart). Empty keeps everything in memory. With an Engine
	// supplied, the engine is the caller's and the idempotency window
	// stays in memory; the stream state still persists.
	DataDir string
	// Fsync is the WAL durability policy for both logs (default
	// wal.FsyncNone: acked writes survive a process kill; "interval"
	// bounds machine-crash loss to the WAL's 100ms sync period; "always"
	// fsyncs before acking, group-committed per node-log group).
	Fsync wal.Mode
	// SnapshotEvery snapshots each tsdb shard's head after this many
	// applied rows (0 = engine default, 65536; negative disables
	// record-based snapshots).
	SnapshotEvery int
	// Blocks tunes the columnar block layer of the durable engine: how
	// much recent data stays in the RAM head, and how long raw samples
	// and rollups are retained on disk. The zero value keeps the default
	// 30m head window with infinite retention. Only meaningful with
	// DataDir.
	Blocks tsdb.BlockPolicy

	// QCacheBytes bounds the generation-keyed query/aggregate result
	// cache (internal/qcache). Zero (the default) disables it entirely:
	// every read evaluates from the store, exactly as before the cache
	// existed. Only the default sharded engine can be cached — a
	// caller-supplied Engine has no generation counters, so the option
	// is ignored there.
	QCacheBytes int64

	// Cluster attaches the node to a multi-host cluster: it caches the
	// master-published shard map, rejects writes for shards it does not
	// own (or that are frozen mid-handoff) with retryable envelopes, and
	// serves the /v1/cluster handoff plane. Requires the default sharded
	// engine — a caller-supplied Engine cannot be clustered.
	Cluster *ClusterOptions

	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof
	// on the service's web interface.
	EnablePprof bool
}

// New creates a measurements database service. It can only fail when
// Options.DataDir requests durability — use Open for that; New panics
// on a disk error.
func New(opts Options) *Service {
	s, err := Open(opts)
	if err != nil {
		panic("measuredb: " + err.Error() + " (use Open for durable services)")
	}
	return s
}

// Open creates a measurements database service, recovering the storage
// engine — and from its node log the ingest idempotency window — and
// the stream replay ring from Options.DataDir when set.
func Open(opts Options) (*Service, error) {
	reg := obs.NewRegistry()
	st := opts.Engine
	var err error
	if st == nil {
		if opts.DataDir != "" {
			st, err = tsdb.OpenSharded(tsdb.ShardedOptions{
				Shards:        opts.Shards,
				Dir:           filepath.Join(opts.DataDir, "tsdb"),
				Fsync:         opts.Fsync,
				SnapshotEvery: opts.SnapshotEvery,
				Blocks:        opts.Blocks,
				Metrics:       reg,
			})
			if err != nil {
				return nil, fmt.Errorf("open tsdb engine: %w", err)
			}
		} else {
			st = tsdb.NewSharded(tsdb.ShardedOptions{Shards: opts.Shards, Metrics: reg})
		}
	}
	if opts.Cluster != nil {
		if _, ok := st.(*tsdb.Sharded); !ok {
			st.Close()
			return nil, errors.New("cluster mode requires the sharded engine")
		}
	}
	dedup := newDedupWindow()
	if sh, ok := st.(*tsdb.Sharded); ok && opts.Engine == nil && opts.DataDir != "" {
		notes := sh.Notes()
		legacy, err := upgradeDedup(filepath.Join(opts.DataDir, "dedup"), sh)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("open idempotency window: %w", err)
		}
		dedup.attach(sh, append(notes, legacy...))
	}
	s := &Service{store: st, dedup: dedup, reg: reg}
	if opts.QCacheBytes > 0 {
		if sh, ok := st.(*tsdb.Sharded); ok {
			s.qc = qcache.New(opts.QCacheBytes)
			s.qsh = sh
		}
	}
	if opts.Cluster != nil {
		s.cnode = newClusterNode(opts.Cluster)
	}
	streamOpts := opts.Stream
	if opts.DataDir != "" && streamOpts.Hub.Dir == "" {
		streamOpts.Hub.Dir = filepath.Join(opts.DataDir, "stream")
		streamOpts.Hub.Fsync = opts.Fsync
	}
	if s.streamS, err = stream.NewService(streamOpts); err != nil {
		st.Close()
		return nil, fmt.Errorf("stream service: %w", err)
	}
	s.registerMetrics()
	s.apiS = s.buildAPI(opts)
	return s, nil
}

// registerMetrics registers the service-level instruments: the stream
// hub's counters and the ingest/dedup/query internals. The engine's
// storage instruments were registered by OpenSharded (default engines
// only — a caller-supplied Engine observes itself).
func (s *Service) registerMetrics() {
	s.streamS.RegisterMetrics(s.reg)
	s.reg.CounterFunc("repro_ingest_rows_total",
		"Rows accepted into the store, over every ingest path.", nil,
		func() float64 { return float64(s.ingested.Load()) })
	s.reg.CounterFunc("repro_ingest_rejected_rows_total",
		"Rows rejected by validation or the store.", nil,
		func() float64 { return float64(s.rejected.Load()) })
	s.reg.GaugeFunc("repro_ingest_dedup_window_entries",
		"Idempotency keys currently remembered.", nil,
		func() float64 { return float64(s.dedup.size()) })
	s.dedupClaim = s.reg.Histogram("repro_ingest_dedup_claim_seconds",
		"Idempotency-Key claim wait (includes waiting out an in-flight delivery of the same key).",
		obs.FastLatencyBuckets, nil)
	s.fanout = s.reg.Histogram("repro_query_fanout_series",
		"Series matched per selector resolution (scatter-gather fan-out width).",
		obs.CountBuckets, nil)
	if s.qc != nil {
		registerQCacheMetrics(s.reg, s.qc)
	}
	if s.cnode != nil {
		s.registerClusterMetrics()
	}
}

// Stream exposes the streaming service (hub stats, KickAll).
func (s *Service) Stream() *stream.Service { return s.streamS }

// Store exposes the backing storage engine (benchmarks and tests).
func (s *Service) Store() tsdb.Engine { return s.store }

// Stats are cumulative ingest counters.
type Stats struct {
	Ingested uint64          `json:"ingested"`
	Rejected uint64          `json:"rejected"`
	Store    tsdb.Stats      `json:"store"`
	Stream   stream.HubStats `json:"stream"`
}

// Stats returns a snapshot of service counters.
func (s *Service) Stats() Stats {
	return Stats{
		Ingested: s.ingested.Load(),
		Rejected: s.rejected.Load(),
		Store:    s.store.Stats(),
		Stream:   s.streamS.Hub().Stats(),
	}
}

// buildAPI registers the service's endpoints on the unified API layer.
// The v1 operations surface is served under /v1/... with the bare path
// kept as a legacy alias (unless disabled); the /v2 data plane (v2.go,
// ingest.go) has no aliases:
//
//	GET  /v1/stats
//	GET  /v1/storage                     per-shard durable storage status
//	POST /v1/storage/compact[?shard=N]   force a block compaction cycle
//	GET  /v1/stream?topic=<pattern>      live events (SSE)
//	POST /v1/publish                     event ingress (middleware.Event JSON)
//	GET  /v1/metrics, /v1/healthz
//	GET  /v2/series[?device=&quantity=&limit=&cursor=]
//	GET  /v2/series/{device}/{quantity}/samples|latest|aggregate
//	POST /v2/query                       batch multi-series read
//	POST /v2/ingest                      batched / NDJSON sample ingest
//	PUT  /v2/series/{device}/{quantity}/samples  single-series append
//
// Route classes draw their own rate-limit tiers: cheap reads share
// Options.ReadLimiter, the batch endpoint Options.BatchLimiter, the
// ingest plane Options.WriteLimiter, and the publish ingress the stream
// PublishLimiter — all surfaced per tier in /v1/metrics.
func (s *Service) buildAPI(opts Options) *api.Server {
	srv := api.NewServer(api.Options{
		Service:              "measuredb",
		Logger:               opts.Logger,
		DisableLegacyAliases: opts.DisableLegacyAliases,
		EnablePprof:          opts.EnablePprof,
	})
	srv.Metrics().AttachRegistry(s.reg)
	tier := func(rl *api.RateLimiter, name string) func(http.Handler) http.Handler {
		if rl == nil {
			return func(h http.Handler) http.Handler { return h }
		}
		srv.Metrics().RegisterLimiter(name, rl)
		return api.RateLimit(rl)
	}
	read := tier(opts.ReadLimiter, "read")
	batch := tier(opts.BatchLimiter, "batch")
	write := tier(opts.WriteLimiter, "write")
	srv.Metrics().RegisterLimiter("publish", opts.Stream.PublishLimiter)

	srv.Get("/stats", func(ctx context.Context, q url.Values) (any, error) {
		return s.Stats(), nil
	})
	s.mountV2(srv, read, batch, write)
	s.mountStorage(srv)
	if s.cnode != nil {
		s.mountCluster(srv)
	}
	s.streamS.Mount(srv)
	return srv
}

// SetLegacyAliases toggles the unversioned route aliases at runtime.
func (s *Service) SetLegacyAliases(enabled bool) { s.apiS.SetLegacyAliases(enabled) }

// Handler returns the service's web interface.
func (s *Service) Handler() http.Handler { return s.apiS.Handler() }

// Metrics exposes the per-route API metrics.
func (s *Service) Metrics() *api.Metrics { return s.apiS.Metrics() }

// Serve binds the web interface and returns the bound address.
func (s *Service) Serve(addr string) (string, error) {
	return s.srv.Serve(addr, s.Handler())
}

// Close stops the web interface, the streaming subsystem, and the store
// (draining and syncing any durable state).
func (s *Service) Close() {
	s.srv.Close()
	if err := s.streamS.Close(); err != nil {
		slog.Error("stream close", "service", "measuredb", "err", err)
	}
	s.store.Close()
}

// parseRange reads from/to as RFC 3339 timestamps; both optional.
func parseRange(q url.Values) (from, to time.Time, err error) {
	if s := q.Get("from"); s != "" {
		from, err = time.Parse(time.RFC3339, s)
		if err != nil {
			return from, to, fmt.Errorf("bad from: %v", err)
		}
	}
	if s := q.Get("to"); s != "" {
		to, err = time.Parse(time.RFC3339, s)
		if err != nil {
			return from, to, fmt.Errorf("bad to: %v", err)
		}
	}
	return from, to, nil
}

// measurementsOf converts samples back to common-format measurements.
func measurementsOf(key tsdb.SeriesKey, samples []tsdb.Sample, source string) []dataformat.Measurement {
	out := make([]dataformat.Measurement, len(samples))
	unit, _ := dataformat.CanonicalUnit(dataformat.Quantity(key.Quantity))
	for i, smp := range samples {
		out[i] = dataformat.Measurement{
			Source:    source,
			Device:    key.Device,
			Quantity:  dataformat.Quantity(key.Quantity),
			Unit:      unit,
			Value:     smp.Value,
			Timestamp: smp.At,
		}
	}
	return out
}

// SeriesInfo describes one stored series.
type SeriesInfo struct {
	Device   string `json:"device"`
	Quantity string `json:"quantity"`
	Samples  int    `json:"samples"`
}

// AggregateResponse is the JSON shape of a whole-range aggregate.
type AggregateResponse struct {
	Device   string  `json:"device"`
	Quantity string  `json:"quantity"`
	Count    int     `json:"count"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Mean     float64 `json:"mean"`
	Sum      float64 `json:"sum"`
}

// Topic builds the middleware topic for a measurement, mirroring the
// device URI structure: measurements/<district>/<path...>/<quantity>.
func Topic(deviceURI string, quantity dataformat.Quantity) string {
	return string(appendTopic(nil, deviceURI, string(quantity)))
}
