package tsdb

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/wal"
)

// Engine is the storage surface the measurements services and the
// device proxy program against. The device-hash Sharded engine is its
// one implementation, in memory or durable; tests and benchmarks wrap
// it or fake it. Readers and writers address series by key; which shard
// owns a series is the engine's business.
type Engine interface {
	Append(key SeriesKey, smp Sample) error
	AppendBatch(rows []Row) []error
	Query(key SeriesKey, from, to time.Time) ([]Sample, error)
	QueryPage(key SeriesKey, from, to time.Time, cur Cursor, limit int) (Page, error)
	Iter(key SeriesKey, from, to time.Time, pageSize int) Iterator
	Scan(key SeriesKey, from, to time.Time, cur Cursor) Iterator
	Latest(key SeriesKey) (Sample, error)
	Len(key SeriesKey) int
	Keys() []SeriesKey
	KeysForDevice(device string) []SeriesKey
	Aggregate(key SeriesKey, from, to time.Time) (Aggregate, error)
	Downsample(key SeriesKey, from, to time.Time, window time.Duration) ([]Bucket, error)
	Stats() Stats
	Drop(key SeriesKey)
	Close()
}

var _ Engine = (*Sharded)(nil)

// Row is one keyed sample, the unit of batched ingest.
type Row struct {
	Key    SeriesKey
	Sample Sample
}

// AppendBatch appends rows to the head in order, coalescing consecutive
// rows of the same series into one locked run: batched producers (device
// buffers, NDJSON backfills, the ingest chunker) pay the map lookup and
// the series lock once per run instead of once per sample. A head append
// cannot fail; the shard worker (and recovery) is its only caller.
func (s *Store) AppendBatch(rows []Row) {
	for j := 0; j < len(rows); {
		k := j + 1
		for k < len(rows) && rows[k].Key == rows[j].Key {
			k++
		}
		s.appendRun(rows[j].Key, rows[j:k])
		j = k
	}
}

// DefaultShards is the shard count a zero ShardedOptions gets.
const DefaultShards = 8

// defaultQueueLen is the per-shard append-queue capacity, in batches.
const defaultQueueLen = 256

// ShardedOptions configure a Sharded engine.
type ShardedOptions struct {
	// Shards is the number of device-hash partitions (default
	// DefaultShards). All of a device's series land in one shard, so
	// per-series ordering and cursor semantics are exactly the Store's.
	Shards int
	// Store configures each shard's underlying Store.
	Store Options
	// QueueLen is the per-shard append-queue capacity in batches
	// (default 256). AppendBatch blocks when a shard's queue is full,
	// which back-pressures producers instead of growing memory.
	QueueLen int

	// Dir enables the durable layer: every shard journals its row
	// batches through a segmented write-ahead log under
	// <Dir>/shard-NNNN before acking, and compacts the log into
	// snapshots. Empty keeps the engine purely in-memory. The shard
	// count is pinned in <Dir>/engine.json at creation; reopening adopts
	// the stored count (rows are placed by device-hash % shards).
	Dir string
	// Fsync is the WAL durability policy (default wal.FsyncNone: acked
	// rows survive a process kill, an fsync policy decides what a
	// machine crash can lose).
	Fsync wal.Mode
	// SegmentBytes sizes the WAL segments (default 8 MiB).
	SegmentBytes int64
	// SnapshotEvery compacts a shard's WAL into a snapshot after this
	// many appended rows (default 65536; negative disables record-based
	// snapshots).
	SnapshotEvery int
	// Blocks configures the columnar block layer of a durable engine:
	// at snapshot cadence each shard cuts head rows older than the head
	// window into compressed immutable block files with 1m/1h rollups,
	// and applies the raw/rollup retention horizons. Only meaningful
	// with Dir set; the zero value means DefaultHeadWindow and infinite
	// retention.
	Blocks BlockPolicy

	// Metrics, when set, registers the engine's internals on the given
	// registry: per-shard WAL append/fsync latency histograms, WAL
	// depth and segment gauges, snapshot age/duration, queue depth, and
	// the commit-group row distribution. Nil disables instrumentation
	// (the hot path then takes no timestamps).
	Metrics *obs.Registry
}

// Sharded is a device-hash-partitioned storage engine: N shards, each
// owning the series of the devices that hash to it as an in-memory head
// Store plus a block set (empty on an in-memory engine), and a
// single-writer append queue per shard. Reads route to the owning shard
// and merge its head with its blocks behind one value-cursor contract;
// every write is split by shard and applied by the per-shard workers in
// parallel, so ingest throughput scales with the shard count instead of
// funnelling through one lock.
type Sharded struct {
	shards []*Store
	queues []chan batchItem

	// disks is the per-shard durable state (nil for in-memory engines);
	// after recovery only each shard's worker touches its entry.
	disks []*shardDisk
	// bsets is the per-shard published block view (always empty on an
	// in-memory engine); workers mutate, readers capture under its read
	// lock.
	bsets       []*blockSet
	blockPolicy BlockPolicy
	snapEvery   int
	// dropped counts rows a durable shard discarded un-applied because
	// their WAL append failed (each also fails its caller's error slot),
	// surfaced in Stats.
	dropped atomic.Uint64

	// groupRows is the commit-group size distribution (nil when the
	// engine is uninstrumented).
	groupRows *obs.Histogram

	// headReads/blockReads classify merged reads by whether any block
	// file was consulted (exposed as repro_tsdb_reads_total{path=...}).
	headReads  atomic.Uint64
	blockReads atomic.Uint64

	// gens is the per-shard mutation generation: bumped after every
	// applied append wave, every compaction/snapshot pass, and every
	// reset or admin op — always before the mutation's caller is
	// unblocked. Result caches snapshot it into their keys, so any shard
	// mutation implicitly invalidates cached reads over that shard while
	// read-your-writes stays exact.
	gens []atomic.Uint64

	mu     sync.RWMutex // guards closed vs. queue sends
	closed bool
	wg     sync.WaitGroup
}

// batchItem is one unit of work on a shard's append queue. rows are the
// shard's slice of a caller batch; idx maps them back to the caller's
// indices inside errs. done, when set, is signalled after the rows are
// applied. stages, when set, receives the wal-append and store-apply
// wait times the originating request experienced (see
// AppendBatchStages).
type batchItem struct {
	rows   []Row
	idx    []int
	errs   []error
	done   *sync.WaitGroup
	stages *obs.Stages
	// op, when set, is a queued shard operation (reset, forced
	// compaction, block import, series drop). It never joins a commit
	// group: everything queued before it commits first, everything after
	// it applies to the shard it left.
	op *shardOp
}

// shardOp is one operation routed through a shard's worker so it runs
// with single-writer semantics against the store and blocks.
type shardOp struct {
	kind opKind
	dir  string    // opImport: source shard directory
	key  SeriesKey // opDrop: series to remove
	done chan error
}

type opKind int

const (
	opReset opKind = iota
	opCompact
	opImport
	opDrop
)

// NewSharded creates a Sharded engine and starts its append workers.
// It can only fail when Options.Dir requests durability — use
// OpenSharded for that; NewSharded panics on a disk error.
func NewSharded(opts ShardedOptions) *Sharded {
	s, err := OpenSharded(opts)
	if err != nil {
		panic("tsdb: NewSharded: " + err.Error() + " (use OpenSharded for durable engines)")
	}
	return s
}

// OpenSharded creates a Sharded engine, recovering each shard from its
// snapshot and WAL tail when Options.Dir enables durability, and starts
// the append workers.
func OpenSharded(opts ShardedOptions) (*Sharded, error) {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
	}
	qlen := opts.QueueLen
	if qlen <= 0 {
		qlen = defaultQueueLen
	}
	if opts.Dir != "" {
		var err error
		if n, err = loadOrWriteMeta(opts.Dir, n); err != nil {
			return nil, err
		}
	}
	s := &Sharded{
		shards:    make([]*Store, n),
		queues:    make([]chan batchItem, n),
		bsets:     make([]*blockSet, n),
		gens:      make([]atomic.Uint64, n),
		snapEvery: opts.SnapshotEvery,
	}
	if s.snapEvery == 0 {
		s.snapEvery = 1 << 16
	}
	headOpts := opts.Store
	if opts.Dir != "" {
		// The head window bounds a durable head; a count bound would
		// evict acked rows that the next snapshot drops from the WAL.
		headOpts.MaxSamplesPerSeries = math.MaxInt
	}
	for i := 0; i < n; i++ {
		s.shards[i] = newStore(headOpts)
		s.queues[i] = make(chan batchItem, qlen)
		s.bsets[i] = &blockSet{}
	}
	reg := opts.Metrics
	if reg != nil {
		s.groupRows = reg.Histogram("repro_tsdb_commit_group_rows",
			"Rows covered by one shard commit group.", obs.CountBuckets, nil)
		reg.CounterFunc("repro_tsdb_dropped_rows_total",
			"Rows discarded un-applied after a WAL append failure.", nil,
			func() float64 { return float64(s.dropped.Load()) })
		for i := 0; i < n; i++ {
			q := s.queues[i]
			g := &s.gens[i]
			shard := obs.Labels{"shard": strconv.Itoa(i)}
			reg.GaugeFunc("repro_tsdb_queue_depth",
				"Batches waiting on the shard append queue.",
				shard, func() float64 { return float64(len(q)) })
			reg.GaugeFunc("repro_tsdb_shard_generation",
				"Shard mutation generation: bumps on applied append waves, compaction passes, resets, and admin ops.",
				shard, func() float64 { return float64(g.Load()) })
		}
		reg.CounterFunc("repro_tsdb_reads_total",
			"Merged reads by whether any block file was consulted.",
			obs.Labels{"path": "head"},
			func() float64 { return float64(s.headReads.Load()) })
		reg.CounterFunc("repro_tsdb_reads_total",
			"Merged reads by whether any block file was consulted.",
			obs.Labels{"path": "blocks"},
			func() float64 { return float64(s.blockReads.Load()) })
	}
	if opts.Dir != "" {
		s.disks = make([]*shardDisk, n)
		s.blockPolicy = opts.Blocks
		fail := func(i int, err error) error {
			for _, d := range s.disks[:i] {
				err = errors.Join(err, d.log.Close())
			}
			for _, bs := range s.bsets[:i] {
				for _, b := range bs.blocks {
					err = errors.Join(err, b.Close())
				}
			}
			return err
		}
		for i := 0; i < n; i++ {
			var mx *shardMetrics
			var onSync func(time.Duration)
			if reg != nil {
				mx = newShardMetrics(reg, i)
				onSync = mx.fsync.ObserveDuration
			}
			disk, manifest, err := recoverShard(filepath.Join(opts.Dir, fmt.Sprintf("shard-%04d", i)), s.shards[i], opts, onSync)
			if err != nil {
				return nil, fail(i, fmt.Errorf("tsdb: recover shard %d: %w", i, err))
			}
			blocks, nextID, err := openManifestBlocks(disk.dir, manifest)
			if err != nil {
				return nil, fail(i, errors.Join(fmt.Errorf("tsdb: recover shard %d: %w", i, err), disk.log.Close()))
			}
			disk.mx = mx
			bs := &blockSet{dir: disk.dir, blocks: blocks, nextID: nextID}
			if reg != nil {
				d := disk
				shard := obs.Labels{"shard": strconv.Itoa(i)}
				reg.GaugeFunc("repro_tsdb_wal_pending_rows",
					"Rows journaled above the shard's snapshot watermark (WAL depth).",
					shard, func() float64 { return float64(d.sinceSnap.Load()) })
				reg.GaugeFunc("repro_tsdb_wal_segments",
					"Live WAL segment files of the shard.",
					shard, func() float64 { return float64(d.log.Segments()) })
				reg.GaugeFunc("repro_tsdb_snapshot_age_seconds",
					"Seconds since the shard's last snapshot of any view change (or recovery).",
					shard, func() float64 {
						return time.Since(time.Unix(0, d.lastSnap.Load())).Seconds()
					})
				reg.GaugeFunc("repro_tsdb_block_files",
					"Published columnar block files of the shard.",
					shard, func() float64 {
						bs.mu.RLock()
						defer bs.mu.RUnlock()
						return float64(len(bs.blocks))
					})
				reg.GaugeFunc("repro_tsdb_block_bytes",
					"On-disk bytes of the shard's published block files.",
					shard, func() float64 {
						bs.mu.RLock()
						defer bs.mu.RUnlock()
						var sum int64
						for _, b := range bs.blocks {
							sum += b.Size()
						}
						return float64(sum)
					})
				reg.GaugeFunc("repro_tsdb_block_rollup_lag_seconds",
					"Age of the newest block-covered sample — how far the rollup tier trails the head (0 until the first cut).",
					shard, func() float64 {
						bs.mu.RLock()
						defer bs.mu.RUnlock()
						var maxT int64
						for _, b := range bs.blocks {
							if b.MaxT() > maxT {
								maxT = b.MaxT()
							}
						}
						if maxT == 0 {
							return 0
						}
						return time.Since(time.Unix(0, maxT)).Seconds()
					})
			}
			s.disks[i] = disk
			s.bsets[i] = bs
		}
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// maxCommitGroup bounds how many queued batches one WAL group commit
// (and one store pass) covers.
const maxCommitGroup = 64

// worker drains one shard's append queue; it is the shard's only queued
// writer, so queued appends never contend with each other and ride the
// run-grouped batch path. Everything already queued behind the first
// item is committed as one group — on a durable shard that is the
// group-commit path: one WAL append (and one fsync, in always mode)
// covers the whole wave before any of it is acked.
func (s *Sharded) worker(i int) {
	defer s.wg.Done()
	store, bs, q := s.shards[i], s.bsets[i], s.queues[i]
	var disk *shardDisk
	if s.disks != nil {
		disk = s.disks[i]
	}
	group := make([]batchItem, 0, maxCommitGroup)
	for {
		item, ok := <-q
		if !ok {
			return
		}
		if item.op != nil {
			s.runBarrier(i, store, disk, bs, item.op)
			continue
		}
		group = append(group[:0], item)
		closed := false
		var pending *shardOp
	drain:
		for len(group) < maxCommitGroup {
			select {
			case it, ok := <-q:
				if !ok {
					closed = true
					break drain
				}
				if it.op != nil {
					// An op must not ride a commit group: rows queued
					// behind it would be journaled before it runs and
					// then truncated/compacted by it. Commit what came
					// first, then run the op.
					pending = it.op
					break drain
				}
				group = append(group, it)
			default:
				break drain
			}
		}
		s.commitGroup(i, store, disk, bs, group)
		if pending != nil {
			s.runBarrier(i, store, disk, bs, pending)
		}
		if closed {
			return
		}
	}
}

// runBarrier executes an op on the shard worker, outside any commit
// group. Reset and drop run on any shard; compaction and import need
// its durable state. The shard generation bumps before the outcome is
// sent: the caller — and anyone it tells — can never observe a cached
// pre-op result after the op is acknowledged.
func (s *Sharded) runBarrier(i int, store *Store, disk *shardDisk, bs *blockSet, op *shardOp) {
	var err error
	switch {
	case op.kind == opReset:
		err = resetShard(store, disk, bs)
	case op.kind == opDrop:
		err = dropSeries(store, disk, bs, op.key)
	case disk == nil:
		err = errors.New("tsdb: compaction and block import require a durable engine")
	case op.kind == opCompact:
		err = s.compactShard(store, disk, bs)
	case op.kind == opImport:
		err = importBlocks(store, disk, bs, op.dir)
	}
	s.gens[i].Add(1)
	op.done <- err
}

// commitGroup journals, applies, and acks one wave of queue items, in
// that order: a row reaches the WAL (under the shard's fsync policy)
// before the in-memory store, and the store before its producer is
// unblocked. A WAL failure fails every row in the wave without applying
// any of them — the engine never acknowledges state it cannot recover.
// The wave's records are encoded into the shard's reused record buffer
// (shardDisk.enc), so a steady ingest stream journals without growing
// a buffer per group; the log copies them before AppendBatch returns.
func (s *Sharded) commitGroup(i int, store *Store, disk *shardDisk, bs *blockSet, group []batchItem) {
	if s.groupRows != nil {
		rows := 0
		for _, it := range group {
			rows += len(it.rows)
		}
		if rows > 0 {
			s.groupRows.Observe(float64(rows))
		}
	}
	if disk != nil {
		recs := disk.enc.encode(group)
		if len(recs) > 0 {
			// The group commits as one WAL append, so the group's append
			// latency IS each member request's wal-append wait. Timing
			// only happens when someone is listening — the uninstrumented
			// hot path takes no timestamps.
			timed := disk.mx != nil || anyStages(group)
			var walStart time.Time
			if timed {
				walStart = time.Now()
			}
			_, err := disk.log.AppendBatch(recs)
			disk.enc.release()
			if timed {
				walD := time.Since(walStart)
				if disk.mx != nil {
					disk.mx.walAppend.ObserveDuration(walD)
				}
				for _, it := range group {
					it.stages.Observe("wal-append", walD)
				}
			}
			if err != nil {
				for _, it := range group {
					for _, j := range it.idx {
						it.errs[j] = err
					}
					s.dropped.Add(uint64(len(it.rows)))
					if it.done != nil {
						it.done.Done()
					}
				}
				return
			}
		}
	}
	for _, it := range group {
		if len(it.rows) > 0 {
			var applyStart time.Time
			if it.stages != nil {
				applyStart = time.Now()
			}
			store.AppendBatch(it.rows)
			if it.stages != nil {
				it.stages.Observe("store-apply", time.Since(applyStart))
			}
			if disk != nil {
				disk.sinceSnap.Add(int64(len(it.rows)))
			}
			// Generation bump before the ack: a producer unblocked by
			// done.Done() re-reading its own write can never match a
			// cache entry keyed to the pre-append generation.
			s.gens[i].Add(1)
		}
		if it.done != nil {
			it.done.Done()
		}
	}
	if disk != nil && s.maybeSnapshot(store, disk, bs) {
		// A snapshot pass on a block-bearing shard IS the compaction
		// cycle — head rows moved into blocks, retention applied. Bump so
		// cached merged reads over the pre-compaction view expire.
		s.gens[i].Add(1)
	}
}

// anyStages reports whether any item in the wave carries a stage
// collector.
func anyStages(group []batchItem) bool {
	for _, it := range group {
		if it.stages != nil {
			return true
		}
	}
	return false
}

// NumShards reports the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// ShardGeneration reports shard i's mutation generation. It increases
// monotonically: after every applied append wave (before the producer is
// unblocked), every compaction/snapshot pass, and every reset or admin
// op. Two equal readings around a read guarantee the shard's visible
// data did not change in between — the contract result caches build on.
func (s *Sharded) ShardGeneration(i int) uint64 {
	return s.gens[i].Load()
}

// Generations appends every shard's current generation to buf and
// returns it, in shard order. A caching reader snapshots the set once
// per request instead of taking len(shards) separate calls.
func (s *Sharded) Generations(buf []uint64) []uint64 {
	for i := range s.gens {
		buf = append(buf, s.gens[i].Load())
	}
	return buf
}

// ShardFor reports which shard owns a device's series.
func (s *Sharded) ShardFor(device string) int {
	return ShardOf(device, len(s.shards))
}

// ShardOf is THE placement function: which of n shards owns a device's
// series (FNV-1a of the device URI mod n). The engine partitions rows
// with it and the cluster layer routes requests with it, so a row's
// owning node and its on-disk shard directory can never disagree.
func ShardOf(device string, n int) int {
	return int(fnv64a(device) % uint64(n))
}

// ShardDir reports shard i's on-disk directory ("" on an in-memory
// engine). The cluster handoff archives the directory's files directly.
func (s *Sharded) ShardDir(i int) string {
	if s.disks == nil || i < 0 || i >= len(s.disks) {
		return ""
	}
	return s.disks[i].dir
}

// SyncShard waits for everything queued on shard i to be applied, then
// fsyncs its WAL so the shard's segment files are complete on disk. A
// frozen shard synced this way can be archived byte-for-byte.
func (s *Sharded) SyncShard(i int) error {
	var done sync.WaitGroup
	done.Add(1)
	if err := s.enqueue(i, batchItem{done: &done}); err != nil {
		return err
	}
	done.Wait()
	if s.disks == nil {
		return nil
	}
	return s.disks[i].log.Sync()
}

// ResetShard empties shard i through its worker queue: appends enqueued
// before the call commit first, the shard is then wiped (store and, on
// a durable engine, WAL + snapshots), and appends enqueued after land
// in the emptied shard. The handoff protocol resets the source copy
// after ownership flips, and a restore target resets before replaying
// so a retried restore cannot double-apply.
func (s *Sharded) ResetShard(i int) error {
	return s.enqueueOp(i, &shardOp{kind: opReset})
}

// ShardStatus is a point-in-time operational description of one shard,
// the unit `districtctl cluster status` reports per node.
type ShardStatus struct {
	Shard       int    `json:"shard"`
	Series      int    `json:"series"`
	Samples     int    `json:"samples"`
	WALPending  int64  `json:"wal_pending_rows"`
	WALSegments int    `json:"wal_segments"`
	Dir         string `json:"dir,omitempty"`
	// Block-layer counters (zero on an in-memory engine): published
	// block files, their on-disk bytes, the samples they cover (index
	// counts — demoted series still contribute), and the heap their
	// restart tables and cached 1h rollups hold
	// (block.Block.RestartBytes, RollupBytes).
	Blocks       int   `json:"blocks,omitempty"`
	BlockBytes   int64 `json:"block_bytes,omitempty"`
	BlockSamples int64 `json:"block_samples,omitempty"`
	RestartBytes int64 `json:"restart_bytes,omitempty"`
	RollupBytes  int64 `json:"rollup_bytes,omitempty"`
	// HeadBytes is the heap the head's sample arrays hold: segment and
	// spill capacity at 16 bytes a sample.
	HeadBytes int64 `json:"head_bytes,omitempty"`
}

// ShardStatus snapshots one shard's live counters (zero durable fields
// on an in-memory engine). Series and Samples merge the head with the
// block files.
func (s *Sharded) ShardStatus(i int) ShardStatus {
	out := ShardStatus{Shard: i, Series: len(s.ShardKeys(i)), Samples: s.shards[i].Stats().Samples,
		HeadBytes: s.shards[i].headBytes()}
	if s.disks != nil {
		d := s.disks[i]
		out.WALPending = d.sinceSnap.Load()
		out.WALSegments = d.log.Segments()
		out.Dir = d.dir
	}
	bs := s.bsets[i]
	bs.mu.RLock()
	out.Blocks = len(bs.blocks)
	for _, b := range bs.blocks {
		out.BlockBytes += b.Size()
		out.BlockSamples += b.NumSamples()
		out.RestartBytes += b.RestartBytes()
		out.RollupBytes += b.RollupBytes()
	}
	bs.mu.RUnlock()
	out.Samples += int(out.BlockSamples)
	return out
}

// owner returns the head and the block set of the shard owning a device.
func (s *Sharded) owner(device string) (*Store, *blockSet) {
	i := s.ShardFor(device)
	return s.shards[i], s.bsets[i]
}

// fnv64a is the FNV-1a hash, inlined to keep the per-row routing cost to
// a few nanoseconds on the ingest hot path.
func fnv64a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// partitionScratch is the reusable working set of one append wave:
// counting arrays, one flat row/index backing sliced into per-shard
// windows, the caller-aligned error slots, and a memo of device owners.
// Waves recycle it through scratchPool, so a steady-state ingest stream
// repartitions in place instead of re-allocating per batch.
type partitionScratch struct {
	counts  []int
	offs    []int
	shardOf []int32
	rows    []Row
	idx     []int
	per     [][]Row
	peridx  [][]int
	errs    []error
	owners  [1 << ownerBits]ownerEntry
}

// ownerBits sizes partitionScratch's owner memo (1<<ownerBits entries).
const ownerBits = 10

// ownerEntry memoises ShardOf(device, n). The pool is shared by engines
// of every shard count, so n is part of the key; the zero entry (n = 0)
// matches no engine.
type ownerEntry struct {
	device   string
	n, shard int32
}

var scratchPool = sync.Pool{New: func() any { return new(partitionScratch) }}

// owner is ShardOf(device, n) through the memo, so a device that recurs
// in an interleaved wave hashes once, not on every row. The slot comes
// from the address of the device string's bytes: the ingest decoder
// interns device names, so every row of a device shares one address and
// finds its slot with one multiply. An equal string at another address
// is just another key that fills its own slot; every hit is confirmed
// by string equality, so the memo can only answer what ShardOf would.
func (sc *partitionScratch) owner(device string, n int) int {
	e := &sc.owners[ownerSlot(device)]
	if int(e.n) != n || e.device != device {
		*e = ownerEntry{device: device, n: int32(n), shard: int32(ShardOf(device, n))}
	}
	return int(e.shard)
}

// ownerSlot is device's slot in the owner memo: the address of its
// bytes, Fibonacci-hashed.
func ownerSlot(device string) int {
	p := uint64(uintptr(unsafe.Pointer(unsafe.StringData(device))))
	return int((p * 0x9E3779B97F4A7C15) >> (64 - ownerBits))
}

// errSlots returns n zeroed caller-aligned error slots backed by the
// scratch.
func (sc *partitionScratch) errSlots(n int) []error {
	if cap(sc.errs) < n {
		sc.errs = make([]error, n)
	}
	errs := sc.errs[:n]
	for i := range errs {
		errs[i] = nil
	}
	return errs
}

// partition splits rows into per-shard sub-batches, recording each row's
// original index (so per-row errors line up). A counting pass sizes
// every sub-batch exactly — no growth reallocations on the ingest hot
// path — and takes each row's shard from sc.owner, so a device is
// hashed once per wave however its rows interleave. The same pass
// refuses a row whose At the store cannot keep (ErrTimeRange in its
// errs slot): it joins no sub-batch, so it is never journaled. The
// sub-batches are windows over one flat copy owned by sc: callers may
// reuse their input immediately, and the whole wave recycles as one
// unit once every worker is done with it.
//
// districtlint:hotpath
func (s *Sharded) partition(sc *partitionScratch, rows []Row, errs []error) (per [][]Row, idx [][]int) {
	n := len(s.shards)
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
		sc.offs = make([]int, n)
		sc.per = make([][]Row, n)
		sc.peridx = make([][]int, n)
	}
	counts := sc.counts[:n]
	for i := range counts {
		counts[i] = 0
	}
	if cap(sc.shardOf) < len(rows) {
		sc.shardOf = make([]int32, len(rows))
	}
	shardOf := sc.shardOf[:len(rows)]
	for i := range rows {
		if !storable(rows[i].Sample.At) {
			errs[i] = ErrTimeRange
			shardOf[i] = -1
			continue
		}
		sh := sc.owner(rows[i].Key.Device, n)
		shardOf[i] = int32(sh)
		counts[sh]++
	}
	if cap(sc.rows) < len(rows) {
		sc.rows = make([]Row, len(rows))
	}
	flat := sc.rows[:len(rows)]
	if cap(sc.idx) < len(rows) {
		sc.idx = make([]int, len(rows))
	}
	flatIdx := sc.idx[:len(rows)]
	per, idx = sc.per[:n], sc.peridx[:n]
	offs := sc.offs[:n]
	sum := 0
	for shn, c := range counts {
		offs[shn] = sum
		if c == 0 {
			per[shn], idx[shn] = nil, nil
		} else {
			// Full slice expression: appends stay inside the window.
			per[shn] = flat[sum : sum : sum+c]
			idx[shn] = flatIdx[sum : sum : sum+c]
		}
		sum += c
	}
	for i, r := range rows {
		shn := shardOf[i]
		if shn < 0 {
			continue
		}
		per[shn] = append(per[shn], r)
		idx[shn] = append(idx[shn], i)
	}
	return per, idx
}

// Append stores one sample synchronously in the owning shard. It is a
// one-row AppendBatch: the sample rides the shard's append queue, so it
// is ordered against queued batches, resets and admin ops, and on a
// durable engine journaled before the call returns.
func (s *Sharded) Append(key SeriesKey, smp Sample) error {
	if errs := s.AppendBatch([]Row{{Key: key, Sample: smp}}); errs != nil {
		return errs[0]
	}
	return nil
}

// AppendBatch splits rows by owning shard and applies the sub-batches in
// parallel through the per-shard append queues, waiting for all of them.
// The returned slice is aligned with rows (nil when every row landed);
// each worker writes only its own rows' slots, so no locking is needed
// around the shared slice. A row whose At lies outside the store's time
// range (1677-09-21T01:00:00Z … 2262-04-11T23:47:16.854775807Z) fails
// with ErrTimeRange and is neither journaled nor applied.
func (s *Sharded) AppendBatch(rows []Row) []error {
	return s.appendBatch(rows, nil)
}

// AppendBatchStages is AppendBatch with per-request stage attribution:
// the shard workers record the WAL group-append and store-apply waits
// the batch experienced into st (nil-safe). With the batch split over
// several shards the stages accumulate across them — the totals then
// read as work done on the request's behalf, not wall-clock.
func (s *Sharded) AppendBatchStages(rows []Row, st *obs.Stages) []error {
	return s.appendBatch(rows, st)
}

func (s *Sharded) appendBatch(rows []Row, st *obs.Stages) []error {
	if len(rows) == 0 {
		return nil
	}
	sc := scratchPool.Get().(*partitionScratch)
	errs := sc.errSlots(len(rows))
	per, idx := s.partition(sc, rows, errs)
	var done sync.WaitGroup

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		for i := range errs {
			errs[i] = ErrClosed
		}
		sc.errs = nil // the slice escapes to the caller
		scratchPool.Put(sc)
		return errs
	}
	for sh, sub := range per {
		if len(sub) == 0 {
			continue
		}
		done.Add(1)
		s.queues[sh] <- batchItem{rows: sub, idx: idx[sh], errs: errs, done: &done, stages: st}
	}
	s.mu.RUnlock()
	done.Wait()
	// Every worker has acked: the row windows are dead, the scratch can
	// carry the next wave. The error slice only escapes on failure.
	for _, err := range errs {
		if err != nil {
			sc.errs = nil
			scratchPool.Put(sc)
			return errs
		}
	}
	scratchPool.Put(sc)
	return nil
}

// Keys concatenates every shard's keys, in no particular order.
func (s *Sharded) Keys() []SeriesKey {
	var out []SeriesKey
	for i := range s.shards {
		out = append(out, s.ShardKeys(i)...)
	}
	return out
}

// Stats sums the shard counters. Samples counts head and block samples
// together, so it is invariant across compaction (and across retention
// demotion — demoted series keep contributing their index counts).
func (s *Sharded) Stats() Stats {
	var st Stats
	st.Shards = len(s.shards)
	st.DroppedRows = s.dropped.Load()
	for i, sh := range s.shards {
		st.Series += len(s.ShardKeys(i))
		st.Samples += sh.Stats().Samples
		bs := s.bsets[i]
		bs.mu.RLock()
		for _, b := range bs.blocks {
			st.Samples += int(b.NumSamples())
		}
		bs.mu.RUnlock()
	}
	return st
}

// Drop removes a series from its owning shard. The removal routes
// through the shard worker like every write, which also rewrites any
// block files containing the series and anchors the new view with a
// snapshot; a failure there leaves the block copies in place (the head
// part is already gone) and is reported via DropSeries.
func (s *Sharded) Drop(key SeriesKey) {
	if err := s.DropSeries(key); err != nil && !errors.Is(err, ErrClosed) {
		slog.Error("drop series", "service", "tsdb", "shard", s.ShardFor(key.Device), "series", key.String(), "err", err)
	}
}

// DropSeries is Drop with the block-rewrite outcome reported.
func (s *Sharded) DropSeries(key SeriesKey) error {
	return s.enqueueOp(s.ShardFor(key.Device), &shardOp{kind: opDrop, key: key})
}

// CompactShard forces one compaction cycle on shard i through its
// worker queue: cut head rows past the head window into a block, apply
// retention, snapshot, truncate the WAL. Requires a durable engine.
func (s *Sharded) CompactShard(i int) error {
	return s.enqueueOp(i, &shardOp{kind: opCompact})
}

// CompactAll forces a compaction cycle on every shard.
func (s *Sharded) CompactAll() error {
	var err error
	for i := range s.shards {
		if cerr := s.CompactShard(i); cerr != nil {
			err = errors.Join(err, fmt.Errorf("shard %d: %w", i, cerr))
		}
	}
	return err
}

// ImportShardBlocks copies the block files referenced by srcDir's
// snapshot manifest into shard i and publishes them. The cluster
// restore path ships block files wholesale with it — rollup-only
// (demoted) data has no raw rows left to replay through the write path.
func (s *Sharded) ImportShardBlocks(i int, srcDir string) error {
	return s.enqueueOp(i, &shardOp{kind: opImport, dir: srcDir})
}

// enqueueOp routes an op through shard i's worker and waits for its
// outcome.
func (s *Sharded) enqueueOp(i int, op *shardOp) error {
	op.done = make(chan error, 1)
	if err := s.enqueue(i, batchItem{op: op}); err != nil {
		return err
	}
	return <-op.done
}

// enqueue puts one item on shard i's queue; it refuses a shard out of
// range and a closed engine.
func (s *Sharded) enqueue(i int, item batchItem) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("tsdb: shard %d out of range [0,%d)", i, len(s.shards))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.queues[i] <- item
	return nil
}

// Close drains the append queues, stops the workers, and syncs and
// closes the per-shard WALs and block files. Subsequent writes fail
// with ErrClosed. It satisfies the void Engine interface; a WAL close
// failure (the final segment flush may not have reached disk) is
// logged — use CloseErr to receive it instead.
func (s *Sharded) Close() {
	if err := s.CloseErr(); err != nil {
		slog.Error("close", "service", "tsdb", "err", err)
	}
}

// CloseErr is Close returning the joined per-shard WAL close errors: the
// last word on whether every journaled batch reached disk.
func (s *Sharded) CloseErr() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, q := range s.queues {
		close(q)
	}
	s.mu.Unlock()
	s.wg.Wait()
	var err error
	for i, d := range s.disks {
		if cerr := d.log.Close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("shard %d: %w", i, cerr))
		}
	}
	for i, bs := range s.bsets {
		bs.mu.Lock()
		blocks := bs.blocks
		bs.blocks = nil
		bs.mu.Unlock()
		for _, b := range blocks {
			if cerr := b.Close(); cerr != nil {
				err = errors.Join(err, fmt.Errorf("shard %d: %w", i, cerr))
			}
		}
	}
	return err
}
