package tsdb

import (
	"errors"
	"fmt"
	"log/slog"
	"math"
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
// owns a series is the engine's business, except for listings: the
// series are listed per shard (Catalog), and ShardOf names the shard
// of a device.
type Engine interface {
	Append(key SeriesKey, smp Sample) error
	AppendBatch(rows []Row) []error
	Query(key SeriesKey, from, to time.Time) ([]Sample, error)
	QueryPage(key SeriesKey, from, to time.Time, cur Cursor, limit int) (Page, error)
	Iter(key SeriesKey, from, to time.Time, pageSize int) Iterator
	Scan(key SeriesKey, from, to time.Time, cur Cursor) Iterator
	Latest(key SeriesKey) (Sample, error)
	Len(key SeriesKey) int
	NumShards() int
	Catalog(shard int) []SeriesKey
	Aggregate(key SeriesKey, from, to time.Time) (Aggregate, error)
	Downsample(key SeriesKey, from, to time.Time, window time.Duration) ([]Bucket, error)
	Stats() Stats
	Close()
}

var _ Engine = (*Sharded)(nil)

// Row is one keyed sample, the unit of batched ingest.
type Row struct {
	Key    SeriesKey
	Sample Sample
}

// AppendBatch appends rows to the head in order, coalescing consecutive
// rows of the same series into one locked run: the engine's partition
// orders every shard part by series, so a batch pays the map lookup and
// the series lock once per series run instead of once per sample. A
// head append cannot fail; the shard worker (and recovery) is its only
// caller.
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
// AppendBatch blocks when a shard's queue is full, which back-pressures
// producers instead of growing memory.
const defaultQueueLen = 256

// ShardedOptions configure a Sharded engine.
type ShardedOptions struct {
	// Shards is the number of device-hash partitions (default
	// DefaultShards). All of a device's series land in one shard, so
	// per-series ordering and cursor semantics are exactly the Store's.
	Shards int
	// Store configures each shard's underlying Store.
	Store Options
	// Dir enables the durable layer: every row batch is journaled in
	// the node log under <Dir>/wal before any shard applies it, and
	// each shard snapshots its head under <Dir>/shard-NNNN, which
	// bounds the log. Empty keeps the engine purely in-memory. The shard
	// count is pinned in <Dir>/engine.json at creation; reopening adopts
	// the stored count (rows are placed by device-hash % shards).
	Dir string
	// Fsync is the node log's durability policy (default wal.FsyncNone: acked
	// rows survive a process kill, an fsync policy decides what a
	// machine crash can lose).
	Fsync wal.Mode
	// SegmentBytes sizes the node log's segments (default 8 MiB).
	SegmentBytes int64
	// SnapshotEvery runs a shard's compaction cycle, which snapshots
	// its head, after this many applied rows, and in a shard holding
	// rows that 2 × SnapshotEvery × shards journaled rows have passed
	// (default 65536; negative disables record-based snapshots).
	SnapshotEvery int
	// Blocks configures the columnar block layer of a durable engine:
	// at snapshot cadence each shard cuts head rows older than the head
	// window into compressed immutable block files with 1m/1h rollups,
	// and applies the raw/rollup retention horizons. Only meaningful
	// with Dir set; the zero value means DefaultHeadWindow and infinite
	// retention.
	Blocks BlockPolicy

	// Metrics, when set, registers the engine's internals on the given
	// registry: node-log append/fsync latency histograms and segment
	// gauge, per-shard WAL depth, snapshot age/duration and queue depth,
	// and the commit-group row distribution. Nil disables instrumentation
	// (the hot path then takes no timestamps).
	Metrics *obs.Registry
}

// Sharded is a device-hash-partitioned storage engine: N shards, each
// owning the series of the devices that hash to it as an in-memory head
// Store plus a block set (empty on an in-memory engine), and a
// single-writer append queue per shard. Reads route to the owning shard
// and merge its head with its blocks behind one value-cursor contract;
// every write is split by shard — on a durable engine journaled first,
// one node-log record per batch — and applied by the per-shard workers
// in parallel, so ingest throughput scales with the shard count instead
// of funnelling through one lock.
type Sharded struct {
	shards []*Store
	queues []chan batchItem

	// node is the node log (nil for in-memory engines); disks is
	// node.disks, the per-shard durable state.
	node  *nodeLog
	disks []*shardDisk
	// cats is the per-shard series catalog (Catalog).
	cats []catalog
	// bsets is the per-shard published block view (always empty on an
	// in-memory engine); workers mutate, readers capture under its read
	// lock.
	bsets       []*blockSet
	blockPolicy BlockPolicy
	snapEvery   int
	// dropped counts rows discarded un-applied because their node-log
	// append failed (each also fails its caller's error slot), surfaced
	// in Stats.
	dropped atomic.Uint64

	// groupRows is the node-log commit-group size distribution (nil
	// when the engine is uninstrumented).
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
// shard's part of a caller batch; idx maps them back to the caller's
// indices inside errs. done, when set, is signalled after the rows are
// applied. stages, when set, receives the store-apply wait the
// originating request experienced (see AppendBatchNote). seq is the
// node-log record the part came from and jrows the node's journaled-row
// count through it (both 0 on an in-memory engine).
type batchItem struct {
	rows   []Row
	idx    []int
	errs   []error
	done   *sync.WaitGroup
	stages *obs.Stages
	seq    uint64
	jrows  int64
	// op, when set, is a queued shard operation (reset, compaction,
	// restore, publish): everything queued before it applies first,
	// everything after it applies to the shard it left.
	op *shardOp
}

// shardOp is one operation routed through a shard's worker so it runs
// with single-writer semantics against the store and blocks.
type shardOp struct {
	kind opKind
	dir  string // opRestore: the archived shard directory
	rows int    // opRestore: head rows loaded, set before done is sent
	done chan error
}

type opKind int

const (
	opReset opKind = iota
	opCompact
	opRestore
	opPublish
)

// ErrNotDurable refuses what only a durable engine can do: compact,
// hold blocks, archive a shard.
var ErrNotDurable = errors.New("tsdb: compaction, block files and shard archives require a durable engine")

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
// snapshot and the node log when Options.Dir enables durability, and starts
// the append workers.
func OpenSharded(opts ShardedOptions) (*Sharded, error) {
	n := opts.Shards
	if n <= 0 {
		n = DefaultShards
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
		cats:      make([]catalog, n),
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
		s.queues[i] = make(chan batchItem, defaultQueueLen)
		s.bsets[i] = &blockSet{}
	}
	reg := opts.Metrics
	if reg != nil {
		s.groupRows = reg.Histogram("repro_tsdb_commit_group_rows",
			"Rows covered by one node-log commit group.", obs.CountBuckets, nil)
		reg.CounterFunc("repro_tsdb_dropped_rows_total",
			"Rows discarded un-applied after a node-log append failure.", nil,
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
		if err := s.openDurable(opts, reg); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s, nil
}

// registerDurableMetrics registers the durable engine's gauges: the
// node log's segments, and per shard its WAL depth, snapshot age and
// block files.
func (s *Sharded) registerDurableMetrics(reg *obs.Registry) {
	log := s.node.log
	reg.GaugeFunc("repro_tsdb_wal_segments", "Live segment files of the node log.", nil,
		func() float64 { return float64(log.Segments()) })
	for i, d := range s.disks {
		d.mx = newShardMetrics(reg, i)
		bs := s.bsets[i]
		shard := obs.Labels{"shard": strconv.Itoa(i)}
		reg.GaugeFunc("repro_tsdb_wal_pending_rows",
			"Rows the shard applied above its snapshot watermark (its WAL depth).",
			shard, func() float64 { return float64(d.sinceSnap.Load()) })
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
}

// worker drains one shard's append queue; it is the shard's only queued
// writer, so queued appends never contend with each other and ride the
// run-grouped batch path.
func (s *Sharded) worker(i int) {
	defer s.wg.Done()
	store, bs := s.shards[i], s.bsets[i]
	var disk *shardDisk
	if s.disks != nil {
		disk = s.disks[i]
	}
	for item := range s.queues[i] {
		if item.op != nil {
			s.runBarrier(i, store, disk, bs, item.op)
			continue
		}
		s.apply(i, store, disk, bs, item)
	}
}

// runBarrier executes an op on the shard worker. Reset, restore and
// publish run on any shard (publish is a no-op in memory); compaction
// needs its durable state. The shard generation bumps before
// the outcome is sent: the caller — and anyone it tells — can never
// observe a cached pre-op result after the op is acknowledged.
func (s *Sharded) runBarrier(i int, store *Store, disk *shardDisk, bs *blockSet, op *shardOp) {
	var err error
	switch {
	case op.kind == opReset:
		err = resetShard(store, disk, bs)
	case op.kind == opRestore:
		op.rows, err = s.restoreShard(i, store, disk, bs, op.dir)
	case disk == nil && op.kind == opPublish:
	case disk == nil:
		err = ErrNotDurable
	case op.kind == opCompact:
		err = s.compactShard(store, disk, bs)
	case op.kind == opPublish:
		err = publish(store, disk, bs, viewChange{next: bs.blocks})
	}
	if disk != nil {
		disk.forced.Store(false)
	}
	s.gens[i].Add(1)
	op.done <- err
}

// apply applies one shard part and acks it, in that order: on a durable
// engine it first commits the part's record to the node log, so the
// head never holds a row the log does not, and the store takes the part
// before its producer is unblocked. A failed commit fails the part's
// rows without applying them.
func (s *Sharded) apply(i int, store *Store, disk *shardDisk, bs *blockSet, it batchItem) {
	if len(it.rows) > 0 {
		if disk != nil {
			if err := s.node.commit(it.seq, false, nil); err != nil {
				s.drop(it.rows, it.idx, it.errs, err)
				it.done.Done()
				return
			}
		}
		var applyStart time.Time
		if it.stages != nil {
			applyStart = time.Now()
		}
		store.AppendBatch(it.rows)
		if it.stages != nil {
			it.stages.Observe("store-apply", time.Since(applyStart))
		}
		if disk != nil {
			disk.applied, disk.appliedRows = it.seq, it.jrows
			disk.sinceSnap.Add(int64(len(it.rows)))
		}
		// Generation bump before the ack: a producer unblocked by
		// done.Done() re-reading its own write can never match a cache
		// entry keyed to the pre-append generation.
		s.gens[i].Add(1)
	}
	if it.done != nil {
		it.done.Done()
	}
	if disk != nil && s.maybeSnapshot(store, disk, bs) {
		// A snapshot pass on a block-bearing shard IS the compaction
		// cycle — head rows moved into blocks, retention applied. Bump so
		// cached merged reads over the pre-compaction view expire.
		s.gens[i].Add(1)
	}
}

// drop fails rows the engine will never apply, their node-log record
// having failed, in their callers' error slots.
func (s *Sharded) drop(rows []Row, idx []int, errs []error, err error) {
	for _, j := range idx {
		errs[j] = err
	}
	s.dropped.Add(uint64(len(rows)))
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

// ShardMemo is ShardOf memoised for rows whose device names repeat, as
// the rows of one cluster ingest request do: a device is hashed once
// however its rows interleave. The zero ShardMemo is ready; one is not
// safe for concurrent use.
type ShardMemo struct {
	owners [1 << ownerBits]ownerEntry
}

// ownerBits sizes a ShardMemo (1<<ownerBits entries).
const ownerBits = 10

// ownerEntry memoises ShardOf(device, n). A memo may serve maps of
// every shard count, so n is part of the key; the zero entry (n = 0)
// matches none.
type ownerEntry struct {
	device   string
	n, shard int32
}

// ShardOf is ShardOf(device, n) through the memo. The slot comes from
// the address of the device string's bytes, as a series' does in the
// engine's partition (seriesSlot), and every hit is confirmed by string
// equality, so the memo can only answer what ShardOf would.
func (m *ShardMemo) ShardOf(device string, n int) int {
	p := uint64(uintptr(unsafe.Pointer(unsafe.StringData(device))))
	e := &m.owners[(p*0x9E3779B97F4A7C15)>>(64-ownerBits)]
	if int(e.n) != n || e.device != device {
		*e = ownerEntry{device: device, n: int32(n), shard: int32(ShardOf(device, n))}
	}
	return int(e.shard)
}

// ShardDir reports shard i's on-disk directory ("" on an in-memory
// engine).
func (s *Sharded) ShardDir(i int) string {
	if s.disks == nil || i < 0 || i >= len(s.disks) {
		return ""
	}
	return s.disks[i].dir
}

// SyncShard waits for everything queued on shard i to be applied — so
// for every append whose call returned — then publishes the shard: its
// directory then holds a snapshot of the head and its blocks, and
// nothing of it lives only in the node log. A frozen shard synced this
// way can be archived byte-for-byte.
func (s *Sharded) SyncShard(i int) error {
	return s.enqueueOp(i, &shardOp{kind: opPublish})
}

// ResetShard empties shard i through its worker queue: appends queued
// on the shard before the call apply first, the shard is then wiped
// (store and, on a durable engine, blocks, with an empty snapshot), and
// appends queued after land in the emptied shard. The handoff protocol
// resets the source copy after ownership flips.
func (s *Sharded) ResetShard(i int) error {
	return s.enqueueOp(i, &shardOp{kind: opReset})
}

// ShardStatus is a point-in-time operational description of one shard,
// the unit `districtctl cluster status` reports per node.
type ShardStatus struct {
	Shard      int   `json:"shard"`
	Series     int   `json:"series"`
	Samples    int   `json:"samples"`
	WALPending int64 `json:"wal_pending_rows"`
	// WALSegments counts the node log's segments, which every shard of
	// the engine shares.
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
	// DiskBytes sums the shard directory's files: snapshots, blocks and,
	// on a node of the per-shard layout, its own log.
	DiskBytes int64 `json:"disk_bytes,omitempty"`
}

// ShardStatus snapshots one shard's live counters (zero durable fields
// on an in-memory engine). Series and Samples merge the head with the
// block files.
func (s *Sharded) ShardStatus(i int) ShardStatus {
	out := ShardStatus{Shard: i, Series: len(s.Catalog(i)), Samples: s.shards[i].Stats().Samples,
		HeadBytes: s.shards[i].headBytes()}
	if s.disks != nil {
		d := s.disks[i]
		out.WALPending = d.sinceSnap.Load()
		out.WALSegments = s.node.log.Segments()
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
	if out.Dir != "" {
		out.DiskBytes = dirBytes(out.Dir)
	}
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
// per-shard counts, each row's series run, one flat row/index backing
// sliced into per-shard windows, the caller-aligned error slots and the
// series memo. Waves recycle it through scratchPool, so a steady-state
// ingest stream repartitions in place instead of re-allocating per
// batch, and finds its series in a memo earlier waves filled.
type partitionScratch struct {
	counts []int
	runOf  []int32
	runs   []seriesRun
	rows   []Row
	idx    []int
	per    [][]Row
	peridx [][]int
	errs   []error
	series [1 << seriesBits]seriesEntry
	wave   uint32
	item   journalItem
	rec    []byte
}

// seriesRun is one series' rows in a wave: its shard, how many rows it
// has, and, once the wave is laid out, where its next row goes in the
// flat backing.
type seriesRun struct{ shard, rows, at int32 }

// seriesBits sizes partitionScratch's series memo (1<<seriesBits
// entries).
const seriesBits = 10

// seriesEntry memoises a series' shard, ShardOf(key.Device, n), and
// names its run in the wave stamped wave. The pool is shared by engines
// of every shard count, so n is part of the key; the zero entry (n = 0)
// matches no engine, and the zero stamp no wave.
type seriesEntry struct {
	key      SeriesKey
	n, shard int32
	wave     uint32
	run      int32
}

var scratchPool = sync.Pool{New: func() any { return new(partitionScratch) }}

// seriesSlot is key's slot in the series memo: the addresses of its
// strings' bytes, Fibonacci-hashed. The ingest decoder interns device
// and quantity names, so every row of a series shares both addresses
// and finds its slot with two multiplies. An equal key at other
// addresses is just another key that fills its own slot; every hit is
// confirmed by string equality, so the memo can only answer what
// ShardOf would.
func seriesSlot(key SeriesKey) int {
	d := uint64(uintptr(unsafe.Pointer(unsafe.StringData(key.Device))))
	q := uint64(uintptr(unsafe.Pointer(unsafe.StringData(key.Quantity))))
	return int(((d*0x9E3779B97F4A7C15 + q) * 0x9E3779B97F4A7C15) >> (64 - seriesBits))
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
// original index (so per-row errors line up), and orders each shard's
// sub-batch by series: a series' rows keep their arrival order, equal
// timestamps included, and the series follow in the order their first
// rows arrived. The store then resolves and locks a series once per
// run, and the node log writes its key once per run (encodeRows).
//
// A counting pass finds each row's shard and series run through the
// series memo, so a series is hashed once however its rows interleave,
// and not again while the memo keeps it. A series that loses its slot
// to another mid-wave only starts a second run behind its first, which
// keeps its order. The same pass refuses a row whose At the store
// cannot keep (ErrTimeRange in its errs slot): it joins no sub-batch,
// so it is never journaled. The pass sizes every sub-batch exactly — no
// growth reallocations on the ingest hot path — and the sub-batches are
// windows over one flat copy owned by sc: callers may reuse their input
// immediately, and the whole wave recycles as one unit once every
// worker is done with it.
//
// districtlint:hotpath
func (s *Sharded) partition(sc *partitionScratch, rows []Row, errs []error) (per [][]Row, idx [][]int) {
	n := len(s.shards)
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
		sc.per = make([][]Row, n)
		sc.peridx = make([][]int, n)
	}
	counts := sc.counts[:n]
	clear(counts)
	if cap(sc.runOf) < len(rows) {
		sc.runOf = make([]int32, len(rows))
		sc.runs = make([]seriesRun, 0, len(rows))
	}
	runOf, runs := sc.runOf[:len(rows)], sc.runs[:0]
	if sc.wave++; sc.wave == 0 {
		clear(sc.series[:]) // a wrapped stamp must not revive a run it once named
		sc.wave = 1
	}
	for i := range rows {
		key := rows[i].Key
		if !Storable(rows[i].Sample.At) {
			errs[i] = ErrTimeRange
			runOf[i] = -1
			continue
		}
		e := &sc.series[seriesSlot(key)]
		if int(e.n) != n || e.key != key {
			*e = seriesEntry{key: key, n: int32(n), shard: int32(ShardOf(key.Device, n))}
		}
		if e.wave != sc.wave {
			e.wave, e.run = sc.wave, int32(len(runs))
			runs = append(runs, seriesRun{shard: e.shard})
		}
		runs[e.run].rows++
		counts[e.shard]++
		runOf[i] = e.run
	}
	if cap(sc.rows) < len(rows) {
		sc.rows = make([]Row, len(rows))
		sc.idx = make([]int, len(rows))
	}
	flat, flatIdx := sc.rows, sc.idx
	// Lay the shard windows out back to back, then the runs of each
	// shard inside its window in run order; counts turns into each
	// window's fill cursor.
	per, idx = sc.per[:n], sc.peridx[:n]
	sum := 0
	for sh, c := range counts {
		per[sh], idx[sh] = nil, nil
		if c > 0 {
			per[sh], idx[sh] = flat[sum:sum+c:sum+c], flatIdx[sum:sum+c:sum+c]
		}
		counts[sh] = sum
		sum += c
	}
	for j := range runs {
		r := &runs[j]
		r.at = int32(counts[r.shard])
		counts[r.shard] += int(r.rows)
	}
	for i := range rows {
		if j := runOf[i]; j >= 0 {
			r := &runs[j]
			flat[r.at], flatIdx[r.at] = rows[i], i
			r.at++
		}
	}
	sc.runs = runs
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
// parallel through the per-shard append queues, waiting for all of them;
// a durable engine journals them first, as one node-log record. The
// returned slice is aligned with rows (nil when every row landed); each
// worker writes only its own rows' slots, so no locking is needed
// around the shared slice. A row whose At lies outside the store's time
// range (1677-09-21T01:00:00Z … 2262-04-11T23:47:16.854775807Z; see
// Storable) fails with ErrTimeRange and is neither journaled nor
// applied.
func (s *Sharded) AppendBatch(rows []Row) []error {
	errs, _ := s.AppendBatchNote(rows, nil, nil)
	return errs
}

// AppendBatchNote is AppendBatch with per-request stage attribution
// and a caller note. It records into st (nil-safe) the wal-append wait
// (its record's commit), and the shard workers the store-apply waits
// the batch experienced; with the batch split over several shards the
// store-apply stages accumulate across them — the totals then read as
// work done on the request's behalf, not wall-clock. A durable engine
// journals note (nil: none) in the rows' record, so it recovers the
// note exactly when it recovers the rows (Notes); a note with no rows
// rides a record of its own. It returns the record's seq: 0 on an
// in-memory engine, which keeps no note, and when nothing was
// journaled.
func (s *Sharded) AppendBatchNote(rows []Row, st *obs.Stages, note []byte) ([]error, uint64) {
	if s.node == nil {
		note = nil
	}
	if len(rows) == 0 && note == nil {
		return nil, 0
	}
	sc := scratchPool.Get().(*partitionScratch)
	errs := sc.errSlots(len(rows))
	per, idx := s.partition(sc, rows, errs)
	var done sync.WaitGroup
	it := &sc.item
	*it = journalItem{per: per, idx: idx, errs: errs, done: &done, stages: st}
	journal := note != nil
	for _, part := range per {
		journal = journal || len(part) > 0
	}
	if journal = journal && s.node != nil; journal {
		sc.rec = appendRecord(sc.rec[:0], note, per)
		it.rec = sc.rec
	}

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		for i := range errs {
			errs[i] = ErrClosed
		}
		*it = journalItem{}
		sc.errs = nil // the slice escapes to the caller
		scratchPool.Put(sc)
		return errs, 0
	}
	done.Add(1)
	if journal {
		s.stage(it)
	} else {
		s.dispatch(it)
	}
	s.mu.RUnlock()
	// The producer writes its record while the shards work through what
	// is queued ahead of its parts; a failure fails the parts' rows there.
	seq := it.seq
	if seq != 0 && s.node.commit(seq, true, st) != nil {
		seq = 0
	}
	done.Wait()
	// Every worker has acked: the row windows are dead, the scratch can
	// carry the next wave. The error slice only escapes on failure.
	*it = journalItem{}
	if cap(sc.rec) > maxRetainedRecordBytes {
		sc.rec = nil // one outsized batch must not pin its buffer in the pool
	}
	for _, err := range errs {
		if err != nil {
			sc.errs = nil
			scratchPool.Put(sc)
			return errs, seq
		}
	}
	scratchPool.Put(sc)
	return nil, seq
}

// Stats sums the shard counters. Samples counts head and block samples
// together, so it is invariant across compaction (and across retention
// demotion — demoted series keep contributing their index counts).
func (s *Sharded) Stats() Stats {
	var st Stats
	st.Shards = len(s.shards)
	st.DroppedRows = s.dropped.Load()
	for i, sh := range s.shards {
		st.Series += len(s.Catalog(i))
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

// CompactShard forces one compaction cycle on shard i through its
// worker queue: cut head rows past the head window into a block, apply
// retention, snapshot, truncate the node log. Requires a durable engine.
func (s *Sharded) CompactShard(i int) error {
	return s.enqueueOp(i, &shardOp{kind: opCompact})
}

// CompactAll forces a compaction cycle on every shard. Every shard's
// cycle is queued before any is waited on, so the shard workers compact
// concurrently; a shard that fails does not stop the others, and the
// joined error names the failed shards in shard order.
func (s *Sharded) CompactAll() error {
	ops := make([]*shardOp, len(s.shards))
	queued := make([]error, len(s.shards))
	for i := range ops {
		ops[i] = &shardOp{kind: opCompact}
		queued[i] = s.startOp(i, ops[i])
	}
	var err error
	for i, op := range ops {
		cerr := queued[i]
		if cerr == nil {
			cerr = <-op.done
		}
		if cerr != nil {
			err = errors.Join(err, fmt.Errorf("shard %d: %w", i, cerr))
		}
	}
	return err
}

// enqueueOp routes an op through shard i's worker and waits for its
// outcome.
func (s *Sharded) enqueueOp(i int, op *shardOp) error {
	if err := s.startOp(i, op); err != nil {
		return err
	}
	return <-op.done
}

// startOp queues an op on shard i's worker; its outcome arrives on
// op.done unless startOp fails.
func (s *Sharded) startOp(i int, op *shardOp) error {
	op.done = make(chan error, 1)
	return s.enqueue(i, batchItem{op: op})
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
// closes the node log and the block files.
// Subsequent writes fail with ErrClosed. It satisfies the void Engine
// interface; a log close failure (the final segment flush may not have
// reached disk) is logged — use CloseErr to receive it instead.
func (s *Sharded) Close() {
	if err := s.CloseErr(); err != nil {
		slog.Error("close", "service", "tsdb", "err", err)
	}
}

// CloseErr is Close returning the node log's close error joined with
// the block files': the last word on whether every journaled batch
// reached disk.
func (s *Sharded) CloseErr() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	// Nothing can send once closed is set.
	for _, q := range s.queues {
		close(q)
	}
	s.wg.Wait()
	var err error
	if s.node != nil {
		if cerr := s.node.log.Close(); cerr != nil {
			err = fmt.Errorf("node log: %w", cerr)
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
