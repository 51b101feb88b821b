package tsdb

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// The read path of every shard. Every read captures a consistent view —
// retained references to the overlapping blocks, and the head's points
// or summary read under the same view — under the blockSet read lock,
// then does the block decoding after the unlock against the retained
// immutable files. Compaction's publish+evict runs under the write
// lock, so a reader sees the cut rows exactly once: in the head before
// the swap, in the block after it. An in-memory engine's block sets stay
// empty, so its reads are head reads through the same code.

// readScratch is the scratch one read borrows: the blocks it captured;
// for a scan, their walks and the head's copied points; for a fold, the
// point arena the buckets a window boundary cuts decode into and the 1m
// rollup buffer. A request touching many series reuses one scratch per
// read instead of re-growing these. Nothing handed back may alias it.
type readScratch struct {
	blks []*block.Block
	srcs []block.SeriesIter
	head []block.Point
	pts  []block.Point
	bks  []block.Bucket
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

func getReadScratch() *readScratch { return readScratchPool.Get().(*readScratch) }

func (rs *readScratch) release() {
	rs.reset()
	readScratchPool.Put(rs)
}

func (rs *readScratch) reset() {
	clear(rs.blks)
	rs.blks = rs.blks[:0]
	clear(rs.srcs)
	rs.srcs = rs.srcs[:0]
	rs.head = rs.head[:0]
	rs.pts = rs.pts[:0]
	rs.bks = rs.bks[:0]
}

// blocksFor appends to out retained references to the shard's blocks
// that contain key and overlap [fromN, toN], in cut order. Callers must
// Release every appended block. Head reads that must be consistent with
// the returned view are performed by the capture callback, still under
// the read lock.
func (bs *blockSet) blocksFor(out []*block.Block, key block.Key, fromN, toN int64, capture func()) []*block.Block {
	bs.mu.RLock()
	for _, b := range bs.blocks {
		if b.MaxT() < fromN || b.MinT() > toN {
			continue
		}
		if _, ok := b.Meta(key); ok {
			b.Retain()
			out = append(out, b)
		}
	}
	capture()
	bs.mu.RUnlock()
	return out
}

func releaseAll(blks []*block.Block) {
	for _, b := range blks {
		_ = b.Release()
	}
}

// countRead attributes one merged read to the head or the block path.
func (s *Sharded) countRead(usedBlocks bool) {
	if usedBlocks {
		s.blockReads.Add(1)
	} else {
		s.headReads.Add(1)
	}
}

// keyInAnyBlock reports whether any published block of the set carries
// the key (range-independent existence check).
func (s *Sharded) keyInAnyBlock(bs *blockSet, key block.Key) bool {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	for _, b := range bs.blocks {
		if _, ok := b.Meta(key); ok {
			return true
		}
	}
	return false
}

// Latest returns the newest sample across head and blocks. The head
// normally wins (blocks hold strictly older rows), but an out-of-order
// arrival after a cut can leave the head older than a block's index
// tail, so both are consulted.
func (s *Sharded) Latest(key SeriesKey) (Sample, error) {
	store, bs := s.owner(key.Device)
	var head Sample
	var headErr error
	var best Sample
	haveBlock := false
	bs.mu.RLock()
	head, headErr = store.Latest(key)
	for _, b := range bs.blocks {
		if m, ok := b.Meta(bk(key)); ok {
			smp := sampleAt(m.LastT, m.LastV)
			if !haveBlock || !smp.At.Before(best.At) {
				best, haveBlock = smp, true
			}
		}
	}
	bs.mu.RUnlock()
	s.countRead(haveBlock && (headErr != nil || head.At.Before(best.At)))
	if headErr == nil && (!haveBlock || !head.At.Before(best.At)) {
		return head, nil
	}
	if haveBlock {
		return best, nil
	}
	return Sample{}, headErr
}

// Len counts stored samples across head and blocks. Demoted series keep
// contributing their index counts — sample accounting stays invariant
// across compaction and retention demotion (only rollup deletion
// shrinks it).
func (s *Sharded) Len(key SeriesKey) int {
	store, bs := s.owner(key.Device)
	n := store.Len(key)
	bs.mu.RLock()
	for _, b := range bs.blocks {
		if m, ok := b.Meta(bk(key)); ok {
			n += int(m.Count)
		}
	}
	bs.mu.RUnlock()
	return n
}

// catalog caches one shard's series catalog: every series the shard
// holds in its head or in a block index, sorted by CompareKeys, as an
// immutable snapshot tagged with the head's series-set version it was
// built at. Writers only bump that version; the first reader that sees
// it moved rebuilds the snapshot, so appends to existing series, the
// ingest hot path, never touch it.
type catalog struct {
	mu   sync.Mutex // serialises rebuilds
	snap atomic.Pointer[catalogSnap]
}

type catalogSnap struct {
	ver  uint64
	keys []SeriesKey
}

// Catalog returns shard i's series catalog: the keys of every series
// the shard holds in its head or in a block index, sorted by
// CompareKeys. The slice is a shared immutable snapshot; callers must
// not modify it. A mutation's series are listed once its call returns.
func (s *Sharded) Catalog(i int) []SeriesKey {
	store, c := s.shards[i], &s.cats[i]
	if snap := c.snap.Load(); snap != nil && snap.ver == store.ver.Load() {
		return snap.keys
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Load the version before reading the series: every mutation bumps
	// it after its change, so the snapshot holds at least that version's
	// series, and a mutation racing the build bumps past the tag.
	ver := store.ver.Load()
	if snap := c.snap.Load(); snap != nil && snap.ver == ver {
		return snap.keys
	}
	bs := s.bsets[i]
	bs.mu.RLock()
	keys := store.keys()
	for _, b := range bs.blocks {
		for _, m := range b.Series() {
			keys = append(keys, SeriesKey(m.Key))
		}
	}
	bs.mu.RUnlock()
	slices.SortFunc(keys, CompareKeys)
	keys = slices.Clip(slices.Compact(keys))
	c.snap.Store(&catalogSnap{ver: ver, keys: keys})
	return keys
}

// DeviceRange returns the run of a sorted catalog whose devices start
// with prefix (the whole catalog for ""), found by binary search.
func DeviceRange(cat []SeriesKey, prefix string) []SeriesKey {
	lo := sort.Search(len(cat), func(i int) bool { return cat[i].Device >= prefix })
	n := sort.Search(len(cat)-lo, func(i int) bool { return !strings.HasPrefix(cat[lo+i].Device, prefix) })
	return cat[lo : lo+n]
}

// metaAggregate converts a block index entry's whole-series statistics
// into an Aggregate.
func metaAggregate(m block.SeriesMeta) Aggregate {
	return Aggregate{
		Count: int(m.Count),
		Min:   m.Min, Max: m.Max, Sum: m.Sum,
		First: sampleAt(m.FirstT, m.FirstV),
		Last:  sampleAt(m.LastT, m.LastV),
	}
}

// bucketAggregate converts a rollup bucket into an Aggregate.
func bucketAggregate(b *block.Bucket) Aggregate {
	return Aggregate{
		Count: int(b.Count),
		Min:   b.Min, Max: b.Max, Sum: b.Sum,
		First: sampleAt(b.FirstT, b.FirstV),
		Last:  sampleAt(b.LastT, b.LastV),
	}
}

// combine folds src into dst: counts/sums add, min/max widen, First is
// the earliest-timestamped (first folded wins ties), Last the latest
// (last folded wins ties — fold blocks in cut order, head last, to
// match raw-scan semantics).
func (a *Aggregate) combine(src Aggregate) {
	if src.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = src
		return
	}
	if src.Min < a.Min {
		a.Min = src.Min
	}
	if src.Max > a.Max {
		a.Max = src.Max
	}
	a.Sum += src.Sum
	a.Count += src.Count
	if src.First.At.Before(a.First.At) {
		a.First = src.First
	}
	if !src.Last.At.Before(a.Last.At) {
		a.Last = src.Last
	}
}

// windows is what one fold of a series' [fromN, toN] accumulates: a
// single aggregate of the whole range (width 0, Aggregate), or fixed
// windows of the given width aligned as time.Truncate aligns them, the
// first one starting no earlier than from (Downsample). Every source
// folds in time order, so the window last looked up is cached: lo and
// hi are its first and last in-range instants, start its Bucket.Start,
// and idx its index in out, or where it goes while found is false.
type windows struct {
	from       time.Time
	fromN, toN int64
	width      time.Duration
	one        Aggregate // the whole range, when width is 0
	out        []Bucket  // ascending Start, only the non-empty windows

	lo, hi int64
	start  time.Time
	idx    int
	found  bool
}

// newWindows starts a fold of [from, to] (a zero `to` means "now") into
// windows of width, 0 for one window over the whole range.
func newWindows(from, to time.Time, width time.Duration) (windows, error) {
	if to.IsZero() {
		to = time.Now()
	}
	if to.Before(from) {
		return windows{}, ErrBadInterval
	}
	return windows{from: from, fromN: nanos(from), toN: nanos(to), width: width, lo: 1}, nil
}

// window caches the window holding the in-range instant t and returns
// its last in-range instant.
func (w *windows) window(t int64) int64 {
	if w.width == 0 {
		return w.toN
	}
	if w.lo <= t && t <= w.hi {
		return w.hi
	}
	// A window may start before the store's range: nanos saturates the
	// start, and no stored instant precedes it anyway.
	st := time.Unix(0, t).UTC().Truncate(w.width)
	w.lo, w.hi = max(w.fromN, nanos(st)), w.toN
	if end := st.Add(w.width); !end.After(maxTime) {
		w.hi = min(w.toN, end.UnixNano()-1)
	}
	w.start = st
	if st.Before(w.from) {
		w.start = w.from.UTC()
	}
	n := len(w.out)
	w.idx = n // sources fold in time order: the window is usually new and last
	if n > 0 && !w.out[n-1].Start.Before(w.start) {
		w.idx = sort.Search(n, func(i int) bool { return !w.out[i].Start.Before(w.start) })
	}
	w.found = w.idx < n && w.out[w.idx].Start.Equal(w.start)
	return w.hi
}

// at returns the accumulator of the window holding the in-range
// instant t, adding the window to out if it is new.
func (w *windows) at(t int64) *Aggregate {
	if w.width == 0 {
		return &w.one
	}
	w.window(t)
	if !w.found {
		w.out = slices.Insert(w.out, w.idx, Bucket{Start: w.start})
		w.found = true
	}
	return &w.out[w.idx].Aggregate
}

// addRun folds a time-ordered run of in-range points, each window's
// share into a fresh partial: the window may already hold rows of an
// earlier source that overlap the run in time.
func (w *windows) addRun(run []block.Point) {
	for len(run) > 0 {
		n := firstAfter(run, w.window(run[0].T))
		var part Aggregate
		part.addRun(run[:n])
		w.at(run[0].T).combine(part)
		run = run[n:]
	}
}

// foldBlock folds the rows of key in b that lie in the range. A block
// inside the range and inside one window adds its index statistics.
// Otherwise the rollup buckets that overlap the range are walked: the
// cached 1h rollup of a raw block when every window is a whole number
// of hours, and the 1m tier otherwise; a demoted block reads the 1m
// tier for one window and the window's own tier for fixed windows. A
// bucket inside the range and inside one window folds whole. Of any
// other bucket a raw block decodes only the in-range points, split at
// window boundaries, and a demoted one folds the bucket whole into the
// window of its first in-range instant — the approximation raw
// retention buys.
func (w *windows) foldBlock(rs *readScratch, b *block.Block, key block.Key) error {
	m, _ := b.Meta(key)
	if w.fromN <= m.MinT && m.MaxT <= w.toN && m.MaxT <= w.window(m.MinT) {
		w.at(m.MinT).combine(metaAggregate(m))
		return nil
	}
	raw := m.HasRaw()
	var bks []block.Bucket
	var err error
	if w.width%time.Hour == 0 && (raw || w.width > 0) {
		bks, err = b.HourRollup(key)
	} else {
		rs.bks, err = b.AppendRollup(rs.bks[:0], key, block.Res1m)
		bks = rs.bks
	}
	if err != nil {
		return err
	}
	bks = bks[sort.Search(len(bks), func(i int) bool { return bks[i].LastT >= w.fromN }):]
	for i := 0; i < len(bks) && bks[i].FirstT <= w.toN; i++ {
		first := max(bks[i].FirstT, w.fromN)
		if !raw || w.whole(&bks[i]) {
			w.at(first).combine(bucketAggregate(&bks[i]))
			continue
		}
		// Decode it together with the next buckets that do not fold
		// whole either: every decode checks the chunk's CRC and rewinds
		// to a restart point.
		for i+1 < len(bks) && bks[i+1].FirstT <= w.toN && !w.whole(&bks[i+1]) {
			i++
		}
		if rs.pts, err = b.Points(rs.pts[:0], key, first, min(bks[i].LastT, w.toN)); err != nil {
			return err
		}
		w.addRun(rs.pts)
	}
	return nil
}

// whole reports whether rollup bucket rb lies inside the range and
// inside one window.
func (w *windows) whole(rb *block.Bucket) bool {
	return rb.FirstT >= w.fromN && rb.LastT <= w.window(rb.FirstT)
}

// fold folds a series' rows in the range of w, on the owning shard,
// into w. The view is captured as a scan's is, and the head folds into
// its own windows under the capture; the blocks then fold in cut order
// and the head's windows last, so First and Last resolve ties as a raw
// scan of the merged rows would. Each source answers from what it
// already summarizes — block index entries, rollup buckets, head
// segment summaries — and decodes only the rows a window boundary or
// the range cuts through.
func (s *Sharded) fold(key SeriesKey, w *windows) error {
	store, bs := s.owner(key.Device)
	rs := getReadScratch()
	defer rs.release()
	head := *w
	var inHead bool
	blks := bs.blocksFor(rs.blks, bk(key), w.fromN, w.toN, func() {
		inHead = store.fold(key, &head)
	})
	rs.blks = blks
	defer releaseAll(blks)
	s.countRead(len(blks) > 0)
	if !inHead && len(blks) == 0 && !s.keyInAnyBlock(bs, bk(key)) {
		return ErrNoSeries
	}
	if w.width > 0 {
		// Size out once: every window holds a row, and the range spans
		// a bounded number of windows.
		n := uint64(len(head.out))
		for _, b := range blks {
			m, _ := b.Meta(bk(key))
			n += uint64(m.Count)
		}
		if n = min(n, uint64(w.toN-w.fromN)/uint64(w.width)+2); n > 0 {
			w.out = make([]Bucket, 0, n)
		}
	}
	for _, b := range blks {
		if err := w.foldBlock(rs, b, bk(key)); err != nil {
			return err
		}
	}
	w.one.combine(head.one)
	for _, hb := range head.out {
		w.at(hb.First.At.UnixNano()).combine(hb.Aggregate)
	}
	return nil
}

// Aggregate summarizes [from, to] of a series over the owning shard's
// head and blocks: one fold with a single window, so the cost is
// O(segments + buckets + two edges), not O(samples), and it allocates
// nothing. Count, Min, Max, First and Last equal a raw scan of the same
// rows, except over a demoted block, whose boundary 1m buckets count
// whole; Sum (and so Mean) adds per-segment and per-bucket partial
// sums, so it may differ from a sequential scan in float association
// only.
func (s *Sharded) Aggregate(key SeriesKey, from, to time.Time) (Aggregate, error) {
	w, err := newWindows(from, to, 0)
	if err == nil {
		err = s.fold(key, &w)
	}
	if err != nil {
		return Aggregate{}, err
	}
	w.one.finish()
	return w.one, nil
}

// Downsample splits [from, to] into fixed windows of the given width,
// aligned as time.Truncate aligns them (the first starts no earlier
// than from), and aggregates each; empty windows are omitted. It is the
// same fold as Aggregate, with one window per width: rollup buckets
// that lie inside one window fold whole, so a month-range scan touches
// rollup frames, not raw chunks, and only the buckets a window
// boundary cuts are decoded.
func (s *Sharded) Downsample(key SeriesKey, from, to time.Time, window time.Duration) ([]Bucket, error) {
	if window <= 0 {
		return nil, fmt.Errorf("tsdb: non-positive window %v", window)
	}
	w, err := newWindows(from, to, window)
	if err == nil {
		err = s.fold(key, &w)
	}
	if err != nil {
		return nil, err
	}
	for i := range w.out {
		w.out[i].finish()
	}
	if len(w.out) == 0 {
		return nil, nil
	}
	return w.out, nil
}
