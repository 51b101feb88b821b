package tsdb

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/block"
)

// The read path of every shard. Every read captures a consistent view —
// the head's points or summary plus retained references to the
// overlapping blocks — under one blockSet read lock, then does the
// block decoding after the unlock against the retained immutable files.
// Compaction's publish+evict runs under the write lock, so a reader sees
// the cut rows exactly once: in the head before the swap, in the block
// after it. An in-memory engine's block sets stay empty, so its reads
// are head reads through the same code.

// maxCursorSkip caps the per-source overfetch a merged page performs to
// honour a cursor's same-timestamp skip count. It exceeds any plausible
// number of samples sharing one nanosecond timestamp (and the default
// per-series head bound), so the cap is theoretical; a series with more
// duplicates at a single instant than this could repeat samples across
// a page boundary.
const maxCursorSkip = 1 << 17

// readScratch is the scratch one merged read borrows: the blocks it
// captured, the head's copied points, the point arena the blocks decode
// into (each page-merge source is a view of it; a fold decodes the
// buckets a window boundary cuts into it), the 1m rollup-decode buffer,
// the per-source views of a page merge, and the merged points. A
// request touching many series (a batch query fanning over selectors)
// reuses one scratch per merged call instead of re-growing these for
// every series. Nothing handed back to callers may alias the scratch —
// a page's Samples are built from it before release.
type readScratch struct {
	blks   []*block.Block
	head   []block.Point
	pts    []block.Point
	bks    []block.Bucket
	srcs   [][]block.Point
	merged []block.Point
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

func getReadScratch() *readScratch { return readScratchPool.Get().(*readScratch) }

func (rs *readScratch) release() {
	clear(rs.blks)
	rs.blks = rs.blks[:0]
	clear(rs.srcs)
	rs.srcs = rs.srcs[:0]
	rs.head = rs.head[:0]
	rs.pts = rs.pts[:0]
	rs.bks = rs.bks[:0]
	rs.merged = rs.merged[:0]
	readScratchPool.Put(rs)
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
	if capture != nil {
		capture()
	}
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

// QueryPage returns one bounded page of the samples of a series with At
// in [from, to], resuming after cur, from the owning shard's head and
// blocks. A zero `to` means "now"; limit <= 0 means DefaultPageLimit.
// Each source yields at most limit+skip+1 points: the head copies its
// points, each block decodes into one pooled arena. A k-way merge
// orders them by (timestamp, source), blocks in cut order before the
// head, and the cursor's same-timestamp skip applies to the merged
// points; Samples are built for the returned page only. If the page
// fits in the limit every source was exhausted, so More is exact, never
// a guess. A series lives in exactly one shard, so the value-based
// cursor is a per-shard resume position and stays valid across pages
// while the store mutates — including a compaction moving samples from
// the head into a block mid-walk, since the cursor is a timestamp, not
// an offset.
func (s *Sharded) QueryPage(key SeriesKey, from, to time.Time, cur Cursor, limit int) (Page, error) {
	store, bs := s.owner(key.Device)
	if to.IsZero() {
		to = time.Now()
	}
	if to.Before(from) {
		return Page{}, ErrBadInterval
	}
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	// Resume position: scan from the cursor timestamp (skipping the
	// samples at that exact timestamp already returned) or from `from`.
	start, skip := from, 0
	if !cur.zero() && !cur.After.Before(from) {
		start, skip = cur.After, cur.Seen
	}
	if start.After(to) {
		return Page{}, nil
	}
	seen := skip // samples at start that earlier pages returned
	need := limit + min(skip, maxCursorSkip) + 1

	rs := getReadScratch()
	defer rs.release()
	var inHead bool
	startN, toN := nanos(start), nanos(to)
	blks := bs.blocksFor(rs.blks, bk(key), startN, toN, func() {
		rs.head, inHead = store.appendPoints(rs.head[:0], key, startN, toN, need)
	})
	rs.blks = blks
	defer releaseAll(blks)
	s.countRead(len(blks) > 0)
	if !inHead && len(blks) == 0 {
		if s.keyInAnyBlock(bs, bk(key)) {
			return Page{}, nil // series exists, nothing in range
		}
		return Page{}, ErrNoSeries
	}

	// Sources in merge order: blocks in cut order, then the head. A
	// source is capped when it yielded all it was allowed to.
	capped := len(rs.head) >= need
	for _, b := range blks {
		base := len(rs.pts)
		var err error
		rs.pts, err = b.PointsLimit(rs.pts, bk(key), startN, toN, need)
		if err != nil {
			if errors.Is(err, block.ErrRawDemoted) {
				continue // raw data retired by retention; nothing to page
			}
			return Page{}, err
		}
		if n := len(rs.pts) - base; n > 0 {
			// Full slice expression: later arena appends must not stomp
			// this source's tail.
			rs.srcs = append(rs.srcs, rs.pts[base:len(rs.pts):len(rs.pts)])
			capped = capped || n >= need
		}
	}
	rs.srcs = append(rs.srcs, rs.head)
	rs.merged = mergePoints(rs.merged[:0], rs.srcs, need)

	var page Page
	page.Samples = make([]Sample, 0, min(limit, len(rs.merged)))
	var lastT int64
	run := 0 // page samples at lastT, the last one's timestamp
	for _, p := range rs.merged {
		// Only samples at the exact cursor timestamp are skipped: if
		// some were evicted meanwhile, later samples must not be
		// swallowed by a stale skip count.
		if skip > 0 && p.T == startN {
			skip--
			continue
		}
		if len(page.Samples) == limit {
			page.More = true
			break
		}
		if run == 0 || p.T != lastT {
			lastT, run = p.T, 0
		}
		run++
		page.Samples = append(page.Samples, sampleAt(p.T, p.V))
	}
	// A page that fits has More only if a capped source might hold
	// more. (With the limit+skip+1 bound a capped source forces an
	// overfull page, so this only decides the pathological over-skip
	// case; resume conservatively from the last sample.)
	page.More = page.More || capped
	if n := len(page.Samples); n > 0 && page.More {
		if lastT == startN {
			run += seen
		}
		page.Next = Cursor{After: page.Samples[n-1].At, Seen: run}
	}
	return page, nil
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

// mergePoints k-way merges ascending sources in (timestamp, source
// index) order into dst, stopping after max points. Equal timestamps
// keep source order, which matches the pre-compaction in-head order
// (the compactor cuts rows in stored order). The result is always
// backed by dst's array (or a growth of it), never by a source, so dst
// and the sources may all be pooled scratch.
func mergePoints(dst []block.Point, srcs [][]block.Point, max int) []block.Point {
	live := 0
	var only []block.Point
	for _, s := range srcs {
		if len(s) > 0 {
			live++
			only = s
		}
	}
	if live <= 1 {
		return append(dst, only[:min(len(only), max)]...)
	}
	idx := make([]int, len(srcs))
	for len(dst) < max {
		best := -1
		for si, s := range srcs {
			if idx[si] >= len(s) {
				continue
			}
			if best < 0 || s[idx[si]].T < srcs[best][idx[best]].T {
				best = si
			}
		}
		if best < 0 {
			break
		}
		dst = append(dst, srcs[best][idx[best]])
		idx[best]++
	}
	return dst
}

// Query materializes a full range query through the merged pager.
func (s *Sharded) Query(key SeriesKey, from, to time.Time) ([]Sample, error) {
	if to.IsZero() {
		to = time.Now()
	}
	if to.Before(from) {
		return nil, ErrBadInterval
	}
	it := s.Iter(key, from, to, 0)
	var out []Sample
	for {
		smp, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, smp)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Iter returns an iterator over the owning shard's head and blocks,
// paging through QueryPage.
func (s *Sharded) Iter(key SeriesKey, from, to time.Time, pageSize int) *Iterator {
	return IterPager(s, key, from, to, pageSize)
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

// ShardKeys lists the series of one shard, head and blocks merged (the
// scatter-gather planners fan over shards with it). A series whose rows
// have all been cut (or whose head entry was lost to a restart) still
// lists.
func (s *Sharded) ShardKeys(i int) []SeriesKey {
	return s.withBlockKeys(i, s.shards[i].Keys(), func(block.Key) bool { return true })
}

// KeysForDevice unions the owning shard's head and block series of one
// device (a device's series never straddle shards), sorted by quantity.
func (s *Sharded) KeysForDevice(device string) []SeriesKey {
	i := s.ShardFor(device)
	out := s.withBlockKeys(i, s.shards[i].KeysForDevice(device), func(k block.Key) bool { return k.Device == device })
	slices.SortFunc(out, func(a, b SeriesKey) int { return strings.Compare(a.Quantity, b.Quantity) })
	return out
}

// withBlockKeys unions shard i's head keys with the series of its block
// indexes that match accepts. A shard with no block published answers
// with the head's slice itself, without building the union map, and so
// does one whose blocks add no series.
func (s *Sharded) withBlockKeys(i int, head []SeriesKey, match func(block.Key) bool) []SeriesKey {
	bs := s.bsets[i]
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	if len(bs.blocks) == 0 {
		return head
	}
	seen := make(map[SeriesKey]struct{}, len(head))
	for _, k := range head {
		seen[k] = struct{}{}
	}
	for _, b := range bs.blocks {
		for _, m := range b.Series() {
			if match(m.Key) {
				seen[SeriesKey{Device: m.Key.Device, Quantity: m.Key.Quantity}] = struct{}{}
			}
		}
	}
	if len(seen) == len(head) {
		return head
	}
	out := make([]SeriesKey, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	return out
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
		if rs.pts, err = b.PointsLimit(rs.pts[:0], key, first, min(bks[i].LastT, w.toN), -1); err != nil {
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
// into w. The view is captured as a page's is, and the head folds into
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
