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
// into (each page-merge source is a view of it), the rollup-decode
// buffer, the per-source views of a page merge, and the merged points. A request touching many series (a batch query fanning over
// selectors) reuses one scratch per merged call instead of re-growing
// these for every series. Nothing handed back to callers may alias the
// scratch — a page's Samples are built from it before release.
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
func bucketAggregate(b block.Bucket) Aggregate {
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

// Aggregate summarizes [from, to] of a series over the owning shard's
// head+blocks from summaries, not samples: each source answers from what
// it already knows, so the cost is O(segments + buckets + two edges),
// not O(samples). A block wholly inside the range contributes its index
// statistics without touching sample data. A partially covered block
// with raw chunks is exact too (rawBlockAggregate: whole cached 1h
// rollup buckets plus two decoded edges). A demoted one folds whole 1m
// buckets — the documented boundary approximation raw retention buys.
// The head combines the summaries of its segments inside the range and
// folds only its boundary runs (Store.Aggregate). Count, Min, Max, First
// and Last equal a raw scan of the same rows; Sum (and so Mean) adds
// per-segment and per-bucket partial sums, so it may differ from a
// sequential scan in float association only.
func (s *Sharded) Aggregate(key SeriesKey, from, to time.Time) (Aggregate, error) {
	store, bs := s.owner(key.Device)
	if to.IsZero() {
		to = time.Now()
	}
	if to.Before(from) {
		return Aggregate{}, ErrBadInterval
	}
	fromN, toN := nanos(from), nanos(to)

	rs := getReadScratch()
	defer rs.release()
	var headAgg Aggregate
	var headErr error
	blks := bs.blocksFor(rs.blks, bk(key), fromN, toN, func() {
		headAgg, headErr = store.Aggregate(key, from, to)
	})
	rs.blks = blks
	defer releaseAll(blks)
	s.countRead(len(blks) > 0)
	if headErr != nil && !errors.Is(headErr, ErrNoSeries) {
		return Aggregate{}, headErr
	}
	if errors.Is(headErr, ErrNoSeries) && len(blks) == 0 && !s.keyInAnyBlock(bs, bk(key)) {
		return Aggregate{}, ErrNoSeries
	}

	var agg Aggregate
	for _, b := range blks {
		m, _ := b.Meta(bk(key))
		switch {
		case fromN <= m.MinT && m.MaxT <= toN:
			agg.combine(metaAggregate(m))
		case m.HasRaw():
			part, err := rawBlockAggregate(rs, b, m, fromN, toN)
			if err != nil {
				return Aggregate{}, err
			}
			agg.combine(part)
		default:
			// Demoted: fold every 1m bucket whose samples intersect the
			// range. Boundary buckets are included whole — the
			// approximation raw retention buys.
			var err error
			if rs.bks, err = b.AppendRollup(rs.bks[:0], bk(key), block.Res1m); err != nil {
				return Aggregate{}, err
			}
			var part Aggregate
			for _, rb := range rs.bks {
				if rb.LastT < fromN || rb.FirstT > toN {
					continue
				}
				part.combine(bucketAggregate(rb))
			}
			agg.combine(part)
		}
	}
	agg.combine(headAgg)
	agg.finish()
	return agg, nil
}

// rawBlockAggregate folds the samples of series m in b with fromN <= T
// <= toN, for a block the range covers only in part. Every 1h rollup
// bucket whose samples all lie inside the range is folded whole from the
// block's cached rollup (block.HourRollup); only the two edges are
// decoded: the left one from the chunk's last restart point before
// `from` (see block.PointsLimit) to the first whole hour, the right one
// from the hour after the last whole bucket up to `to`. Each edge is at
// most an hour of samples, plus 128 passed before its start. (The 1h
// tier, not 1m: at minute cadence the 1m tier is as large as the chunk
// it would spare.) A range with no whole hour in it is one edge. Left
// edge, buckets, right edge: time order, so First/Last ties resolve as
// in a raw scan.
func rawBlockAggregate(rs *readScratch, b *block.Block, m block.SeriesMeta, fromN, toN int64) (Aggregate, error) {
	bks, err := b.HourRollup(m.Key)
	if err != nil {
		return Aggregate{}, err
	}
	lo := sort.Search(len(bks), func(i int) bool { return bks[i].FirstT >= fromN })
	hi := sort.Search(len(bks), func(i int) bool { return bks[i].LastT > toN })
	var agg Aggregate
	if lo >= hi {
		err := foldPoints(rs, b, m.Key, fromN, toN, &agg)
		return agg, err
	}
	// What precedes the first whole bucket sits in bucket lo-1, what
	// follows the last in bucket hi.
	if lo > 0 && bks[lo-1].LastT >= fromN {
		if err := foldPoints(rs, b, m.Key, fromN, bks[lo].Start-1, &agg); err != nil {
			return Aggregate{}, err
		}
	}
	for _, rb := range bks[lo:hi] {
		agg.combine(bucketAggregate(rb))
	}
	if hi < len(bks) && bks[hi].FirstT <= toN {
		if err := foldPoints(rs, b, m.Key, bks[hi].Start, toN, &agg); err != nil {
			return Aggregate{}, err
		}
	}
	return agg, nil
}

// foldPoints decodes key's raw points in [mint, maxt] into rs.pts and
// folds them into agg.
func foldPoints(rs *readScratch, b *block.Block, key block.Key, mint, maxt int64, agg *Aggregate) error {
	var err error
	if rs.pts, err = b.PointsLimit(rs.pts[:0], key, mint, maxt, -1); err != nil {
		return err
	}
	agg.addRun(rs.pts)
	return nil
}

// Downsample splits [from, to) into fixed windows of the given width and
// aggregates each; empty windows are omitted. Windows that are whole
// multiples of a rollup resolution are served from precomputed 1m/1h
// buckets for the fully covered stretches — a month-range scan touches
// rollup frames, not raw chunks — with raw scans only at the window
// boundaries the rollup grid cannot split. Other window widths fall
// back to the exact merged raw walk.
//
// Alignment: rollup buckets start at unix-epoch multiples of their
// resolution, and time.Truncate windows do too (the zero-time offset is
// divisible by both 60s and 3600s), so when res divides window every
// rollup bucket lies wholly inside exactly one window.
func (s *Sharded) Downsample(key SeriesKey, from, to time.Time, window time.Duration) ([]Bucket, error) {
	if window <= 0 {
		return nil, fmt.Errorf("tsdb: non-positive window %v", window)
	}
	var res int64
	switch {
	case window%time.Hour == 0:
		res = block.Res1h
	case window%time.Minute == 0:
		res = block.Res1m
	default:
		// No rollup grid divides the window: exact merged raw walk.
		return downsampleIter(s.Iter(key, from, to, 0), from, window)
	}

	store, bs := s.owner(key.Device)
	if to.IsZero() {
		to = time.Now()
	}
	if to.Before(from) {
		return nil, ErrBadInterval
	}
	fromN, toN := nanos(from), nanos(to)

	// windows accumulates per-window aggregates, keyed by window start
	// (post from-clamp, matching downsampleIter's semantics) in Unix
	// seconds and nanoseconds: a window of a row near the store's first
	// instant can start before 1677-09-21T00:12:43Z, where UnixNano wraps.
	windows := make(map[windowStart]*Aggregate)
	fold := func(at time.Time, a Aggregate) {
		startT := at.Truncate(window)
		if startT.Before(from) {
			startT = from
		}
		k := windowStart{startT.Unix(), startT.Nanosecond()}
		w := windows[k]
		if w == nil {
			w = &Aggregate{}
			windows[k] = w
		}
		w.combine(a)
	}
	// foldEach folds raw points one by one (exact).
	foldEach := func(pts []block.Point) {
		for _, p := range pts {
			smp := sampleAt(p.T, p.V)
			var one Aggregate
			one.add(smp)
			fold(smp.At, one)
		}
	}

	rs := getReadScratch()
	defer rs.release()
	var inHead bool
	blks := bs.blocksFor(rs.blks, bk(key), fromN, toN, func() {
		// Copy the head's contribution while the view is locked (it is
		// bounded by the head window, so this stays small); an iterator
		// paging after the unlock could race a compaction and miss rows
		// mid-cut.
		rs.head, inHead = store.appendPoints(rs.head[:0], key, fromN, toN, -1)
	})
	rs.blks = blks
	defer releaseAll(blks)
	s.countRead(len(blks) > 0)

	for _, b := range blks {
		m, _ := b.Meta(bk(key))
		var err error
		if rs.bks, err = b.AppendRollup(rs.bks[:0], bk(key), res); err != nil {
			return nil, err
		}
		raw := m.HasRaw()
		for _, rb := range rs.bks {
			if rb.LastT < fromN || rb.FirstT > toN {
				continue
			}
			if rb.FirstT >= fromN && rb.LastT <= toN {
				// Bucket fully inside the range: fold it whole. res
				// divides window, so the bucket cannot straddle a
				// window boundary.
				fold(time.Unix(0, rb.Start).UTC(), bucketAggregate(rb))
				continue
			}
			// Boundary bucket. Exact when raw survives; whole-bucket
			// approximation once demoted.
			if !raw {
				fold(time.Unix(0, rb.Start).UTC(), bucketAggregate(rb))
				continue
			}
			lo, hi := rb.FirstT, rb.LastT
			if lo < fromN {
				lo = fromN
			}
			if hi > toN {
				hi = toN
			}
			if rs.pts, err = b.PointsLimit(rs.pts[:0], bk(key), lo, hi, -1); err != nil {
				return nil, err
			}
			foldEach(rs.pts)
		}
	}
	foldEach(rs.head)

	if len(windows) == 0 {
		if !inHead && !s.keyInAnyBlock(bs, bk(key)) {
			return nil, ErrNoSeries
		}
		return nil, nil
	}
	starts := make([]windowStart, 0, len(windows))
	for k := range windows {
		starts = append(starts, k)
	}
	sort.Slice(starts, func(a, b int) bool {
		return starts[a].sec < starts[b].sec || starts[a].sec == starts[b].sec && starts[a].nsec < starts[b].nsec
	})
	out := make([]Bucket, 0, len(starts))
	for _, k := range starts {
		a := windows[k]
		a.finish()
		out = append(out, Bucket{Start: time.Unix(k.sec, int64(k.nsec)).UTC(), Aggregate: *a})
	}
	return out, nil
}

// windowStart is a Downsample window's start instant.
type windowStart struct {
	sec  int64
	nsec int
}
