// Package tsdb is the time-series storage engine used at two points of the
// infrastructure: as the "local database" middle layer of every
// device-proxy (Fig. 1b of the paper) and as the backing store of the
// global measurements database service.
//
// The engine stores samples per series, where a series is identified by a
// (device URI, quantity) pair. Samples within a series are kept in
// append-mostly segments ordered by timestamp; out-of-order arrivals are
// tolerated and merged on read. An in-memory engine bounds each series
// by a sample count, matching the buffering role the proxy's local
// database plays in the paper; a durable engine keeps every acked row,
// its head bounded by the head window and older rows in columnar
// blocks. Reads scan a series' merged rows (Scan) or fold them into
// summaries: Aggregate and Downsample are one walk over block index
// statistics, rollup buckets and head segment summaries, decoding only
// the rows a range or window boundary cuts through.
package tsdb

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/block"
)

// SeriesKey identifies one time series.
type SeriesKey struct {
	Device   string
	Quantity string
}

// String renders the key in the device|quantity form used in logs.
func (k SeriesKey) String() string { return k.Device + "|" + k.Quantity }

// CompareKeys is the one order of series keys: by device, then by
// quantity. Shard catalogs, block files and every merged listing are
// sorted by it.
func CompareKeys(a, b SeriesKey) int {
	if c := strings.Compare(a.Device, b.Device); c != 0 {
		return c
	}
	return strings.Compare(a.Quantity, b.Quantity)
}

// Sample is one timestamped value.
type Sample struct {
	At    time.Time
	Value float64
}

// Errors returned by the engine.
var (
	ErrNoSeries    = errors.New("tsdb: series not found")
	ErrBadInterval = errors.New("tsdb: interval end before start")
	ErrClosed      = errors.New("tsdb: engine closed")
	// ErrTimeRange refuses a row whose At lies outside the store's time
	// range (minTime … maxTime): the store would keep, and replay, a
	// different instant.
	ErrTimeRange = errors.New("tsdb: timestamp outside 1677-09-21T01:00:00Z … 2262-04-11T23:47:16Z")
)

// Options configure a shard's head Store.
type Options struct {
	// MaxSamplesPerSeries bounds each series of an in-memory engine;
	// once exceeded the oldest samples are evicted. A durable engine
	// keeps every acked row: the head window bounds its head. Zero means
	// the engine default (65536).
	MaxSamplesPerSeries int
	// SegmentSize is the number of samples per internal segment. Zero
	// means the engine default (1024).
	SegmentSize int
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.MaxSamplesPerSeries <= 0 {
		out.MaxSamplesPerSeries = 65536
	}
	if out.SegmentSize <= 0 {
		out.SegmentSize = 1024
	}
	return out
}

// Store is one shard's in-memory head: a thread-safe multi-series
// sample store. Only the Sharded engine builds one; its worker is the
// head's single writer. The head answers ranges with plain points
// (appendPoints), summaries and key listings; the cursor and the merge
// with the shard's blocks are the scanner's alone.
//
// The head keeps what the WAL and the blocks keep: a Unix-nanosecond
// timestamp and a value per sample (block.Point, 16 bytes, no pointer),
// so the garbage collector never scans a segment and an append runs no
// write barrier. time.Time exists only at the Engine boundary: a row's
// At is converted once on the way in, and a read builds one per sample
// it returns (sampleAt, always UTC), so the head and the blocks answer
// alike.
type Store struct {
	opts Options

	// mu guards the series map; every append and query resolves its
	// series through it, so it must never cover disk or network time.
	mu     sync.RWMutex // districtlint:lockio
	series map[SeriesKey]*series
	// ver is the shard's series-set version: it bumps after a series
	// enters or leaves the map and, from publish, on every block view
	// swap, always before the mutation's caller is unblocked. The shard
	// catalog is rebuilt when it moves; an append to an existing series
	// leaves it alone.
	ver atomic.Uint64
}

// series holds the segments of one series. Segments are time-ordered
// relative to each other except for the spill segment, which absorbs
// out-of-order writes and is merged on read.
type series struct {
	// mu serializes one series' readers and writers; snapshot dumps
	// copy under it and do their file IO after the unlock.
	mu       sync.Mutex // districtlint:lockio
	segments []*segment
	spill    []block.Point // out-of-order arrivals, unsorted
	count    int
	lastT    int64 // newest ordered timestamp; math.MinInt64 when none
}

// segment is a bounded run of time-ordered samples and the fold of
// its first agg.Count samples. Appends leave agg behind, so the write
// path pays nothing for it; the next aggregate that covers the whole
// segment folds only what was appended since. A front trim resets it.
// The samples are pointer-free (16 bytes each), so a segment is one
// allocation the garbage collector never scans.
type segment struct {
	samples []block.Point
	agg     Aggregate // unfinished: Mean is not filled
}

// summary returns the fold of every sample of the segment. The caller
// holds the series lock.
func (seg *segment) summary() Aggregate {
	seg.agg.addRun(seg.samples[seg.agg.Count:])
	return seg.agg
}

// trimFront drops the segment's first n samples.
func (seg *segment) trimFront(n int) {
	seg.samples = seg.samples[n:]
	seg.agg = Aggregate{}
}

// newStore creates a head Store with the given options.
func newStore(opts Options) *Store {
	return &Store{opts: opts.withDefaults(), series: make(map[SeriesKey]*series)}
}

// getOrCreate resolves (creating on first write) the series of a key.
func (s *Store) getOrCreate(key SeriesKey) *series {
	s.mu.RLock()
	sr := s.series[key]
	s.mu.RUnlock()
	if sr == nil {
		s.mu.Lock()
		sr = s.series[key]
		if sr == nil {
			sr = &series{lastT: math.MinInt64}
			s.series[key] = sr
			s.ver.Add(1)
		}
		s.mu.Unlock()
	}
	return sr
}

// lookup resolves an existing series (nil when absent).
func (s *Store) lookup(key SeriesKey) *series {
	s.mu.RLock()
	sr := s.series[key]
	s.mu.RUnlock()
	return sr
}

// put stores one sample in a locked series: ordered tail append or
// out-of-order spill.
func (sr *series) put(p block.Point, segSize int) {
	if p.T >= sr.lastT {
		sr.appendOrdered(p, segSize)
		sr.lastT = p.T
	} else {
		sr.spill = append(sr.spill, p)
	}
	sr.count++
}

// appendRun stores a run of same-series rows (row keys are ignored;
// the run is stored under key) with one series resolution and one lock
// acquisition for the whole run. Eviction runs once after the run, so
// the per-series bound may transiently overshoot by at most the run
// length. Every row's At must lie in the storable range
// (Sharded.AppendBatch refuses the others before they are journaled).
func (s *Store) appendRun(key SeriesKey, rows []Row) {
	sr := s.getOrCreate(key)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for i := range rows {
		sr.put(block.Point{T: rows[i].Sample.At.UnixNano(), V: rows[i].Sample.Value}, s.opts.SegmentSize)
	}
	sr.evict(s.opts.MaxSamplesPerSeries, s.opts.SegmentSize)
}

func (sr *series) appendOrdered(p block.Point, segSize int) {
	n := len(sr.segments)
	if n == 0 || len(sr.segments[n-1].samples) >= segSize {
		sr.segments = append(sr.segments, &segment{samples: make([]block.Point, 0, segSize)})
		n++
	}
	seg := sr.segments[n-1]
	seg.samples = append(seg.samples, p)
}

// evict drops oldest samples until count <= max. The spill segment is
// folded in first when eviction is needed, so ordering is preserved.
func (sr *series) evict(max, segSize int) {
	if sr.count <= max {
		return
	}
	sr.foldSpill(segSize)
	excess := sr.count - max
	for excess > 0 && len(sr.segments) > 0 {
		head := sr.segments[0]
		if len(head.samples) <= excess {
			excess -= len(head.samples)
			sr.count -= len(head.samples)
			sr.segments = sr.segments[1:]
			continue
		}
		head.trimFront(excess)
		sr.count -= excess
		excess = 0
	}
}

// foldSpill merges a pending out-of-order spill into the ordered
// segments, rebuilding them into segments of segSize samples, so the
// segments hold every sample of the series in time order. Samples that
// share a timestamp keep their arrival order: the spill is sorted
// stably and merged behind the segment samples of equal T, which
// arrived first. A cursor counts the samples at its timestamp, so a
// fold that permuted them would make a walk repeat one and skip
// another. Cost O(n + s log s) for n stored and s spilled samples.
func (sr *series) foldSpill(segSize int) {
	if len(sr.spill) == 0 {
		return
	}
	spill := sr.spill
	slices.SortStableFunc(spill, func(a, b block.Point) int { return cmp.Compare(a.T, b.T) })
	old := sr.segments
	sr.segments, sr.spill = nil, nil
	for _, seg := range old {
		for _, p := range seg.samples {
			for len(spill) > 0 && spill[0].T < p.T {
				sr.appendOrdered(spill[0], segSize)
				spill = spill[1:]
			}
			sr.appendOrdered(p, segSize)
		}
	}
	for _, p := range spill {
		sr.appendOrdered(p, segSize)
	}
	last := sr.segments[len(sr.segments)-1]
	sr.lastT = last.samples[len(last.samples)-1].T
}

// The store's time range, both ends included. The WAL, the head and the
// blocks keep a timestamp as Unix nanoseconds in an int64, which names
// 1677-09-21T00:12:43.145224192Z … 2262-04-11T23:47:16.854775807Z; the
// range starts at the first whole hour of that, because a block's 1h
// rollup bucket starts on the hour at or before its samples and must be
// an int64 too. A row outside the range is refused (ErrTimeRange), and a
// read bound outside it saturates (nanos).
var (
	minTime = time.Date(1677, 9, 21, 1, 0, 0, 0, time.UTC)
	maxTime = time.Unix(0, math.MaxInt64)
)

// Storable reports whether t lies in the store's time range: a row at
// any other instant fails with ErrTimeRange.
func Storable(t time.Time) bool { return !t.Before(minTime) && !t.After(maxTime) }

// nanos converts a read bound to Unix nanoseconds, saturating outside
// the store's range: time.Time{} is math.MinInt64, not the instant
// t.UnixNano() would wrap it to. Nothing stored lies outside the range,
// so a saturated bound selects what the real one would.
func nanos(t time.Time) int64 {
	switch {
	case t.Before(minTime):
		return math.MinInt64
	case t.After(maxTime):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// sampleAt builds the Sample a read hands out for one stored point.
func sampleAt(t int64, v float64) Sample {
	return Sample{At: time.Unix(0, t).UTC(), Value: v}
}

// eachRun hands f, in time order, every segment holding samples with T
// in [from, to] together with the run of them, until f returns false;
// the run is the whole of seg.samples exactly when the segment lies
// inside the range. The runs alias the segments: f must not keep them
// past the series lock, which the caller holds after folding the spill.
// Segments are time-ordered, so the walk starts at the segment holding
// from, found by binary search over the segments' ends, and only
// boundary segments are searched inside: a walk costs O(log #segments
// + the segments f takes), not O(series length).
func (sr *series) eachRun(from, to int64, f func(seg *segment, run []block.Point) bool) {
	segs := sr.segments
	// An empty segment reads as ending after every bound: the search may
	// stop at one, never past a segment holding from.
	first := sort.Search(len(segs), func(i int) bool {
		n := len(segs[i].samples)
		return n == 0 || segs[i].samples[n-1].T >= from
	})
	for _, seg := range segs[first:] {
		n := len(seg.samples)
		if n == 0 || seg.samples[n-1].T < from {
			continue
		}
		if seg.samples[0].T > to {
			break
		}
		run := seg.samples
		if seg.samples[0].T < from || seg.samples[n-1].T > to {
			run = seg.samples[firstAtOrAfter(seg.samples, from):firstAfter(seg.samples, to)]
		}
		if !f(seg, run) {
			return
		}
	}
}

// firstAtOrAfter returns the index of the first of the time-ordered
// pts with T >= t (len(pts) when none).
func firstAtOrAfter(pts []block.Point, t int64) int {
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].T >= t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// firstAfter returns the index of the first of the time-ordered pts
// with T > t (len(pts) when none).
func firstAfter(pts []block.Point, t int64) int {
	if t == math.MaxInt64 {
		return len(pts)
	}
	return firstAtOrAfter(pts, t+1)
}

// Latest returns the most recent sample of a series.
func (s *Store) Latest(key SeriesKey) (Sample, error) {
	sr := s.lookup(key)
	if sr == nil {
		return Sample{}, ErrNoSeries
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.foldSpill(s.opts.SegmentSize)
	if len(sr.segments) == 0 {
		return Sample{}, ErrNoSeries
	}
	last := sr.segments[len(sr.segments)-1]
	p := last.samples[len(last.samples)-1]
	return sampleAt(p.T, p.V), nil
}

// Len reports the number of stored samples of a series (0 if absent).
func (s *Store) Len(key SeriesKey) int {
	sr := s.lookup(key)
	if sr == nil {
		return 0
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.count
}

// keys returns every head series key, in no particular order.
func (s *Store) keys() []SeriesKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SeriesKey, 0, len(s.series))
	for k := range s.series {
		out = append(out, k)
	}
	return out
}

// Aggregate summarizes a time range of a series.
type Aggregate struct {
	Count       int
	Min, Max    float64
	Sum, Mean   float64
	First, Last Sample
}

// fold folds the head's rows of key in the range of w into w, under
// the series lock, so they are one consistent cut of the series. A
// segment lying whole inside one window adds its summary; every other
// run is folded value by value, split at window boundaries, so an
// aggregate costs O(segments + two runs), not O(samples). It reports
// whether the head holds the series.
func (s *Store) fold(key SeriesKey, w *windows) bool {
	sr := s.lookup(key)
	if sr == nil {
		return false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.foldSpill(s.opts.SegmentSize)
	sr.eachRun(w.fromN, w.toN, func(seg *segment, run []block.Point) bool {
		if len(run) == len(seg.samples) && run[len(run)-1].T <= w.window(run[0].T) {
			w.at(run[0].T).combine(seg.summary())
		} else {
			w.addRun(run)
		}
		return true
	})
	return true
}

// addRun folds a time-ordered run that follows everything folded so far
// — exactly as add over each of its points would, but building a Sample
// only for the run's two ends.
func (a *Aggregate) addRun(run []block.Point) {
	if len(run) == 0 {
		return
	}
	if a.Count == 0 {
		a.Min, a.Max = run[0].V, run[0].V
		a.First = sampleAt(run[0].T, run[0].V)
	}
	for _, p := range run {
		if p.V < a.Min {
			a.Min = p.V
		}
		if p.V > a.Max {
			a.Max = p.V
		}
		a.Sum += p.V
	}
	last := run[len(run)-1]
	a.Last = sampleAt(last.T, last.V)
	a.Count += len(run)
}

// finish computes the derived fields of a folded aggregate.
func (a *Aggregate) finish() {
	if a.Count > 0 {
		a.Mean = a.Sum / float64(a.Count)
	}
}

// Bucket is one downsampled window.
type Bucket struct {
	Start time.Time
	Aggregate
}

// appendPoints appends to buf the first limit (-1: all) stored points
// of key with T in [lo, hi], in ascending time order (the spill is
// folded first), passing over the first skip of them at exactly lo,
// copied under the series lock: the caller may do IO with them after
// it, which it must not do with the segments themselves. It is the
// head's only range read. ok reports whether the head holds the series;
// an absent one adds nothing.
func (s *Store) appendPoints(buf []block.Point, key SeriesKey, lo int64, skip int, hi int64, limit int) (_ []block.Point, ok bool) {
	sr := s.lookup(key)
	if sr == nil {
		return buf, false
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.foldSpill(s.opts.SegmentSize)
	sr.eachRun(lo, hi, func(_ *segment, run []block.Point) bool {
		n := min(skip, firstAfter(run, lo))
		run, skip = run[n:], skip-n
		if limit >= 0 {
			run = run[:min(len(run), limit)]
			limit -= len(run)
		}
		buf = append(buf, run...)
		return limit != 0
	})
	return buf, true
}

// evictBefore drops every stored sample with At before t from every
// series, keeping the (possibly now-empty) series entries: their rows
// moved into a block, which lists them. Purely in-memory — the
// compactor runs it under the block view's write lock to swap "rows in
// head" for "rows in the new block" atomically against readers.
func (s *Store) evictBefore(t time.Time) {
	tn := nanos(t)
	for _, key := range s.keys() {
		sr := s.lookup(key)
		if sr == nil {
			continue
		}
		sr.mu.Lock()
		sr.foldSpill(s.opts.SegmentSize)
		for len(sr.segments) > 0 {
			seg := sr.segments[0]
			n := len(seg.samples)
			if n == 0 {
				sr.segments = sr.segments[1:]
				continue
			}
			if seg.samples[0].T >= tn {
				break
			}
			hi := firstAtOrAfter(seg.samples, tn)
			sr.count -= hi
			if hi == n {
				sr.segments = sr.segments[1:]
				continue
			}
			seg.trimFront(hi)
			break
		}
		if len(sr.segments) == 0 {
			sr.lastT = math.MinInt64
			if len(sr.spill) == 0 {
				sr.count = 0
			}
		}
		sr.mu.Unlock()
	}
}

// pointSize is what one head sample costs: a block.Point, an int64 and a
// float64.
const pointSize = 16

// headBytes is the heap the head's sample arrays hold: every segment's
// and spill's capacity at 16 bytes a sample. Series and segment headers
// are not counted.
func (s *Store) headBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int
	for _, sr := range s.series {
		sr.mu.Lock()
		for _, seg := range sr.segments {
			n += cap(seg.samples)
		}
		n += cap(sr.spill)
		sr.mu.Unlock()
	}
	return int64(n) * pointSize
}

// Stats summarizes an engine (all shards together — Shards is the
// partition count) or one head Store (Shards 0).
type Stats struct {
	Series  int
	Samples int
	Shards  int `json:",omitempty"`
	// DroppedRows counts rows a durable engine discarded un-applied on
	// node-log failure (always 0 for an in-memory engine).
	DroppedRows uint64 `json:",omitempty"`
}

// Stats reports store-wide counters.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := Stats{Series: len(s.series)}
	for _, sr := range s.series {
		sr.mu.Lock()
		st.Samples += sr.count
		sr.mu.Unlock()
	}
	return st
}

// Drop removes a whole series.
func (s *Store) Drop(key SeriesKey) {
	s.mu.Lock()
	delete(s.series, key)
	s.ver.Add(1)
	s.mu.Unlock()
}

// Reset drops every series in one critical section, returning the store
// to empty. Readers holding a series pointer finish against the
// orphaned map; new lookups see nothing.
func (s *Store) Reset() { s.take(newStore(s.opts)) }

// take replaces every series with src's in one critical section, as
// Reset does; src is not used again.
func (s *Store) take(src *Store) {
	s.mu.Lock()
	s.series = src.series
	s.ver.Add(1)
	s.mu.Unlock()
}
