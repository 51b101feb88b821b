// Package tsdb is the time-series storage engine used at two points of the
// infrastructure: as the "local database" middle layer of every
// device-proxy (Fig. 1b of the paper) and as the backing store of the
// global measurements database service.
//
// The engine stores samples per series, where a series is identified by a
// (device URI, quantity) pair. Samples within a series are kept in
// append-mostly segments ordered by timestamp; out-of-order arrivals are
// tolerated and merged on read. A configurable retention bound keeps the
// per-series footprint constant, matching the buffering role the proxy's
// local database plays in the paper.
package tsdb

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// SeriesKey identifies one time series.
type SeriesKey struct {
	Device   string
	Quantity string
}

// String renders the key in the device|quantity form used in logs.
func (k SeriesKey) String() string { return k.Device + "|" + k.Quantity }

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
)

// Options configure a shard's head Store.
type Options struct {
	// MaxSamplesPerSeries bounds each series; once exceeded the oldest
	// samples are evicted. Zero means the engine default (65536).
	MaxSamplesPerSeries int
	// Retention drops samples older than now-Retention at append time.
	// Zero disables time-based retention.
	Retention time.Duration
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
// head's single writer and every read merges it with the shard's blocks.
type Store struct {
	opts Options

	// mu guards the series catalog; every append and query resolves its
	// series through it, so it must never cover disk or network time.
	mu     sync.RWMutex // districtlint:lockio
	series map[SeriesKey]*series
}

// series holds the segments of one series. Segments are time-ordered
// relative to each other except for the spill segment, which absorbs
// out-of-order writes and is merged on read.
type series struct {
	// mu serializes one series' readers and writers; snapshot dumps
	// copy under it and do their file IO after the unlock.
	mu       sync.Mutex // districtlint:lockio
	segments []*segment
	spill    []Sample // out-of-order arrivals, unsorted
	count    int
	lastAt   time.Time
}

// segment is a bounded run of time-ordered samples and the fold of
// its first agg.Count samples. Appends leave agg behind, so the write
// path pays nothing for it; the next aggregate that covers the whole
// segment folds only what was appended since. A front trim resets it.
type segment struct {
	samples []Sample
	agg     Aggregate // unfinished: Mean is not filled
}

// summary returns the fold of every sample of the segment. The caller
// holds the series lock.
func (seg *segment) summary() Aggregate {
	for i := seg.agg.Count; i < len(seg.samples); i++ {
		seg.agg.add(seg.samples[i])
	}
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
			sr = &series{}
			s.series[key] = sr
		}
		s.mu.Unlock()
	}
	return sr
}

// put stores one sample in a locked series: ordered tail append or
// out-of-order spill.
func (sr *series) put(smp Sample, segSize int) {
	if !smp.At.Before(sr.lastAt) {
		sr.appendOrdered(smp, segSize)
		sr.lastAt = smp.At
	} else {
		sr.spill = append(sr.spill, smp)
	}
	sr.count++
}

// appendRun stores a run of same-series rows (row keys are ignored;
// the run is stored under key) with one series resolution and one lock
// acquisition for the whole run. Samples older than the retention
// window are dropped silently (they would be evicted immediately
// anyway). Eviction runs once after the run, so the per-series bound
// may transiently overshoot by at most the run length.
func (s *Store) appendRun(key SeriesKey, rows []Row) {
	sr := s.getOrCreate(key)
	sr.mu.Lock()
	defer sr.mu.Unlock()
	for i := range rows {
		smp := rows[i].Sample
		if s.opts.Retention > 0 && time.Since(smp.At) > s.opts.Retention {
			continue
		}
		sr.put(smp, s.opts.SegmentSize)
	}
	sr.evict(s.opts.MaxSamplesPerSeries, s.opts.SegmentSize)
}

func (sr *series) appendOrdered(smp Sample, segSize int) {
	n := len(sr.segments)
	if n == 0 || len(sr.segments[n-1].samples) >= segSize {
		sr.segments = append(sr.segments, &segment{samples: make([]Sample, 0, segSize)})
		n++
	}
	seg := sr.segments[n-1]
	seg.samples = append(seg.samples, smp)
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
// segments by a full rebuild into segments of segSize samples, so the
// segments hold every sample of the series in time order. Spills are
// rare in practice (device clocks are monotonic) so the rebuild cost is
// acceptable.
func (sr *series) foldSpill(segSize int) {
	if len(sr.spill) == 0 {
		return
	}
	all := sr.flatten()
	sort.Slice(all, func(i, j int) bool { return all[i].At.Before(all[j].At) })
	sr.segments = nil
	sr.spill = nil
	sr.count = 0
	for _, smp := range all {
		sr.appendOrdered(smp, segSize)
		sr.count++
	}
	if n := len(all); n > 0 {
		sr.lastAt = all[n-1].At
	}
}

func (sr *series) flatten() []Sample {
	out := make([]Sample, 0, sr.count)
	for _, seg := range sr.segments {
		out = append(out, seg.samples...)
	}
	out = append(out, sr.spill...)
	return out
}

// Query returns the samples of a series with At in [from, to], in
// ascending time order. A zero `to` means "now".
func (s *Store) Query(key SeriesKey, from, to time.Time) ([]Sample, error) {
	if to.IsZero() {
		to = time.Now()
	}
	if to.Before(from) {
		return nil, ErrBadInterval
	}
	s.mu.RLock()
	sr := s.series[key]
	s.mu.RUnlock()
	if sr == nil {
		return nil, ErrNoSeries
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.foldSpill(s.opts.SegmentSize)
	var out []Sample
	sr.eachRun(from, to, func(_ *segment, run []Sample) { out = append(out, run...) })
	return out, nil
}

// eachRun hands f, in time order, every segment holding samples with At
// in [from, to] together with the run of them; the run is the whole of
// seg.samples exactly when the segment lies inside the range. The runs
// alias the segments: f must not keep them past the series lock, which
// the caller holds after folding the spill. Segments are time-ordered;
// whole segments outside the range are skipped and only boundary
// segments are binary-searched, so the walk is O(#segments + result),
// not O(series length).
func (sr *series) eachRun(from, to time.Time, f func(seg *segment, run []Sample)) {
	for _, seg := range sr.segments {
		n := len(seg.samples)
		if n == 0 || seg.samples[n-1].At.Before(from) {
			continue
		}
		if seg.samples[0].At.After(to) {
			break
		}
		if !seg.samples[0].At.Before(from) && !seg.samples[n-1].At.After(to) {
			f(seg, seg.samples)
			continue
		}
		lo := searchSamples(seg.samples, func(smp Sample) bool { return !smp.At.Before(from) })
		hi := searchSamples(seg.samples, func(smp Sample) bool { return smp.At.After(to) })
		f(seg, seg.samples[lo:hi])
	}
}

// Latest returns the most recent sample of a series.
func (s *Store) Latest(key SeriesKey) (Sample, error) {
	s.mu.RLock()
	sr := s.series[key]
	s.mu.RUnlock()
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
	return last.samples[len(last.samples)-1], nil
}

// Len reports the number of stored samples of a series (0 if absent).
func (s *Store) Len(key SeriesKey) int {
	s.mu.RLock()
	sr := s.series[key]
	s.mu.RUnlock()
	if sr == nil {
		return 0
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.count
}

// Keys returns all series keys, in no particular order.
func (s *Store) Keys() []SeriesKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SeriesKey, 0, len(s.series))
	for k := range s.series {
		out = append(out, k)
	}
	return out
}

// KeysForDevice returns the series keys belonging to one device URI.
func (s *Store) KeysForDevice(device string) []SeriesKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []SeriesKey
	for k := range s.series {
		if k.Device == device {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Quantity < out[j].Quantity })
	return out
}

// Aggregate summarizes a time range of a series.
type Aggregate struct {
	Count       int
	Min, Max    float64
	Sum, Mean   float64
	First, Last Sample
}

// Aggregate computes summary statistics over [from, to] (a zero `to`
// means "now"), under the series lock, so the result is one consistent
// cut of the series. A segment lying wholly inside the range contributes
// its summary; only the boundary segments' in-range runs are folded
// sample by sample, so the cost is O(segments + two runs), not
// O(samples). Sum (and so Mean) adds one partial sum per whole segment.
func (s *Store) Aggregate(key SeriesKey, from, to time.Time) (Aggregate, error) {
	if to.IsZero() {
		to = time.Now()
	}
	if to.Before(from) {
		return Aggregate{}, ErrBadInterval
	}
	s.mu.RLock()
	sr := s.series[key]
	s.mu.RUnlock()
	if sr == nil {
		return Aggregate{}, ErrNoSeries
	}
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.foldSpill(s.opts.SegmentSize)
	var a Aggregate
	sr.eachRun(from, to, func(seg *segment, run []Sample) {
		if len(run) == len(seg.samples) {
			a.combine(seg.summary())
			return
		}
		for i := range run {
			a.add(run[i])
		}
	})
	a.finish()
	return a, nil
}

// add folds one sample into the running aggregate. Mean is filled by
// finish, once, not per row — add runs in the pushdown hot loops.
func (a *Aggregate) add(smp Sample) {
	if a.Count == 0 {
		a.Min, a.Max = smp.Value, smp.Value
		a.First = smp
	}
	if smp.Value < a.Min {
		a.Min = smp.Value
	}
	if smp.Value > a.Max {
		a.Max = smp.Value
	}
	a.Sum += smp.Value
	a.Last = smp
	a.Count++
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

// downsampleIter folds an iterator's samples into fixed windows, holding
// only the running bucket in memory, never the raw samples — Downsample's
// exact walk for windows no rollup grid divides.
func downsampleIter(it *Iterator, from time.Time, window time.Duration) ([]Bucket, error) {
	var out []Bucket
	var cur Aggregate
	var curStart time.Time
	flush := func() {
		if cur.Count > 0 {
			cur.finish()
			out = append(out, Bucket{Start: curStart, Aggregate: cur})
			cur = Aggregate{}
		}
	}
	for {
		smp, ok := it.Next()
		if !ok {
			break
		}
		start := smp.At.Truncate(window)
		if start.Before(from) {
			start = from
		}
		if !start.Equal(curStart) {
			flush()
			curStart = start
		}
		cur.add(smp)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// collectBefore returns, per series, copies of every stored sample with
// At before t, in ascending time order (spills are folded first). The
// compactor calls it on the shard worker to gather the rows a block cut
// will cover; series with no old samples are omitted.
func (s *Store) collectBefore(t time.Time) map[SeriesKey][]Sample {
	out := make(map[SeriesKey][]Sample)
	for _, key := range s.Keys() {
		s.mu.RLock()
		sr := s.series[key]
		s.mu.RUnlock()
		if sr == nil {
			continue
		}
		sr.mu.Lock()
		sr.foldSpill(s.opts.SegmentSize)
		var old []Sample
		for _, seg := range sr.segments {
			n := len(seg.samples)
			if n == 0 {
				continue
			}
			if !seg.samples[0].At.Before(t) {
				break
			}
			hi := searchSamples(seg.samples, func(smp Sample) bool { return !smp.At.Before(t) })
			old = append(old, seg.samples[:hi]...)
			if hi < n {
				break
			}
		}
		sr.mu.Unlock()
		if len(old) > 0 {
			out[key] = old
		}
	}
	return out
}

// evictBefore drops every stored sample with At before t from every
// series, keeping the (possibly now-empty) series entries in the
// catalog. Purely in-memory — the compactor runs it under the block
// view's write lock to swap "rows in head" for "rows in the new block"
// atomically against readers.
func (s *Store) evictBefore(t time.Time) {
	for _, key := range s.Keys() {
		s.mu.RLock()
		sr := s.series[key]
		s.mu.RUnlock()
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
			if !seg.samples[0].At.Before(t) {
				break
			}
			hi := searchSamples(seg.samples, func(smp Sample) bool { return !smp.At.Before(t) })
			sr.count -= hi
			if hi == n {
				sr.segments = sr.segments[1:]
				continue
			}
			seg.trimFront(hi)
			break
		}
		if len(sr.segments) == 0 {
			sr.lastAt = time.Time{}
			if len(sr.spill) == 0 {
				sr.count = 0
			}
		}
		sr.mu.Unlock()
	}
}

// Stats summarizes an engine (all shards together — Shards is the
// partition count) or one head Store (Shards 0).
type Stats struct {
	Series  int
	Samples int
	Shards  int `json:",omitempty"`
	// DroppedRows counts rows a durable engine discarded un-applied on
	// WAL failure (always 0 for an in-memory engine).
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
	s.mu.Unlock()
}

// Reset drops every series in one critical section, returning the store
// to empty. Readers holding a series pointer finish against the
// orphaned catalog; new lookups see nothing.
func (s *Store) Reset() {
	s.mu.Lock()
	s.series = make(map[SeriesKey]*series)
	s.mu.Unlock()
}
