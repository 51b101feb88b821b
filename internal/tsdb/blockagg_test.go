package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// add folds one sample into the running aggregate, the way a raw scan
// would.
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

// foldSamples is the raw-scan aggregate every pushdown must equal.
func foldSamples(smps []Sample) Aggregate {
	var a Aggregate
	for _, smp := range smps {
		a.add(smp)
	}
	a.finish()
	return a
}

// downsampleIter is the raw-scan downsample every fold must equal: it
// folds an iterator's samples into fixed windows, holding only the
// running bucket in memory.
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

// headAggregate folds the head's rows of key in [from, to] into one
// window through Store.fold.
func headAggregate(st *Store, key SeriesKey, from, to time.Time) (Aggregate, error) {
	w, err := newWindows(from, to, 0)
	if err != nil {
		return Aggregate{}, err
	}
	if !st.fold(key, &w) {
		return Aggregate{}, ErrNoSeries
	}
	w.one.finish()
	return w.one, nil
}

func relClose(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// partialCoverSeries builds one series ending about a minute before now:
// nBlocks stretches of perBlock samples, each cut into its own block,
// then — after a jump over the head-window boundary — perHead samples
// that stay in the head. gap draws the spacing of consecutive samples (0
// duplicates a timestamp). It returns the engine, every sample's
// timestamp and the last timestamp of each block.
func partialCoverSeries(t testing.TB, rng *rand.Rand, nBlocks, perBlock, perHead int, gap func() time.Duration) (*Sharded, []int64, []int64) {
	t.Helper()
	const headWindow, margin = 2 * time.Hour, 10 * time.Minute
	gaps := make([]time.Duration, nBlocks*perBlock+perHead)
	var blockSpan, headSpan time.Duration
	for i := range gaps {
		gaps[i] = gap()
		if i < nBlocks*perBlock {
			blockSpan += gaps[i]
		} else {
			headSpan += gaps[i]
		}
	}
	if headSpan > headWindow-margin {
		t.Fatalf("head stretch %v does not fit the %v head window", headSpan, headWindow)
	}
	eng, err := OpenSharded(ShardedOptions{Dir: t.TempDir(), Shards: 1, Blocks: BlockPolicy{HeadWindow: headWindow}})
	if err != nil {
		t.Fatal(err)
	}
	// Whole-minute stretch starts: at a regular cadence some samples sit
	// exactly on hour-bucket boundaries.
	now := time.Now()
	at := now.Add(-headWindow - margin - blockSpan).Truncate(time.Minute)
	var ts, blockEnds []int64
	for b := 0; b <= nBlocks; b++ {
		n := perBlock
		if b == nBlocks {
			n, at = perHead, now.Add(-5*time.Second-headSpan).Truncate(time.Minute)
		}
		rows := make([]Row, n)
		for i := range rows {
			at = at.Add(gaps[len(ts)])
			ts = append(ts, at.UnixNano())
			rows[i] = Row{Key: blockKey, Sample: Sample{At: time.Unix(0, at.UnixNano()).UTC(), Value: 20 + 3*rng.NormFloat64()}}
		}
		if errs := eng.AppendBatch(rows); errs != nil {
			t.Fatalf("append: %v", errs)
		}
		if b < nBlocks {
			if err := eng.CompactAll(); err != nil {
				t.Fatal(err)
			}
			blockEnds = append(blockEnds, ts[len(ts)-1])
		}
	}
	if got := eng.ShardStatus(0).Blocks; got != nBlocks {
		t.Fatalf("cut %d blocks, want %d", got, nBlocks)
	}
	return eng, ts, blockEnds
}

// assertAggregateMatches checks got against a raw fold: every field
// exactly, Sum and Mean to float association.
func assertAggregateMatches(t *testing.T, what string, got, want Aggregate) {
	t.Helper()
	if !relClose(got.Sum, want.Sum) || !relClose(got.Mean, want.Mean) {
		t.Fatalf("%s: sum/mean %v/%v, raw fold %v/%v", what, got.Sum, got.Mean, want.Sum, want.Mean)
	}
	got.Sum, got.Mean = want.Sum, want.Mean
	if got != want {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestHeadAggregateSummariesMatchRawFold is the differential test of the
// head's segment summaries: a seeded mix of in-order, out-of-order and
// duplicate-timestamp appends, count eviction and compaction's
// evictBefore over 16-sample segments, with every Store.fold of a range equal
// to a fold over the head's points in the same range (headReader).
// Ranges fall on segment bounds, straddle them by a nanosecond, and
// land anywhere.
func TestHeadAggregateSummariesMatchRawFold(t *testing.T) {
	const segSize = 16
	st := newStore(Options{SegmentSize: segSize, MaxSamplesPerSeries: 300})
	rng := rand.New(rand.NewSource(29))
	k := key()
	base := time.Unix(1_700_000_000, 0).UTC()
	last := base
	stamps := []time.Time{base}
	catchUps := 0
	for step := 0; step < 2000; step++ {
		var rows []Row
		switch op := rng.Intn(10); {
		case op < 6: // in order, 0–3 s apart (0: a duplicate timestamp)
			for i := rng.Intn(20); i >= 0; i-- {
				last = last.Add(time.Duration(rng.Intn(4)) * time.Second)
				rows = append(rows, Row{Key: k, Sample: Sample{At: last, Value: rng.NormFloat64() * 100}})
			}
		case op < 8: // out of order, or a duplicate of a stored stamp
			at := stamps[rng.Intn(len(stamps))]
			if op == 6 {
				at = at.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			}
			rows = append(rows, Row{Key: k, Sample: Sample{At: at, Value: rng.NormFloat64() * 100}})
		case op == 8 && rng.Intn(4) == 0: // a compaction cut
			st.evictBefore(stamps[rng.Intn(len(stamps))])
		}
		for _, r := range rows {
			stamps = append(stamps, r.Sample.At)
		}
		if len(rows) > 0 {
			st.AppendBatch(rows)
		}

		sr := st.series[k]
		sr.mu.Lock()
		sr.foldSpill(segSize)
		var bounds []time.Time
		for _, seg := range sr.segments {
			if n := len(seg.samples); n > 0 {
				bounds = append(bounds, time.Unix(0, seg.samples[0].T).UTC(), time.Unix(0, seg.samples[n-1].T).UTC())
			}
		}
		sr.mu.Unlock()
		if len(bounds) == 0 {
			continue
		}
		bound := func() time.Time { return bounds[rng.Intn(len(bounds))] }
		instant := func() time.Time {
			return base.Add(-time.Second + time.Duration(rng.Int63n(int64(last.Sub(base)+2*time.Second))))
		}
		for i := 0; i < 4; i++ {
			var from, to time.Time
			switch i {
			case 0: // on segment bounds
				from, to = bound(), bound()
			case 1: // straddling segment bounds by a nanosecond
				from, to = bound().Add(time.Duration(rng.Intn(3)-1)), bound().Add(time.Duration(rng.Intn(3)-1))
			case 2:
				from, to = instant(), instant()
			case 3: // everything
				from, to = bounds[0], bounds[len(bounds)-1]
			}
			if to.Before(from) {
				from, to = to, from
			}
			sr.mu.Lock()
			for _, seg := range sr.segments {
				if n := len(seg.samples); n > 0 && seg.agg.Count > 0 && seg.agg.Count < n && seg.samples[0].T >= from.UnixNano() && seg.samples[n-1].T <= to.UnixNano() {
					catchUps++ // a summary read before, appended to since
				}
			}
			sr.mu.Unlock()
			got, err := headAggregate(st, k, from, to)
			if err != nil {
				t.Fatal(err)
			}
			smps, err := headReader{st}.Query(k, from, to)
			if err != nil {
				t.Fatal(err)
			}
			assertAggregateMatches(t, fmt.Sprintf("step %d range [%v, %v] (%d samples)", step, from, to, len(smps)), got, foldSamples(smps))
		}
	}
	if catchUps == 0 {
		t.Fatal("no range covered a grown segment whole: the summary catch-up went untested")
	}
}

// A series rebuilt after an out-of-order write keeps the store's
// configured segment size.
func TestSpillKeepsSegmentSize(t *testing.T) {
	const segSize = 64
	st := newStore(Options{SegmentSize: segSize})
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = Row{Key: key(), Sample: Sample{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)}}
	}
	st.AppendBatch(rows)
	st.AppendBatch([]Row{{Key: key(), Sample: Sample{At: t0.Add(250500 * time.Millisecond), Value: -1}}})
	if n := st.Len(key()); n != 501 {
		t.Fatalf("len %d, want 501", n)
	}
	if _, err := (headReader{st}).Query(key(), t0, t0.Add(time.Hour)); err != nil { // folds the spill
		t.Fatal(err)
	}
	sr := st.series[key()]
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if len(sr.spill) != 0 {
		t.Fatal("spill not folded")
	}
	for i, seg := range sr.segments {
		if len(seg.samples) > segSize || cap(seg.samples) != segSize {
			t.Fatalf("segment %d: len %d cap %d, want at most %d samples in a %d-sample segment", i, len(seg.samples), cap(seg.samples), segSize, segSize)
		}
	}
}

// TestBlockAggregatePartialCoverMatchesRawFold is the differential test
// of the pushdown aggregate over partially covered blocks: for random
// ranges Sharded.Aggregate must equal a fold over Sharded.Query of the
// same range — every field exactly, Sum and Mean to float association.
func TestBlockAggregatePartialCoverMatchesRawFold(t *testing.T) {
	cadences := []struct {
		name              string
		perBlock, perHead int
		gap               func(*rand.Rand) time.Duration
	}{
		{"1s", 3 * 3600, 1800, func(*rand.Rand) time.Duration { return time.Second }},
		{"1m", 6 * 60, 90, func(*rand.Rand) time.Duration { return time.Minute }},
		{"irregular", 400, 30, func(rng *rand.Rand) time.Duration {
			if rng.Intn(4) == 0 {
				return 0 // duplicate timestamp
			}
			return time.Duration(rng.Int63n(int64(3 * time.Minute)))
		}},
	}
	for _, c := range cadences {
		for nBlocks := 1; nBlocks <= 3; nBlocks++ {
			t.Run(fmt.Sprintf("%s/blocks=%d", c.name, nBlocks), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(22 + nBlocks)))
				eng, ts, blockEnds := partialCoverSeries(t, rng, nBlocks, c.perBlock, c.perHead, func() time.Duration { return c.gap(rng) })
				defer eng.Close()
				first, last := ts[0], ts[len(ts)-1]
				instant := func() int64 { return first - int64(time.Hour) + rng.Int63n(last-first+int64(2*time.Hour)) }
				hour := func() int64 { return instant() / int64(time.Hour) * int64(time.Hour) }
				stamp := func() int64 { return ts[rng.Intn(len(ts))] }
				rollupFolds, rightEdges := 0, 0
				for i := 0; i < 350; i++ {
					var from, to int64
					switch i % 7 {
					case 0:
						from, to = instant(), instant()
					case 1: // the dashboard's "last N hours": ends past every block
						from, to = instant(), last+int64(time.Minute)
					case 2: // both edges exactly on hour boundaries
						from, to = hour(), hour()
					case 3: // inside one hour bucket
						from = hour() + rng.Int63n(int64(30*time.Minute))
						to = from + rng.Int63n(int64(30*time.Minute))
					case 4: // edges on stored (possibly duplicated) timestamps
						from, to = stamp(), stamp()
					case 5: // ends on, just before or just after a block's last sample
						from, to = instant(), blockEnds[rng.Intn(nBlocks)]+rng.Int63n(3)-1
					case 6: // most of one block, ending inside it
						b := rng.Intn(nBlocks)
						from = ts[b*c.perBlock] + rng.Int63n(int64(30*time.Minute)) - int64(15*time.Minute)
						to = blockEnds[b] - 1 - rng.Int63n(int64(30*time.Minute))
					}
					if to < from {
						from, to = to, from
					}
					for b, end := range blockEnds {
						start := ts[b*c.perBlock]
						if from > start && from < end-int64(2*time.Hour) && to >= end {
							rollupFolds++
						}
						if to >= start && to < end && to-max(from, start) > int64(2*time.Hour) {
							rightEdges++ // whole hours, then a decoded right edge
						}
					}
					fromT, toT := time.Unix(0, from), time.Unix(0, to)
					smps, err := eng.Query(blockKey, fromT, toT)
					if err != nil {
						t.Fatal(err)
					}
					want := foldSamples(smps)
					got, err := eng.Aggregate(blockKey, fromT, toT)
					if err != nil {
						t.Fatal(err)
					}
					assertAggregateMatches(t, fmt.Sprintf("range %d [%d, %d] (%d samples)", i, from, to, len(smps)), got, want)
				}
				if rollupFolds == 0 {
					t.Fatal("no range covered a block's tail from more than two hours inside it: the rollup fold went untested")
				}
				if rightEdges == 0 {
					t.Fatal("no range ended inside a block more than two hours after its start: the right edge went untested")
				}
			})
		}
	}
}

// TestAggregateWhileAppending folds a series in place while a writer
// extends it: every aggregate must be one consistent cut (run it under
// -race). Besides the whole series, each round asks for a run of whole
// 64-sample segments (one sample a second), so segment summaries are
// read while the writer grows the last of them.
func TestAggregateWhileAppending(t *testing.T) {
	const n, segSize = 20000, 64
	st := newStore(Options{SegmentSize: segSize})
	base := time.Unix(1_700_000_000, 0).UTC()
	st.AppendBatch([]Row{{Key: blockKey, Sample: Sample{At: base, Value: 1}}})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < n; i++ {
			st.AppendBatch([]Row{{Key: blockKey, Sample: Sample{At: base.Add(time.Duration(i) * time.Second), Value: 1}}})
		}
	}()
	consistent := func(a Aggregate, from time.Time) bool {
		wantLast := from.Add(time.Duration(a.Count-1) * time.Second)
		return a.Count == 0 || a.Sum == float64(a.Count) && a.First.At.Equal(from) && a.Last.At.Equal(wantLast)
	}
	for prev, round := 0, 0; prev < n; round++ {
		a, err := headAggregate(st, blockKey, base, base.Add(n*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		if a.Count < prev || a.Count == 0 || !consistent(a, base) {
			t.Fatalf("torn aggregate after %d samples: %+v", prev, a)
		}
		prev = a.Count
		// Segments k..k+m-1 of what is written so far, the last one
		// possibly still filling.
		k := round % (a.Count/segSize + 1)
		m := 1 + round%4
		from := base.Add(time.Duration(k*segSize) * time.Second)
		seg, err := headAggregate(st, blockKey, from, from.Add(time.Duration(m*segSize)*time.Second-1))
		if err != nil {
			t.Fatal(err)
		}
		if seg.Count > m*segSize || !consistent(seg, from) {
			t.Fatalf("torn aggregate of segments [%d, %d): %+v", k, k+m, seg)
		}
	}
	wg.Wait()
}

var benchAgg Aggregate

// BenchmarkAggregatePartialBlock is the dashboard's glob-aggregate unit
// of work: the last 24 h (plus 0–59 min of jitter on `from`, so the
// left edge falls anywhere in its hour) of a series whose first 36 h, at
// minute cadence, sit in one block. In the head=1m arm the last half
// hour is 30 minute samples in the head; in the head=1s arm it is the
// dashboard's shape, 15 min at 1 min then 15 min at 1 s (915 samples).
func BenchmarkAggregatePartialBlock(b *testing.B) {
	const blockMinutes = 36 * 60
	for _, arm := range []struct {
		name           string
		head1m, head1s int
	}{{"head=1m", 30, 0}, {"head=1s", 15, 900}} {
		b.Run(arm.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			n := 0
			gap := func() time.Duration {
				if n++; n > blockMinutes+arm.head1m {
					return time.Second
				}
				return time.Minute
			}
			eng, ts, _ := partialCoverSeries(b, rng, 1, blockMinutes, arm.head1m+arm.head1s, gap)
			defer eng.Close()
			to := time.Unix(0, ts[len(ts)-1])
			froms := make([]time.Time, 64)
			for i := range froms {
				froms[i] = to.Add(-24*time.Hour - time.Duration(rng.Intn(60))*time.Minute)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				if benchAgg, err = eng.Aggregate(blockKey, froms[i%len(froms)], to); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
