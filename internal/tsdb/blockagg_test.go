package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// foldSamples is the raw-scan aggregate every pushdown must equal.
func foldSamples(smps []Sample) Aggregate {
	var a Aggregate
	for _, smp := range smps {
		a.add(smp)
	}
	a.finish()
	return a
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
				rollupFolds := 0
				for i := 0; i < 300; i++ {
					var from, to int64
					switch i % 6 {
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
					}
					if to < from {
						from, to = to, from
					}
					for b, end := range blockEnds {
						if start := ts[b*c.perBlock]; from > start && from < end-int64(2*time.Hour) && to >= end {
							rollupFolds++
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
					if !relClose(got.Sum, want.Sum) || !relClose(got.Mean, want.Mean) {
						t.Fatalf("range %d [%d, %d]: sum/mean %v/%v, raw fold %v/%v", i, from, to, got.Sum, got.Mean, want.Sum, want.Mean)
					}
					got.Sum, got.Mean = want.Sum, want.Mean
					if got != want {
						t.Fatalf("range %d [%d, %d] (%d samples):\n got %+v\nwant %+v", i, from, to, len(smps), got, want)
					}
				}
				if rollupFolds == 0 {
					t.Fatal("no range covered a block's tail from more than two hours inside it: the rollup fold went untested")
				}
			})
		}
	}
}

// TestAggregateWhileAppending folds a series in place while a writer
// extends it: every aggregate must be one consistent cut (run it under
// -race).
func TestAggregateWhileAppending(t *testing.T) {
	const n = 20000
	st := newStore(Options{SegmentSize: 64})
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
	for prev := 0; prev < n; {
		a, err := st.Aggregate(blockKey, base, base.Add(n*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		wantLast := base.Add(time.Duration(a.Count-1) * time.Second)
		if a.Count < prev || a.Sum != float64(a.Count) || !a.First.At.Equal(base) || !a.Last.At.Equal(wantLast) {
			t.Fatalf("torn aggregate after %d samples: %+v", prev, a)
		}
		prev = a.Count
	}
	wg.Wait()
}

var benchAgg Aggregate

// BenchmarkAggregatePartialBlock is the dashboard's glob-aggregate unit
// of work: the last 24 h of a minute-cadence series whose first 36 h sit
// in one block and whose last half hour sits in the head.
func BenchmarkAggregatePartialBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	eng, ts, _ := partialCoverSeries(b, rng, 1, 36*60, 30, func() time.Duration { return time.Minute })
	defer eng.Close()
	to := time.Unix(0, ts[len(ts)-1])
	from := to.Add(-24 * time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchAgg, err = eng.Aggregate(blockKey, from, to); err != nil {
			b.Fatal(err)
		}
	}
}
