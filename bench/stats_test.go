package main

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.95, 4.8}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4),
// the rule the acceptance driver applies.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
	if got, want := quartileSpread([]float64{4, 9, 2, 5, 4}), 4.0/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestSliceCounterMedian(t *testing.T) {
	start := time.Unix(1000, 0)
	c := newSliceCounter(start, 4)
	c.add(start.Add(-time.Millisecond), 99)            // before the window
	c.add(start, 10)                                   // slice 0
	c.add(start.Add(999*time.Millisecond), 5)          // slice 0
	c.add(start.Add(time.Second), 40)                  // slice 1
	c.add(start.Add(2500*time.Millisecond), 20)        // slice 2
	c.add(start.Add(4*time.Second), 99)                // after the window
	c.add(start.Add(3*time.Second+time.Nanosecond), 1) // slice 3
	if got := c.total(); got != 76 {
		t.Errorf("total = %v, want 76", got)
	}
	// slices 15, 40, 20, 1 → median 17.5: one stalled slice moves a
	// mean, not this.
	if got := c.medianPerSecond(); got != 17.5 {
		t.Errorf("median slice = %v, want 17.5", got)
	}
}

func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	const period = 5 * time.Millisecond
	start := time.Now().Add(2 * time.Millisecond)
	until := start.Add(6 * period)
	var dues []time.Time
	var lags []time.Duration
	n := openLoop(context.Background(), start, period, until, func(d time.Duration) { lags = append(lags, d) },
		func(i int, due time.Time) {
			dues = append(dues, due)
			if i == 1 {
				time.Sleep(3 * period) // a stall: ticks 2, 3 and 4 become due meanwhile
			}
		})
	if n != 6 || len(dues) != 6 {
		t.Fatalf("fired %d ticks, want 6 (the schedule must not slow when the work does)", n)
	}
	for i, due := range dues {
		if want := start.Add(time.Duration(i) * period); !due.Equal(want) {
			t.Errorf("tick %d due %v, want the scheduled instant %v", i, due, want)
		}
	}
	if lags[2] < 2*period-time.Millisecond {
		t.Errorf("tick 2 started %v late, want about %v: the stall must show as lateness", lags[2], 2*period)
	}
	if lags[0] > period {
		t.Errorf("tick 0 started %v late on an idle schedule", lags[0])
	}
}

func TestOpenLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	n := openLoop(ctx, start, time.Millisecond, start.Add(time.Hour), nil, func(i int, _ time.Time) {
		if i == 2 {
			cancel()
		}
	})
	if n != 3 {
		t.Errorf("ran %d ticks after cancel at tick 2, want 3", n)
	}
}

func hist(bounds []float64, counts []uint64, sum float64) *obs.HistogramSnapshot {
	h := &obs.HistogramSnapshot{Bounds: bounds, Counts: counts, Sum: sum}
	for _, c := range counts {
		h.Count += c
	}
	return h
}

func TestScrapeDelta(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	before := indexSnapshot(&api.MetricsSnapshot{
		Routes: []api.RouteSnapshot{{Route: "POST /v2/ingest", Count: 10, TotalMs: 50}},
		Instruments: []obs.Snapshot{
			{Name: "rows_total", Type: "counter", Labels: obs.Labels{"shard": "0"}, Value: 100},
			{Name: "rows_total", Type: "counter", Labels: obs.Labels{"shard": "1"}, Value: 50},
			{Name: "depth", Type: "gauge", Labels: obs.Labels{"shard": "0"}, Value: 7},
			{Name: "lat", Type: "histogram", Labels: obs.Labels{"shard": "0"}, Histogram: hist(bounds, []uint64{1, 1, 0, 0}, 0.006)},
			{Name: "lat", Type: "histogram", Labels: obs.Labels{"shard": "1"}, Histogram: hist(bounds, []uint64{0, 2, 0, 0}, 0.010)},
		},
	})
	after := indexSnapshot(&api.MetricsSnapshot{
		Routes: []api.RouteSnapshot{{Route: "POST /v2/ingest", Count: 30, TotalMs: 150}},
		Instruments: []obs.Snapshot{
			{Name: "rows_total", Type: "counter", Labels: obs.Labels{"shard": "0"}, Value: 400},
			{Name: "rows_total", Type: "counter", Labels: obs.Labels{"shard": "1"}, Value: 150},
			{Name: "depth", Type: "gauge", Labels: obs.Labels{"shard": "0"}, Value: 3},
			{Name: "lat", Type: "histogram", Labels: obs.Labels{"shard": "0"}, Histogram: hist(bounds, []uint64{1, 5, 2, 0}, 0.140)},
			{Name: "lat", Type: "histogram", Labels: obs.Labels{"shard": "1"}, Histogram: hist(bounds, []uint64{0, 2, 0, 1}, 0.510)},
		},
	})
	d := scrapeDelta{before: before, after: after}
	if got := d.counter("rows_total"); got != 400 {
		t.Errorf("counter increase over all shards = %v, want 400", got)
	}
	if got := d.gaugeMax("depth"); got != 7 {
		t.Errorf("gauge max = %v, want 7", got)
	}
	if got := d.routeMeanMs("POST /v2/ingest"); got != 5 {
		t.Errorf("route mean over the interval = %v ms, want (150-50)/(30-10) = 5", got)
	}
	if got := d.routeMeanMs("GET /nothing"); got != 0 {
		t.Errorf("idle route mean = %v, want 0", got)
	}
	h := d.hist("lat")
	if want := []uint64{0, 4, 2, 1}; len(h.Counts) != 4 || h.Counts[0] != want[0] || h.Counts[1] != want[1] || h.Counts[2] != want[2] || h.Counts[3] != want[3] {
		t.Errorf("interval histogram counts = %v, want %v", h.Counts, want)
	}
	if h.Count != 7 || math.Abs(h.Sum-0.634) > 1e-12 {
		t.Errorf("interval histogram count=%d sum=%v, want 7 and 0.634", h.Count, h.Sum)
	}
	if got := histMean(h); math.Abs(got-0.634/7) > 1e-12 {
		t.Errorf("interval mean = %v", got)
	}
	if got := d.counterWhere("rows_total", "shard", "1"); got != 100 {
		t.Errorf("one labelset's increase = %v, want 100", got)
	}
	// Two services pooled: counters and route totals add up.
	both := pooled([]scrapeDelta{d, d})
	if got := both.counter("rows_total"); got != 800 {
		t.Errorf("pooled counter increase = %v, want 800", got)
	}
	if got := both.routeMeanMs("POST /v2/ingest"); got != 5 {
		t.Errorf("pooled route mean = %v ms, want 5", got)
	}
	if got := both.hist("lat").Count; got != 14 {
		t.Errorf("pooled histogram count = %d, want 14", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{Span: "client", StartNS: ms(0), EndNS: ms(100)},
		{Span: "server", Parent: "client", StartNS: ms(10), EndNS: ms(90)},
		// Two overlapping stages and one apart: they cover 20..50 and
		// 60..70 of the server span, 40 ms in all.
		{Span: "wal", Parent: "server", StartNS: ms(20), EndNS: ms(40)},
		{Span: "store", Parent: "server", StartNS: ms(30), EndNS: ms(50)},
		{Span: "hub", Parent: "server", StartNS: ms(60), EndNS: ms(70)},
		// A child reported past its parent's end is clipped to it.
		{Span: "late", Parent: "hub", StartNS: ms(65), EndNS: ms(80)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"client": 20 * time.Millisecond, // 100 − 80 of server
		"server": 40 * time.Millisecond, // 80 − 40 covered
		"wal":    20 * time.Millisecond,
		"store":  20 * time.Millisecond,
		"hub":    5 * time.Millisecond, // 10 − the 5 of "late" inside it
		"late":   15 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of %s = %v, want %v", id, self[id], w)
		}
	}
}
