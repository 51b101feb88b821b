package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/obs"
)

// percentile returns the q-quantile (0..1) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. An empty input yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedPercentile(s, q)
}

func sortedPercentile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles taken the way Python's
// statistics.quantiles(values, n=4) takes them (exclusive method), so
// the figure matches what the acceptance driver computes.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		// j + delta/4 = i*(n+1)/4; j is clamped to the data first, as
		// Python does, so short inputs extrapolate the same way.
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	med := sortedPercentile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// sliceCounter buckets completed work into one-second slices of a
// timed window, so throughput can be reported as the median slice — a
// compaction stall or a scheduling hiccup moves one slice, not the
// figure.
type sliceCounter struct {
	mu     sync.Mutex
	start  time.Time
	slices []float64
	// The first and the latest completion credited, and the work the
	// first one carried: what rate measures between.
	first, last time.Time
	firstWork   float64
}

func newSliceCounter(start time.Time, seconds int) *sliceCounter {
	return &sliceCounter{start: start, slices: make([]float64, seconds)}
}

// add credits n units of work completed at t; work outside the window
// is ignored.
func (c *sliceCounter) add(t time.Time, n float64) {
	i := int(t.Sub(c.start) / time.Second)
	if t.Before(c.start) || i >= len(c.slices) {
		return
	}
	c.mu.Lock()
	c.slices[i] += n
	if c.first.IsZero() || t.Before(c.first) {
		c.first, c.firstWork = t, n
	}
	if t.After(c.last) {
		c.last = t
	}
	c.mu.Unlock()
}

// rate is the work completed per second between the first and the
// last completion: the first one opens the interval and is not counted
// in it. It is a measured quotient on an open loop too, where work ÷
// window length would read the schedule back.
func (c *sliceCounter) rate() float64 {
	total := c.total()
	c.mu.Lock()
	defer c.mu.Unlock()
	if span := c.last.Sub(c.first).Seconds(); span > 0 {
		return (total - c.firstWork) / span
	}
	return 0
}

// medianPerSecond is the median one-second slice.
func (c *sliceCounter) medianPerSecond() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return median(c.slices)
}

func (c *sliceCounter) total() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := 0.0
	for _, v := range c.slices {
		sum += v
	}
	return sum
}

// latencies collects per-operation latencies in milliseconds under a
// lock; the recorders are shared by at most nproc goroutines.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

func (l *latencies) snapshot() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

func (l *latencies) p(q float64) float64 { return percentile(l.snapshot(), q) }

func (l *latencies) n() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.ms)
}

// ---------------------------------------------------------------------
// Metrics-snapshot deltas (the scrape source of the per-layer numbers)
// ---------------------------------------------------------------------

// scrape is one service's /v1/metrics snapshot, indexed for deltas.
type scrape struct {
	routes map[string]api.RouteSnapshot
	ins    map[string][]obs.Snapshot // by instrument name, every labelset
}

func indexSnapshot(snap *api.MetricsSnapshot) scrape {
	s := scrape{routes: map[string]api.RouteSnapshot{}, ins: map[string][]obs.Snapshot{}}
	if snap == nil {
		return s
	}
	for _, r := range snap.Routes {
		s.routes[r.Route] = r
	}
	for _, in := range snap.Instruments {
		s.ins[in.Name] = append(s.ins[in.Name], in)
	}
	return s
}

// sum adds an instrument's value over every labelset (all shards).
func (s scrape) sum(name string) float64 {
	t := 0.0
	for _, in := range s.ins[name] {
		t += in.Value
	}
	return t
}

// max is the largest value of an instrument over its labelsets.
func (s scrape) max(name string) float64 {
	m := 0.0
	for _, in := range s.ins[name] {
		m = math.Max(m, in.Value)
	}
	return m
}

// hist merges an instrument's histograms over every labelset.
func (s scrape) hist(name string) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, in := range s.ins[name] {
		if in.Histogram == nil {
			continue
		}
		out = addHist(out, *in.Histogram, 1)
	}
	return out
}

// addHist returns a + sign*b bucket by bucket; the two must share
// bounds (an empty a adopts b's).
func addHist(a, b obs.HistogramSnapshot, sign float64) obs.HistogramSnapshot {
	if len(a.Bounds) == 0 {
		a.Bounds = b.Bounds
		a.Counts = make([]uint64, len(b.Counts))
	}
	out := obs.HistogramSnapshot{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts))}
	for i := range a.Counts {
		v := float64(a.Counts[i])
		if i < len(b.Counts) {
			v += sign * float64(b.Counts[i])
		}
		if v < 0 {
			v = 0
		}
		out.Counts[i] = uint64(v)
		out.Count += out.Counts[i]
	}
	out.Sum = a.Sum + sign*b.Sum
	return out
}

// scrapeDelta is what happened between two scrapes of one service.
type scrapeDelta struct{ before, after scrape }

// counter is a counter's increase over the interval.
func (d scrapeDelta) counter(name string) float64 {
	return d.after.sum(name) - d.before.sum(name)
}

// gaugeMax is the larger of a gauge's two readings.
func (d scrapeDelta) gaugeMax(name string) float64 {
	return math.Max(d.before.max(name), d.after.max(name))
}

// hist is the histogram of only the observations made in the interval.
func (d scrapeDelta) hist(name string) obs.HistogramSnapshot {
	return addHist(d.after.hist(name), d.before.hist(name), -1)
}

// routeMeanMs is a route's mean handler time over the interval.
func (d scrapeDelta) routeMeanMs(route string) float64 {
	a, b := d.after.routes[route], d.before.routes[route]
	if a.Count <= b.Count {
		return 0
	}
	return (a.TotalMs - b.TotalMs) / float64(a.Count-b.Count)
}

// counterWhere is the increase of the labelsets of a counter that
// carry key=value.
func (d scrapeDelta) counterWhere(name, key, value string) float64 {
	sum := func(s scrape) (t float64) {
		for _, in := range s.ins[name] {
			if in.Labels[key] == value {
				t += in.Value
			}
		}
		return t
	}
	return sum(d.after) - sum(d.before)
}

// pooled is the delta over several services at once: their instruments
// side by side (sums and histograms then run over every service's
// labelsets) and their route counters added up.
func pooled(deltas []scrapeDelta) scrapeDelta {
	pool := func(pick func(scrapeDelta) scrape) scrape {
		out := scrape{routes: map[string]api.RouteSnapshot{}, ins: map[string][]obs.Snapshot{}}
		for _, d := range deltas {
			s := pick(d)
			for name, r := range s.routes {
				sum := out.routes[name]
				sum.Route, sum.Count, sum.TotalMs = name, sum.Count+r.Count, sum.TotalMs+r.TotalMs
				out.routes[name] = sum
			}
			for name, ins := range s.ins {
				out.ins[name] = append(out.ins[name], ins...)
			}
		}
		return out
	}
	return scrapeDelta{
		before: pool(func(d scrapeDelta) scrape { return d.before }),
		after:  pool(func(d scrapeDelta) scrape { return d.after }),
	}
}

func histMean(h obs.HistogramSnapshot) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

// span is one timed interval at a layer boundary. Spans of one request
// share Trace; Parent names the span that caused this one.
type span struct {
	Trace   string `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent,omitempty"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Rows    int    `json:"rows,omitempty"`
}

// selfTimes maps each span ID to its duration minus the part of its
// interval that its direct children cover (overlapping children are
// merged first, so two concurrent children are not counted twice).
func selfTimes(spans []span) map[string]time.Duration {
	children := map[string][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, end := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, s.StartNS, end), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		out[s.Span] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}
