package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataformat"
	"repro/internal/measuredb"
)

const district = "turin"

// quantities the corpus series carry, in index order. Series identity
// is (building, device, quantity); the devices are named m<NN> so they
// never collide with the district's own simulated devices (d<NN>),
// whose boot-time poll also lands in the measurements DB.
var quantities = []string{"temperature", "humidity", "power", "co2"}

// seriesID names one corpus series.
type seriesID struct {
	Device   string
	Quantity string
	Topic    string
}

// makeSeries lays out buildings × devices × nq series, quantity
// varying fastest.
func makeSeries(buildings, devices, nq int) []seriesID {
	out := make([]seriesID, 0, buildings*devices*nq)
	for b := 0; b < buildings; b++ {
		for d := 0; d < devices; d++ {
			dev := fmt.Sprintf("urn:district:%s/building:b%02d/device:m%02d", district, b, d)
			for q := 0; q < nq; q++ {
				out = append(out, seriesID{
					Device:   dev,
					Quantity: quantities[q],
					Topic:    measuredb.Topic(dev, dataformat.Quantity(quantities[q])),
				})
			}
		}
	}
	return out
}

// splitmix64 is the generator's only source of randomness: a pure
// function of its argument, so every input is addressable by (seed,
// series, ordinal) and the oracle never stores what it sent.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// valueAt is the value of sample k of series s under seed: a daily
// sinusoid per series plus hash noise, quantised to 0.01 like a real
// sensor reading (so the block codec sees realistic mantissas).
func valueAt(seed int64, s int, k int64) float64 {
	h := splitmix64(splitmix64(uint64(seed))<<1 ^ uint64(s)<<40 ^ uint64(k))
	noise := float64(h>>11)/(1<<53) - 0.5
	x := 18 + float64(s%7) + 3*math.Sin(2*math.Pi*float64(k)/1440) + 0.4*noise
	return math.Round(x*100) / 100
}

// rng is a seeded stream over splitmix64 for the op-mix draws.
type rng struct{ state uint64 }

func newRNG(seed int64, stream uint64) *rng {
	return &rng{state: splitmix64(uint64(seed)) ^ splitmix64(stream*0x51ED27)}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	return splitmix64(r.state)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// deck deals a workload's operations in exact proportions: a seeded
// shuffle of one card per share, reshuffled when it runs out. Drawing
// each op independently would leave the number of expensive ones in a
// two-second segment to chance, and with it the segment's throughput.
type deck struct {
	r     *rng
	cards []string
	next  int
}

// share is one op's number of cards.
type share struct {
	op    string
	cards int
}

func newDeck(r *rng, mix []share) *deck {
	d := &deck{r: r}
	for _, m := range mix {
		for i := 0; i < m.cards; i++ {
			d.cards = append(d.cards, m.op)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() string {
	if d.next == len(d.cards) {
		for i := len(d.cards) - 1; i > 0; i-- {
			j := d.r.intn(i + 1)
			d.cards[i], d.cards[j] = d.cards[j], d.cards[i]
		}
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// ---------------------------------------------------------------------
// History corpus: what the read workloads load during set-up and what
// their oracle answers from.
// ---------------------------------------------------------------------

// history is a two-resolution timeline shared by every series: oldN
// samples at oldStep (compacted into blocks) followed by newN samples
// at newStep ending at the anchor (the head).
type history struct {
	series  []seriesID
	anchor  time.Time // last sample's time; whole minute
	oldStep time.Duration
	newStep time.Duration
	oldN    int
	newN    int

	vals [][]float64 // [series][sample]
	pre  [][]float64 // prefix sums, len = samples+1
}

func newHistory(seed int64, series []seriesID, anchor time.Time, oldSpan, oldStep, newSpan, newStep time.Duration) *history {
	h := &history{
		series: series, anchor: anchor,
		oldStep: oldStep, newStep: newStep,
		oldN: int(oldSpan / oldStep), newN: int(newSpan / newStep),
	}
	n := h.oldN + h.newN
	h.vals = make([][]float64, len(series))
	h.pre = make([][]float64, len(series))
	for s := range series {
		v, p := make([]float64, n), make([]float64, n+1)
		for k := 0; k < n; k++ {
			v[k] = valueAt(seed, s, int64(k))
			p[k+1] = p[k] + v[k]
		}
		h.vals[s], h.pre[s] = v, p
	}
	return h
}

func (h *history) samples() int { return h.oldN + h.newN }

// newStart is the time of the first fine-resolution sample.
func (h *history) newStart() time.Time {
	return h.anchor.Add(-time.Duration(h.newN-1) * h.newStep)
}

// oldStart is the time of the first sample.
func (h *history) oldStart() time.Time {
	return h.newStart().Add(-time.Duration(h.oldN) * h.oldStep)
}

// at is the time of sample k.
func (h *history) at(k int) time.Time {
	if k < h.oldN {
		return h.oldStart().Add(time.Duration(k) * h.oldStep)
	}
	return h.newStart().Add(time.Duration(k-h.oldN) * h.newStep)
}

// ceilDiv is ceil(a/b) for b > 0 and any a.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// span returns the half-open sample index range [lo, hi) whose times
// fall in the closed interval [from, to].
func (h *history) span(from, to time.Time) (lo, hi int) {
	first := func(t time.Time) int { // first index with at >= t
		if !t.After(h.at(h.oldN - 1)) {
			return int(max(ceilDiv(int64(t.Sub(h.oldStart())), int64(h.oldStep)), 0))
		}
		k := ceilDiv(int64(t.Sub(h.newStart())), int64(h.newStep))
		return h.oldN + int(min(max(k, 0), int64(h.newN)))
	}
	lo = first(from)
	hi = first(to.Add(1)) // first index strictly after `to`
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// agg is the oracle's summary of a sample run.
type agg struct {
	Count    int
	Min, Max float64
	Sum      float64
	FirstAt  time.Time
	LastAt   time.Time
}

func (a *agg) add(at time.Time, v float64) {
	if a.Count == 0 {
		a.Min, a.Max, a.FirstAt = v, v, at
	}
	a.Min, a.Max = math.Min(a.Min, v), math.Max(a.Max, v)
	a.Sum += v
	a.Count++
	a.LastAt = at
}

// merge folds a later run into a.
func (a *agg) merge(b agg) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	a.Min, a.Max = math.Min(a.Min, b.Min), math.Max(a.Max, b.Max)
	a.Sum += b.Sum
	a.Count += b.Count
	a.LastAt = b.LastAt
}

// aggregate is the expected summary of series s over [from, to].
func (h *history) aggregate(s int, from, to time.Time) agg {
	lo, hi := h.span(from, to)
	if hi <= lo {
		return agg{}
	}
	a := agg{Count: hi - lo, Min: math.Inf(1), Max: math.Inf(-1), FirstAt: h.at(lo), LastAt: h.at(hi - 1)}
	for _, v := range h.vals[s][lo:hi] {
		a.Min, a.Max = math.Min(a.Min, v), math.Max(a.Max, v)
	}
	a.Sum = h.pre[s][hi] - h.pre[s][lo]
	return a
}

// rows returns samples [lo, hi) of every series in series[sLo:sHi] as
// ingest rows, time-major, so each series stays time-ordered across
// consecutive batches.
func (h *history) rows(sLo, sHi, lo, hi int) []measuredb.Point {
	out := make([]measuredb.Point, 0, (sHi-sLo)*(hi-lo))
	for k := lo; k < hi; k++ {
		at := h.at(k)
		for s := sLo; s < sHi; s++ {
			out = append(out, measuredb.Point{
				Device: h.series[s].Device, Quantity: h.series[s].Quantity,
				At: at, Value: h.vals[s][k],
			})
		}
	}
	return out
}

// sumClose reports whether a served sum matches the oracle's to 1e-9
// relative (the two add the same addends in different orders).
func sumClose(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}
