package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/dataformat"
	"repro/internal/integration"
	"repro/internal/measuredb"
	"repro/internal/ontology"
	"repro/internal/tsdb"
)

// The read workloads share one cluster topology, one loader and one
// set of checked read operations; they differ in corpus length, cache
// and whether a writer runs beside the reader.

const (
	readBuildings = 16
	readDevices   = 4
	loadBatchRows = 2000
	loadConns     = 2
	globPattern   = "urn:district:" + district + "/building:b0*/device:m*"
	globQuantity  = "temperature"
)

func readSpec(qcache int64) sutSpec {
	return sutSpec{Buildings: readBuildings, Devices: readDevices, MeasureNodes: 2, MeasureShards: 8, QCacheBytes: qcache}
}

// loadHistory bulk-loads the corpus through the coordinator, closed
// loop over two connections (each owns half of the series and walks
// time forward), then forces every node to compact, so everything
// older than the head window sits in block files.
func loadHistory(ctx context.Context, e *env, h *history) error {
	ing := e.cl.Ingest(e.sut.Measure)
	half := len(h.series) / loadConns
	perBatch := max(loadBatchRows/half, 1)
	errs := make(chan error, loadConns)
	for c := 0; c < loadConns; c++ {
		go func(c int) {
			for lo := 0; lo < h.samples(); lo += perBatch {
				rows := h.rows(c*half, (c+1)*half, lo, min(lo+perBatch, h.samples()))
				res, err := ing.Append(ctx, rows)
				if err != nil || res.Accepted != len(rows) {
					errs <- fmt.Errorf("corpus load: err=%v result=%+v", err, res)
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < loadConns; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	for _, node := range e.sut.Nodes {
		if err := e.cl.Ops(node).Compact(ctx, -1); err != nil {
			return fmt.Errorf("compact %s: %w", node, err)
		}
	}
	return nil
}

// liveRegion is the oracle's view of rows a concurrent writer has had
// acknowledged on top of the history (nil when nothing writes).
type liveRegion interface {
	// cut fixes a consistent cut: the time bound a read may use and
	// the number of whole batches at or before it.
	cut() (to time.Time, batches int)
	// agg is series s's summary over the first `batches` batches.
	agg(s, batches int) agg
	// sample is series s's i-th live row.
	sample(s, i int) (time.Time, float64)
}

// reader issues the checked read operations against one measurements
// endpoint.
type reader struct {
	e    *env
	h    *history
	meas *client.Measurements
	live liveRegion
	glob []int // series the glob selector must match, in response order
}

func newReader(e *env, h *history, live liveRegion) *reader {
	r := &reader{e: e, h: h, meas: e.cl.Measurements(e.sut.Measure), live: live}
	for s, id := range h.series {
		if globMatches(id) {
			r.glob = append(r.glob, s)
		}
	}
	return r
}

// globMatches is the oracle's reading of the glob selector.
func globMatches(id seriesID) bool {
	return strings.Contains(id.Device, "/building:b0") && id.Quantity == globQuantity
}

// readProbeInputs hands the probes one corpus-load batch, the span the
// history covers, and the range the workload's glob aggregate asks for.
func readProbeInputs(h *history, globFrom, globTo time.Time) probeInputs {
	half := len(h.series) / loadConns
	per := max(loadBatchRows/half, 1)
	return probeInputs{
		batch: h.rows(0, half, 0, per), series: h.series,
		from: h.oldStart().Add(-time.Hour), to: time.Now().Add(time.Hour),
		globFrom: globFrom, globTo: globTo,
	}
}

// bound is the newest instant a read may ask about such that the
// answer is already determined: the anchor with nothing writing, else
// the writer's last whole acknowledged batch.
func (r *reader) bound() (time.Time, int) {
	if r.live == nil {
		return r.h.anchor, 0
	}
	return r.live.cut()
}

// expect is series s's reference summary over [from, to].
func (r *reader) expect(s int, from, to time.Time, batches int) agg {
	a := r.h.aggregate(s, from, to)
	if r.live != nil {
		a.merge(r.live.agg(s, batches))
	}
	return a
}

func sameAgg(got *measuredb.AggregateResponse, want agg) bool {
	return got != nil && got.Count == want.Count && got.Min == want.Min && got.Max == want.Max && sumClose(got.Sum, want.Sum)
}

// aggGlob is the dashboard tile: one POST /v2/query aggregating every
// temperature series of buildings b0* over the trailing span.
func (r *reader) aggGlob(ctx context.Context, w *window, span time.Duration, jitter time.Duration) {
	to, batches := r.bound()
	from := to.Add(-span - jitter)
	var rsp *measuredb.BatchResponse
	sent := time.Now()
	done, err := w.call(ctx, "agg_glob", len(r.glob), func(ctx context.Context) (err error) {
		rsp, err = r.meas.Query(ctx, measuredb.BatchQuery{
			Selectors: []measuredb.SeriesSelector{{Device: globPattern, Quantity: globQuantity}},
			From:      from, To: to, Aggregate: true,
		})
		return err
	})
	ok := err == nil && len(rsp.Results) == 1 && len(rsp.Results[0].Series) == len(r.glob)
	for i := 0; ok && i < len(r.glob); i++ {
		got, s := rsp.Results[0].Series[i], r.glob[i]
		ok = got.Device == r.h.series[s].Device && sameAgg(got.Aggregate, r.expect(s, from, to, batches))
	}
	r.e.ops.check(ok, "agg_glob [%v, %v]: err=%v", from, to, err)
	w.done("agg_glob", sent, done, 1)
}

// history is the trend chart: hourly buckets of one series over the
// whole coarse region, served from block rollups.
func (r *reader) history(ctx context.Context, w *window, s int) {
	h := r.h
	from := h.oldStart().Truncate(time.Hour).Add(time.Hour)
	to := h.at(h.oldN - 1).Truncate(time.Hour).Add(-30 * time.Second)
	id := h.series[s]
	sent := time.Now()
	var buckets []tsdb.Bucket
	done, err := w.call(ctx, "history", 1, func(ctx context.Context) (err error) {
		buckets, err = r.meas.Downsample(ctx, id.Device, id.Quantity, time.Hour, client.WithRange(from, to))
		return err
	})
	want := int(to.Add(30*time.Second).Sub(from) / time.Hour)
	ok := err == nil && len(buckets) == want
	for i := 0; ok && i < len(buckets); i++ {
		start := from.Add(time.Duration(i) * time.Hour)
		exp := h.aggregate(s, start, minTime(start.Add(time.Hour-time.Nanosecond), to))
		b := buckets[i]
		ok = b.Start.Equal(start) && b.Count == exp.Count && b.Min == exp.Min && b.Max == exp.Max && sumClose(b.Sum, exp.Sum)
	}
	r.e.ops.check(ok, "history series %d: err=%v buckets=%d want=%d", s, err, len(buckets), want)
	w.done("history", sent, done, 1)
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// pageRecent is the detail view: the first JSON page (limit 1000) of
// one series over the trailing 15 minutes.
func (r *reader) pageRecent(ctx context.Context, w *window, s int) {
	const limit = 1000
	to, batches := r.bound()
	from := to.Add(-15 * time.Minute)
	id := r.h.series[s]
	var page *measuredb.SamplesPage
	sent := time.Now()
	done, err := w.call(ctx, "page_recent", limit, func(ctx context.Context) (err error) {
		page, err = r.meas.Samples(ctx, id.Device, id.Quantity, client.WithRange(from, to), client.WithLimit(limit))
		return err
	})
	lo, hi := r.h.span(from, to)
	total := hi - lo
	if r.live != nil {
		total += r.live.agg(s, batches).Count
	}
	// sample i of the window, history first then the live rows.
	at := func(i int) (time.Time, float64) {
		if i < hi-lo {
			return r.h.at(lo + i), r.h.vals[s][lo+i]
		}
		return r.live.sample(s, i-(hi-lo))
	}
	want := min(total, limit)
	ok := err == nil && page.Count == want && len(page.Samples) == want && (page.NextCursor != "") == (total > limit)
	if ok && want > 0 {
		t0, v0 := at(0)
		t1, v1 := at(want - 1)
		first, last := page.Samples[0], page.Samples[want-1]
		ok = first.At.Equal(t0) && first.Value == v0 && last.At.Equal(t1) && last.Value == v1
	}
	r.e.ops.check(ok, "page_recent series %d [%v, %v]: err=%v want %d rows", s, from, to, err, want)
	w.done("page_recent", sent, done, 1)
}

// streamDay is the export: one day of one series as NDJSON, decoded
// row by row.
func (r *reader) streamDay(ctx context.Context, w *window, s int, span time.Duration) {
	h := r.h
	to := h.at(h.oldN - 1).Add(-30 * time.Second)
	from := to.Add(-span)
	id := h.series[s]
	var got agg
	sent := time.Now()
	done, err := w.call(ctx, "stream_day", 1, func(ctx context.Context) error {
		st, err := r.meas.Stream(ctx, id.Device, id.Quantity, client.WithRange(from, to))
		if err != nil {
			return err
		}
		defer st.Close()
		for {
			p, ok := st.Next()
			if !ok {
				return st.Err()
			}
			got.add(p.At, p.Value)
		}
	})
	want := h.aggregate(s, from, to)
	r.e.ops.check(err == nil && got.Count == want.Count && got.Min == want.Min && got.Max == want.Max &&
		sumClose(got.Sum, want.Sum) && got.FirstAt.Equal(want.FirstAt) && got.LastAt.Equal(want.LastAt),
		"stream_day series %d: err=%v got %d rows want %d", s, err, got.Count, want.Count)
	w.done("stream_day", sent, done, 1)
}

// latest is the gauge: the freshest sample of one series.
func (r *reader) latest(ctx context.Context, w *window, s int) {
	id := r.h.series[s]
	k := r.h.samples() - 1
	sent := time.Now()
	var at time.Time
	var v float64
	done, err := w.call(ctx, "latest", 1, func(ctx context.Context) error {
		m, err := r.meas.Latest(ctx, id.Device, id.Quantity)
		if err == nil {
			at, v = m.Timestamp, m.Value
		}
		return err
	})
	r.e.ops.check(err == nil && at.Equal(r.h.at(k)) && v == r.h.vals[s][k], "latest series %d: err=%v at=%v value=%v", s, err, at, v)
	w.done("latest", sent, done, 1)
}

// areaQuery is the paper's end-user flow: master resolves the district,
// the client fetches every BIM/SIM model, the GIS features and each
// device's info and latest samples, and integrates them.
func (r *reader) areaQuery(ctx context.Context, w *window) {
	sent := time.Now()
	var model *integration.AreaModel
	done, err := w.call(ctx, "area_query", 1, func(ctx context.Context) (err error) {
		model, err = r.e.cl.BuildAreaModel(ctx, district, client.Area{}, client.BuildOptions{IncludeDevices: true, IncludeGIS: true})
		return err
	})
	// The topology fixes the reference: every building, and under it
	// every proxied device with at least the temperature and humidity
	// sample its boot-time poll buffered.
	missing := 0
	if err == nil {
		samples := map[string]int{}
		for _, m := range model.Measurements {
			samples[m.Device]++
		}
		for b := 0; b < readBuildings; b++ {
			building := fmt.Sprintf("urn:district:%s/building:b%02d", district, b)
			if en, ok := model.Entity(building); !ok || en.Kind != dataformat.EntityBuilding {
				missing++
			}
			for d := 0; d < readDevices; d++ {
				dev := ontology.DeviceURI(building, fmt.Sprintf("d%02d", d))
				if en, ok := model.Entity(dev); !ok || en.Kind != dataformat.EntityDevice || samples[dev] < 2 {
					missing++
				}
			}
		}
	}
	r.e.ops.check(err == nil && missing == 0, "area_query: err=%v, %d expected entities missing or without samples", err, missing)
	w.done("area_query", sent, done, 1)
}

// closedLoop runs fn back to back on n goroutines until the window
// ends.
func closedLoop(ctx context.Context, w *window, n int, fn func(worker int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for time.Now().Before(w.end) && ctx.Err() == nil {
				fn(i)
			}
		}(i)
	}
	wg.Wait()
}
