package main

import (
	"context"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/measuredb"
)

// mixedRW runs the same cluster with both planes busy: an open-loop
// writer sends 40 batches of 250 live-stamped rows a second through the
// coordinator over every series, while one closed-loop reader asks for
// recent aggregates, history and recent pages with the result cache
// on. Generation bumps retire cache entries, the head grows under the
// scans, and snapshots run behind the reads — a gain on one plane that
// costs the other shows only here.
type mixedRW struct {
	cfg  runConfig
	h    *history
	rd   *reader
	rng  *rng
	deck *deck

	// The live region: what the writer has had acknowledged. Batch j is
	// stamped due[j]; cum[j] is every series' summary over batches
	// 0..j. acked counts whole acknowledged batches.
	mu    sync.Mutex
	due   []time.Time
	cum   [][]agg
	acked int
}

const (
	mixedPeriod     = 25 * time.Millisecond
	mixedBatchRows  = 250
	mixedRecent     = 15 * time.Minute // the reader's trailing window
	mixedRYWEach    = 8
	mixedCacheBytes = 4 << 20
)

func newMixedRW(cfg runConfig) *mixedRW {
	r := newRNG(cfg.seed, 7)
	return &mixedRW{cfg: cfg, rng: r, deck: newDeck(r, []share{{"agg_glob", 2}, {"history", 1}, {"page_recent", 1}})}
}

func (m *mixedRW) spec() sutSpec { return readSpec(mixedCacheBytes) }

func (m *mixedRW) opNames() []string {
	return []string{"agg_glob", "history", "page_recent", "ack", "ryw"}
}

func (m *mixedRW) setup(ctx context.Context, e *env) error {
	nq, oldSpan, newSpan := dashSizes(m.cfg)
	m.h = newHistory(m.cfg.seed, makeSeries(readBuildings, readDevices, nq), e.anchor, oldSpan/2, time.Minute, newSpan, time.Second)
	m.rd = newReader(e, m.h, m)
	m.due, m.cum, m.acked = nil, nil, 0
	return loadHistory(ctx, e, m.h)
}

// perBatch is how many rows of one batch go to series s: row r lands
// on series r mod S, as its (r div S)-th row, one millisecond apart.
func (m *mixedRW) perBatch(s int) int {
	n := mixedBatchRows / len(m.h.series)
	if s < mixedBatchRows%len(m.h.series) {
		n++
	}
	return n
}

func (m *mixedRW) liveValue(s, j, sub int) float64 {
	return valueAt(m.cfg.seed, s, int64(m.h.samples()+j*8+sub))
}

// cut, agg and sample implement liveRegion for the reader's oracle.
func (m *mixedRW) cut() (time.Time, int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.acked == 0 {
		return m.h.anchor, 0
	}
	// Rows of one batch spread over a few milliseconds after its stamp;
	// the next batch is stamped a whole period later.
	return m.due[m.acked-1].Add(mixedPeriod / 2), m.acked
}

func (m *mixedRW) agg(s, batches int) agg {
	if batches == 0 {
		return agg{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cum[batches-1][s]
}

func (m *mixedRW) sample(s, i int) (time.Time, float64) {
	per := m.perBatch(s)
	j, sub := i/per, i%per
	m.mu.Lock()
	due := m.due[j]
	m.mu.Unlock()
	return due.Add(time.Duration(sub) * time.Millisecond), m.liveValue(s, j, sub)
}

func (m *mixedRW) measure(ctx context.Context, e *env, w *window) error {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.write(ctx, e, w)
	}()
	closedLoop(ctx, w, 1, func(int) {
		s := m.rng.intn(len(m.h.series))
		switch m.deck.draw() {
		case "agg_glob":
			m.rd.aggGlob(ctx, w, mixedRecent, 0)
		case "history":
			m.rd.history(ctx, w, s)
		case "page_recent":
			m.rd.pageRecent(ctx, w, s)
		}
	})
	wg.Wait()
	return nil
}

// write is the open-loop writer.
func (m *mixedRW) write(ctx context.Context, e *env, w *window) {
	ing, meas := e.cl.Ingest(e.sut.Measure), e.cl.Measurements(e.sut.Measure)
	S := len(m.h.series)
	rows := make([]measuredb.Point, mixedBatchRows)
	// A window's schedule opens a whole period after the last stamp of
	// the window before it: the oracle's cut reaches half a period past
	// a batch's stamp and must never cover the next batch's rows.
	start := time.Now().Truncate(time.Millisecond)
	if n := len(m.due); n > 0 && start.Before(m.due[n-1].Add(mixedPeriod)) {
		start = m.due[n-1].Add(mixedPeriod)
	}
	openLoop(ctx, start, mixedPeriod, w.end, w.lag.add, func(_ int, due time.Time) {
		m.mu.Lock()
		j := len(m.due)
		m.due = append(m.due, due)
		m.mu.Unlock()
		next := make([]agg, S)
		if j > 0 {
			copy(next, m.cum[j-1]) // only this goroutine appends to cum
		}
		for r := range rows {
			s, sub := r%S, r/S
			at, v := due.Add(time.Duration(sub)*time.Millisecond), m.liveValue(s, j, sub)
			rows[r] = measuredb.Point{Device: m.h.series[s].Device, Quantity: m.h.series[s].Quantity, At: at, Value: v}
			next[s].add(at, v)
		}
		var res *measuredb.IngestResult
		done, err := w.call(ctx, "ack", len(rows), func(ctx context.Context) (err error) {
			res, err = ing.Append(ctx, rows)
			return err
		})
		ok := e.ops.check(err == nil && res.Accepted == len(rows) && res.Rejected == 0,
			"mixed batch %d: err=%v result=%+v", j, err, res)
		m.mu.Lock()
		m.cum = append(m.cum, next)
		if ok && m.acked == j {
			m.acked = j + 1 // the oracle's cut only ever covers an unbroken acked prefix
		}
		m.mu.Unlock()
		w.done("ack", due, done, 0)
		if !ok || j%mixedRYWEach != 0 {
			return
		}
		// Read-your-writes through the coordinator: the rows just
		// acknowledged are what an aggregate over their stamps returns.
		s := j % S
		var want agg
		for sub := 0; sub < m.perBatch(s); sub++ {
			want.add(due.Add(time.Duration(sub)*time.Millisecond), m.liveValue(s, j, sub))
		}
		asked := time.Now()
		got, err := meas.Aggregate(ctx, m.h.series[s].Device, m.h.series[s].Quantity,
			client.WithRange(due, due.Add(mixedPeriod/2)))
		e.ops.check(err == nil && sameAgg(got, want), "read-your-writes batch %d series %d: err=%v got=%+v want=%+v", j, s, err, got, want)
		w.done("ryw", asked, time.Now(), 0)
	})
}

func (m *mixedRW) summarize(e *env, w *window) summary {
	rows := float64(w.lat["ack"].n()) * mixedBatchRows
	named := map[string]float64{
		"read_ops_per_s":     w.work.medianPerSecond(),
		"ack_ms_p50":         w.lat["ack"].p(0.5),
		"ack_ms_p95":         w.lat["ack"].p(0.95),
		"agg_glob_ms_p50":    w.lat["agg_glob"].p(0.5),
		"history_ms_p50":     w.lat["history"].p(0.5),
		"page_recent_ms_p50": w.lat["page_recent"].p(0.5),
	}
	if rows > 0 {
		named["sut_cpu_us_per_row"] = w.sutCPU * 1e6 / rows
	}
	return summary{primaryOp: "agg_glob", named: named}
}

func (m *mixedRW) finish(ctx context.Context, e *env) error { return stopWithFootprint(ctx, e) }

func (m *mixedRW) probeInputs(e *env) probeInputs {
	to, _ := m.cut()
	return readProbeInputs(m.h, to.Add(-mixedRecent), to)
}
