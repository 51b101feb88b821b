package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/measuredb"
	"repro/internal/stream"
)

// liveVisibility measures per-request latency at low utilisation: one
// open-loop sender appends 40 batches a second, each one fresh sample
// for all 64 series (16 devices × 4 quantities) stamped with the
// batch's due time, while one SSE subscriber on measurements/# waits
// for every row. Commit grouping and compaction stay idle, so added
// waiting shows here.
//
// A batch is a quarter of the hub's per-subscriber queue (256 entries)
// on purpose: the hub evicts a subscriber whose queue overflows, the
// client reconnects 100–300 ms later, and the 1024-entry replay ring
// must not have turned over by then or rows are lost (README.md,
// "Known limits of the SUT"). At 64 rows a batch the ring holds 400 ms,
// so even an eviction only delays rows. A workload may not contain
// operations that fail.
type liveVisibility struct {
	cfg     runConfig
	series  []seriesID
	byTopic map[string]int

	mu      sync.Mutex
	sent    map[int64]*liveBatch // by the batch's stamp (Unix ns)
	batches int                  // batches sent so far, over every window
}

// liveBatch tracks one sent batch until all its rows were seen.
type liveBatch struct {
	index int
	due   time.Time
	acked bool
	seen  []bool
	left  int
}

const (
	livePeriod     = 25 * time.Millisecond // 40 batches/s
	liveLatestEach = 8                     // read-your-writes after every 8th ack
)

func newLiveVisibility(cfg runConfig) *liveVisibility {
	l := &liveVisibility{cfg: cfg, series: makeSeries(4, 4, 4), byTopic: map[string]int{}, sent: map[int64]*liveBatch{}}
	if cfg.quick {
		l.series = makeSeries(2, 4, 4)
	}
	for s, id := range l.series {
		l.byTopic[id.Topic] = s
	}
	return l
}

func (l *liveVisibility) spec() sutSpec {
	return sutSpec{Buildings: 2, Devices: 2, MeasureShards: 8}
}

func (l *liveVisibility) opNames() []string { return []string{"visible", "ack", "latest"} }

func (l *liveVisibility) setup(ctx context.Context, e *env) error { return nil }

func (l *liveVisibility) measure(ctx context.Context, e *env, w *window) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	sub, err := e.cl.Streams().SubscribeService(sctx, e.sut.Measure, measuredb.IngestPattern)
	if err != nil {
		return err
	}
	defer sub.Close()
	if err := waitSubscribed(ctx, e); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.receive(e, w, sub)
	}()

	ing, meas := e.cl.Ingest(e.sut.Measure), e.cl.Measurements(e.sut.Measure)
	rows := make([]measuredb.Point, len(l.series))
	start := time.Now().Truncate(time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.paceReference(ctx, start, livePeriod)
	}()
	openLoop(ctx, start, livePeriod, w.end, w.lag.add, func(_ int, due time.Time) {
		j := l.batches
		l.batches++
		lb := &liveBatch{index: j, due: due, seen: make([]bool, len(l.series)), left: len(l.series)}
		for s, id := range l.series {
			rows[s] = measuredb.Point{Device: id.Device, Quantity: id.Quantity, At: due, Value: valueAt(l.cfg.seed, s, int64(j))}
		}
		l.mu.Lock()
		l.sent[due.UnixNano()] = lb
		l.mu.Unlock()

		var res *measuredb.IngestResult
		done, err := w.call(ctx, "ack", len(rows), func(ctx context.Context) (err error) {
			res, err = ing.Append(ctx, rows)
			return err
		})
		ok := e.ops.check(err == nil && res.Accepted == len(rows) && res.Rejected == 0,
			"live batch %d: err=%v result=%+v", j, err, res)
		l.mu.Lock()
		lb.acked = ok
		l.mu.Unlock()
		w.done("ack", due, done, 0)
		if !ok || j%liveLatestEach != 0 {
			return
		}
		// Read-your-writes: the acked sample is the series' latest.
		s := j % len(l.series)
		asked := time.Now()
		m, err := meas.Latest(ctx, l.series[s].Device, l.series[s].Quantity)
		e.ops.check(err == nil && m.Timestamp.Equal(due) && m.Value == rows[s].Value,
			"latest after ack of batch %d: err=%v got=%+v want at=%v value=%v", j, err, m, due, rows[s].Value)
		w.done("latest", asked, time.Now(), 0)
	})

	// Every acked row must arrive; give the tail a moment, then stop
	// the subscriber and count what is still missing.
	l.awaitDelivery(2 * time.Second)
	cancel()
	sub.Close()
	wg.Wait()
	l.mu.Lock()
	for at, lb := range l.sent {
		if lb.acked {
			e.ops.check(lb.left == 0, "batch %d: %d acked rows never arrived on SSE", lb.index, lb.left)
		}
		delete(l.sent, at)
	}
	l.mu.Unlock()
	return nil
}

// waitSubscribed blocks until the hub reports a live subscriber, so no
// row is published before the subscription exists.
func waitSubscribed(ctx context.Context, e *env) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap, err := e.cl.Ops(e.sut.Measure).Metrics(ctx)
		if err != nil {
			return err
		}
		if indexSnapshot(snap).sum("repro_stream_subscribers") >= 1 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("SSE subscription did not come up")
}

// receive drains the subscription: each event is matched to the batch
// and series it belongs to, timed from the batch's due instant, and
// checked to be the first of its kind.
func (l *liveVisibility) receive(e *env, w *window, sub *stream.Subscription) {
	for ev := range sub.Events {
		now := time.Now()
		s, ok := l.byTopic[ev.Topic]
		if !ok {
			continue // the district's own devices, not this workload's
		}
		l.mu.Lock()
		lb := l.sent[ev.At.UnixNano()]
		switch {
		case lb == nil:
			l.mu.Unlock()
			e.ops.check(false, "SSE delivered a row never sent: %s at %v", ev.Topic, ev.At)
			continue
		case lb.seen[s]:
			l.mu.Unlock()
			e.ops.check(false, "SSE delivered batch %d series %d twice", lb.index, s)
			continue
		}
		lb.seen[s] = true
		lb.left--
		due, whole := lb.due, lb.left == 0
		l.mu.Unlock()
		e.ops.attempted.Add(1)
		// The batch's rows count as delivered when the last of them
		// arrives, so the delivery rate is measured batch to batch.
		work := 0.0
		if whole {
			work = float64(len(l.series))
		}
		w.done("visible", due, now, work)
	}
}

// awaitDelivery waits until every sent row has been seen, or the
// patience runs out.
func (l *liveVisibility) awaitDelivery(patience time.Duration) {
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) {
		l.mu.Lock()
		left := 0
		for _, lb := range l.sent {
			left += lb.left
		}
		l.mu.Unlock()
		if left == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (l *liveVisibility) summarize(e *env, w *window) summary {
	acks := float64(w.lat["ack"].n())
	rows := acks * float64(len(l.series))
	named := map[string]float64{
		"ack_ms_p50":     w.lat["ack"].p(0.5),
		"ack_ms_p95":     w.lat["ack"].p(0.95),
		"visible_ms_p50": w.lat["visible"].p(0.5),
		"visible_ms_p95": w.lat["visible"].p(0.95),
		"latest_ms_p50":  w.lat["latest"].p(0.5),
		// Delivery alone: from the ack to the row's arrival.
		"stream.sse_delivery_ms_p50": w.lat["visible"].p(0.5) - w.lat["ack"].p(0.5),
	}
	if rows > 0 {
		named["sut_cpu_us_per_row"] = w.sutCPU * 1e6 / rows
	}
	// The work rate is rows made visible per second: the offered rate,
	// unless the SUT falls behind.
	return summary{openLoop: true, primaryOp: "visible", named: named}
}

func (l *liveVisibility) finish(ctx context.Context, e *env) error { return stopWithFootprint(ctx, e) }

func (l *liveVisibility) probeInputs(e *env) probeInputs {
	now := time.Now().UTC().Truncate(time.Millisecond)
	batch := make([]measuredb.Point, 0, 4*len(l.series))
	for j := 0; j < 4; j++ {
		for s, id := range l.series {
			batch = append(batch, measuredb.Point{Device: id.Device, Quantity: id.Quantity,
				At: now.Add(time.Duration(j) * livePeriod), Value: valueAt(l.cfg.seed, s, int64(j))})
		}
	}
	return probeInputs{batch: batch, series: l.series, from: e.anchor.Add(-time.Hour), to: now.Add(time.Hour),
		write: true, opRows: len(l.series)}
}
