package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/measuredb"
	"repro/internal/tsdb"
)

// ingestBulk saturates the write path: two closed-loop connections
// append keyed 1000-row batches that backfill 512 series from 30 days
// ago at one sample per second and series, so every compaction cycle
// has rows older than the head window to cut into blocks. Nothing
// queries, nothing subscribes.
type ingestBulk struct {
	cfg    runConfig
	series []seriesID
	// batches[c] is how many batches connection c has had acked; the
	// expected per-series row counts of the crash check follow from it.
	batches [ingestConns]int
}

const (
	ingestConns     = 2
	ingestBatchRows = 1000
	ingestBackfill  = 30 * 24 * time.Hour
)

func newIngestBulk(cfg runConfig) *ingestBulk {
	b := &ingestBulk{cfg: cfg, series: makeSeries(64, 4, 2)} // 256 devices × 2 quantities
	if cfg.quick {
		b.series = makeSeries(4, 4, 2)
	}
	return b
}

func (b *ingestBulk) spec() sutSpec {
	return sutSpec{Buildings: 2, Devices: 2, MeasureShards: 8}
}

func (b *ingestBulk) opNames() []string { return []string{"ack"} }

func (b *ingestBulk) setup(ctx context.Context, e *env) error { return nil }

// batch builds batch j of connection c. Connection c owns one half of
// the series; row r of its batch j is sample (j·1000+r)/half of series
// (j·1000+r)%half, so each series advances one second at a time.
func (b *ingestBulk) batch(e *env, c, j int, buf []measuredb.Point) []measuredb.Point {
	half := len(b.series) / ingestConns
	base := e.anchor.Add(-ingestBackfill)
	buf = buf[:0]
	for r := 0; r < ingestBatchRows; r++ {
		n := j*ingestBatchRows + r
		s, k := c*half+n%half, n/half
		buf = append(buf, measuredb.Point{
			Device: b.series[s].Device, Quantity: b.series[s].Quantity,
			At: base.Add(time.Duration(k) * time.Second), Value: valueAt(b.cfg.seed, s, int64(k)),
		})
	}
	return buf
}

func (b *ingestBulk) measure(ctx context.Context, e *env, w *window) error {
	ing := e.cl.Ingest(e.sut.Measure)
	var wg sync.WaitGroup
	for c := 0; c < ingestConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []measuredb.Point
			for time.Now().Before(w.end) && ctx.Err() == nil {
				buf = b.batch(e, c, b.batches[c], buf)
				var res *measuredb.IngestResult
				sent := time.Now()
				done, err := w.call(ctx, "ack", len(buf), func(ctx context.Context) (err error) {
					res, err = ing.Append(ctx, buf)
					return err
				})
				if !e.ops.check(err == nil && res.Accepted == len(buf) && res.Rejected == 0,
					"ingest batch %d/%d: err=%v result=%+v", c, b.batches[c], err, res) {
					if err != nil {
						return // the connection's series would no longer be contiguous
					}
				}
				b.batches[c]++
				w.done("ack", sent, done, float64(len(buf)))
			}
		}(c)
	}
	wg.Wait()
	return nil
}

func (b *ingestBulk) summarize(e *env, w *window) summary {
	rows := w.work.total()
	named := map[string]float64{
		"rows_per_s": w.work.medianPerSecond(),
		"ack_ms_p50": w.lat["ack"].p(0.5),
		"ack_ms_p95": w.lat["ack"].p(0.95),
	}
	if rows > 0 {
		named["sut_cpu_us_per_row"] = w.sutCPU * 1e6 / rows
	}
	return summary{primaryOp: "ack", named: named}
}

// ackedRows is every row the SUT has acknowledged so far.
func (b *ingestBulk) ackedRows() int {
	n := 0
	for _, j := range b.batches {
		n += j * ingestBatchRows
	}
	return n
}

// finish forces a compaction and reads the footprint, then crashes the
// SUT with SIGKILL, reopens its storage directory in this process, and
// checks that every acknowledged row is there.
func (b *ingestBulk) finish(ctx context.Context, e *env) error {
	ops := e.cl.Ops(e.sut.Measure)
	if err := ops.Compact(ctx, -1); err != nil {
		return fmt.Errorf("forced compaction: %w", err)
	}
	disk, err := footprint(ctx, e)
	if err != nil {
		return err
	}
	if rows := b.ackedRows(); rows > 0 {
		e.named["disk_bytes_per_row"] = disk / float64(rows)
	}

	e.sut.kill()
	began := time.Now()
	eng, err := tsdb.OpenSharded(tsdb.ShardedOptions{Dir: e.sut.tsdbDir(0)})
	if err != nil {
		return fmt.Errorf("reopen after SIGKILL: %w", err)
	}
	e.layer["tsdb.recovery_ms"] = float64(time.Since(began)) / float64(time.Millisecond)
	defer eng.Close()

	half := len(b.series) / ingestConns
	from, to := e.anchor.Add(-ingestBackfill-time.Hour), e.anchor.Add(time.Hour)
	for s, id := range b.series {
		c, ls := s/half, s%half
		rows := b.batches[c] * ingestBatchRows
		want := rows / half
		if ls < rows%half {
			want++
		}
		a, err := eng.Aggregate(tsdb.SeriesKey{Device: id.Device, Quantity: id.Quantity}, from, to)
		if want == 0 && err != nil {
			continue
		}
		e.ops.check(err == nil && a.Count == want,
			"after SIGKILL series %d holds %d rows, %d were acknowledged (err=%v)", s, a.Count, want, err)
	}
	return nil
}

func (b *ingestBulk) probeInputs(e *env) probeInputs {
	return probeInputs{batch: b.batch(e, 0, 0, nil), series: b.series,
		from: e.anchor.Add(-ingestBackfill - time.Hour), to: time.Now().Add(time.Hour),
		write: true, opRows: ingestBatchRows}
}
