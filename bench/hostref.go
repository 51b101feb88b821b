package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shares its cores with other
// tenants: the same code's memory-heavy work speeds up and slows down
// by 20–40 % from one minute to the next (README.md, "Host drift"),
// while pure ALU work does not. A number taken raw would say more
// about the neighbours than about the program. So every timed segment
// is bracketed by a short reference job — fixed, standard-library-only
// work of the same kind the system does (JSON encode and decode,
// allocation, map and slice growth) run on every core while the SUT
// idles — and the end-to-end times and rates are scaled by how fast
// the reference ran next to them, relative to a nominal host.
// The reference shares no code with the system under test, so no
// change to the system can move it.

// hostNominal is the reference rate (jobs per second per core) of the
// host the baseline was taken on; it only fixes the scale of the
// normalised figures.
const hostNominal = 350.0

// hostBurst is how long one reference sample runs.
const hostBurst = 400 * time.Millisecond

type refRow struct {
	Device   string    `json:"device"`
	Quantity string    `json:"quantity"`
	At       time.Time `json:"at"`
	Value    float64   `json:"value"`
}

// reference is the fixed job the host is timed on: encode rows to
// JSON, decode them back, and file the values by device.
type reference struct {
	rows  []refRow
	index map[string][]float64
	n     int
}

func newReference(rows int) *reference {
	r := &reference{rows: make([]refRow, rows), index: map[string][]float64{}}
	base := time.Unix(1_700_000_000, 0).UTC()
	for i := range r.rows {
		r.rows[i] = refRow{
			Device:   fmt.Sprintf("urn:district:ref/building:b%02d/device:m%02d", i%64, i%4),
			Quantity: "temperature", At: base.Add(time.Duration(i) * time.Second), Value: float64(i) * 0.01,
		}
	}
	return r
}

// job runs the reference once.
func (r *reference) job() {
	raw, _ := json.Marshal(r.rows)
	var back []refRow
	_ = json.Unmarshal(raw, &back)
	for _, p := range back {
		r.index[p.Device] = append(r.index[p.Device], p.Value)
	}
	if r.n++; r.n%50 == 0 {
		r.index = map[string][]float64{}
	}
}

// referenceJobs runs the reference job for d on one goroutine and
// returns jobs per second.
func referenceJobs(d time.Duration) float64 {
	r := newReference(1000)
	began := time.Now()
	for time.Since(began) < d {
		r.job()
	}
	return float64(r.n) / time.Since(began).Seconds()
}

// hostSpeed samples the host: the reference job on every core at once,
// as a share of the nominal host's rate (1.0 = nominal, 0.5 = half as
// fast).
func hostSpeed() float64 {
	cores := runtime.NumCPU()
	rates := make([]float64, cores)
	var wg sync.WaitGroup
	for i := range rates {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rates[i] = referenceJobs(hostBurst)
		}(i)
	}
	wg.Wait()
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	return sum / float64(cores) / hostNominal
}

// A workload that wakes for a few milliseconds every period and idles
// in between meets the host differently from one that keeps the cores
// busy: each burst starts on cold caches and a parked virtual CPU, and
// how much that costs changes from second to second with the
// neighbours. Samples taken between segments do not see it (README.md,
// "Host drift"). Such a workload paces the reference instead: one
// small job in the idle middle of every period, on the same rhythm as
// its own operations, timed one by one.

// pacedRows sizes the paced job; pacedNominal is what one job takes on
// the nominal host.
const (
	pacedRows    = 100
	pacedNominal = 250 * time.Microsecond
)

// paceReference runs one reference job half a period after every tick
// of the open loop that started at start, until the window ends, and
// records how long each took once the timed interval has opened. It
// returns when the window is over.
func (w *window) paceReference(ctx context.Context, start time.Time, period time.Duration) {
	ref := newReference(pacedRows)
	openLoop(ctx, start.Add(period/2), period, w.end, nil, func(int, time.Time) {
		began := time.Now()
		ref.job()
		if !began.Before(w.start) {
			w.ref.add(time.Since(began))
		}
	})
}

// pacedSpeed is the host's speed over a window that paced the
// reference, as a share of the nominal host. The lower quartile of the
// job times: their upper half is the ticks that landed on a descheduled
// CPU, while the speed the work ran at — which the workload's median
// latency and CPU per row follow — shows in the fast ones.
func pacedSpeed(w *window) float64 {
	return float64(pacedNominal) / float64(time.Millisecond) / w.ref.p(0.25)
}
