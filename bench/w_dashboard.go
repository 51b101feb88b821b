package main

import (
	"context"
	"time"
)

// dashboardRead is the read path on its own: two closed-loop clients
// run a seeded mix of dashboard reads against a two-node cluster behind
// the coordinator, result cache off, nothing writing. The corpus —
// loaded through the coordinator during set-up, which is what setup_s
// times here — is minute data compacted into blocks on both nodes plus
// a 15-minute head at one sample per second.
type dashboardRead struct {
	cfg  runConfig
	h    *history
	rd   *reader
	rng  [dashClients]*rng
	deck [dashClients]*deck
}

const dashClients = 2

// dashMix is the op mix, in twentieths.
var dashMix = []share{
	{"agg_glob", 6}, {"history", 4}, {"page_recent", 4},
	{"stream_day", 2}, {"latest", 3}, {"area_query", 1},
}

func newDashboardRead(cfg runConfig) *dashboardRead {
	d := &dashboardRead{cfg: cfg}
	for i := range d.rng {
		d.rng[i] = newRNG(cfg.seed, uint64(i+1))
		d.deck[i] = newDeck(d.rng[i], dashMix)
	}
	return d
}

func (d *dashboardRead) spec() sutSpec { return readSpec(0) }

func (d *dashboardRead) opNames() []string {
	var names []string
	for _, m := range dashMix {
		names = append(names, m.op)
	}
	return names
}

// dashSizes are the corpus dimensions: quantities per device, coarse
// span at one sample a minute, fine span at one a second.
func dashSizes(cfg runConfig) (nq int, oldSpan, newSpan time.Duration) {
	if cfg.quick {
		return 2, 6 * time.Hour, time.Minute
	}
	return 4, 36 * time.Hour, 15 * time.Minute
}

func (d *dashboardRead) setup(ctx context.Context, e *env) error {
	nq, oldSpan, newSpan := dashSizes(d.cfg)
	d.h = newHistory(d.cfg.seed, makeSeries(readBuildings, readDevices, nq), e.anchor, oldSpan, time.Minute, newSpan, time.Second)
	d.rd = newReader(e, d.h, nil)
	return loadHistory(ctx, e, d.h)
}

// day is the span of the glob aggregate and the streamed export: 24 h,
// or half the coarse region at smoke sizes.
func (d *dashboardRead) day() time.Duration {
	return min(24*time.Hour, time.Duration(d.h.oldN)*d.h.oldStep/2)
}

func (d *dashboardRead) measure(ctx context.Context, e *env, w *window) error {
	day := d.day()
	closedLoop(ctx, w, dashClients, func(c int) {
		s := d.rng[c].intn(len(d.h.series))
		switch d.deck[c].draw() {
		case "agg_glob":
			d.rd.aggGlob(ctx, w, day, time.Duration(d.rng[c].intn(60))*time.Minute)
		case "history":
			d.rd.history(ctx, w, s)
		case "page_recent":
			d.rd.pageRecent(ctx, w, s)
		case "stream_day":
			d.rd.streamDay(ctx, w, s, day)
		case "latest":
			d.rd.latest(ctx, w, s)
		case "area_query":
			d.rd.areaQuery(ctx, w)
		}
	})
	return nil
}

func (d *dashboardRead) summarize(e *env, w *window) summary {
	reads := w.work.total()
	named := map[string]float64{
		"read_ops_per_s":     w.work.medianPerSecond(),
		"agg_glob_ms_p50":    w.lat["agg_glob"].p(0.5),
		"history_ms_p50":     w.lat["history"].p(0.5),
		"area_query_ms_p50":  w.lat["area_query"].p(0.5),
		"page_recent_ms_p50": w.lat["page_recent"].p(0.5),
		"stream_day_ms_p50":  w.lat["stream_day"].p(0.5),
		"latest_ms_p50":      w.lat["latest"].p(0.5),
	}
	if reads > 0 {
		named["sut_cpu_ms_per_read"] = w.sutCPU * 1e3 / reads
	}
	return summary{primaryOp: "agg_glob", named: named}
}

func (d *dashboardRead) finish(ctx context.Context, e *env) error { return stopWithFootprint(ctx, e) }

func (d *dashboardRead) probeInputs(e *env) probeInputs {
	return readProbeInputs(d.h, d.h.anchor.Add(-d.day()-30*time.Minute), d.h.anchor)
}
