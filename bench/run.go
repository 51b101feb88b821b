package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
)

// runConfig is one benchmark run: one workload, one seed.
type runConfig struct {
	workload string
	seed     int64
	seconds  int  // timed seconds of a phase, over all its segments
	trace    bool // also run the traced phase and the probes
	quick    bool // smoke sizes: tiny corpus, one set-up
	outDir   string
}

// warmup is the untimed load that precedes a phase's first segment;
// operations in it are checked but not timed.
func (c runConfig) warmup() time.Duration {
	if c.quick {
		return 250 * time.Millisecond
	}
	return 2 * time.Second
}

// segmentLead is the untimed load at the head of every segment: the
// load is back at speed when the timed interval opens.
const segmentLead = 250 * time.Millisecond

// opCounter is the failure accounting every check reports into: an
// operation that errors, is refused, or answers differently from the
// generator's reference counts as failed.
type opCounter struct {
	attempted atomic.Int64
	failed    atomic.Int64

	mu   sync.Mutex
	msgs []string
}

// check counts one operation; ok=false fails it with a reason (the
// first few reasons are kept for the report).
func (o *opCounter) check(ok bool, format string, args ...any) bool {
	o.attempted.Add(1)
	if !ok {
		o.failed.Add(1)
		o.mu.Lock()
		if len(o.msgs) < 8 {
			o.msgs = append(o.msgs, fmt.Sprintf(format, args...))
		}
		o.mu.Unlock()
	}
	return ok
}

// window is one warm-up plus timed interval. Operations are credited
// to the window when they complete inside [start, end).
type window struct {
	start, end time.Time
	work       *sliceCounter
	lat        map[string]*latencies // by op name; fixed key set per workload
	lag        latencies             // open-loop lateness
	ref        latencies             // paced reference jobs (hostref.go); empty unless the workload paces one
	tr         *tracer               // nil on untraced windows

	sutCPU, genCPU float64 // CPU seconds spent inside the timed interval
}

func newWindow(warmup, length time.Duration, ops []string, tr *tracer) *window {
	start := time.Now().Add(warmup)
	w := &window{
		start: start, end: start.Add(length),
		work: newSliceCounter(start, int((length+time.Second-1)/time.Second)),
		lat:  map[string]*latencies{},
		tr:   tr,
	}
	for _, op := range ops {
		w.lat[op] = new(latencies)
	}
	return w
}

func (w *window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// done credits one finished operation: its latency from `from` (the
// send time in a closed loop, the due time in an open one) and `work`
// units of throughput.
func (w *window) done(op string, from, finished time.Time, work float64) {
	if finished.Before(w.start) || !finished.Before(w.end) {
		return
	}
	w.lat[op].add(finished.Sub(from))
	if work > 0 {
		w.work.add(finished, work)
	}
}

// meterCPU samples SUT and generator CPU at the timed interval's edges;
// it returns once the interval is over.
func (w *window) meterCPU(s *sut) {
	time.Sleep(time.Until(w.start))
	s0, _ := s.cpuSeconds()
	g0, _ := procCPUSeconds(os.Getpid())
	time.Sleep(time.Until(w.end))
	s1, _ := s.cpuSeconds()
	g1, _ := procCPUSeconds(os.Getpid())
	w.sutCPU, w.genCPU = s1-s0, g1-g0
}

// call runs one client operation, under a fresh trace ID and a
// recorded client span when the window is traced. It returns when the
// operation finished.
func (w *window) call(ctx context.Context, name string, rows int, fn func(context.Context) error) (time.Time, error) {
	if w.tr == nil {
		err := fn(ctx)
		return time.Now(), err
	}
	return w.tr.call(ctx, name, rows, fn)
}

// absorb pools another window's samples into w (the phase-wide view
// the workload summarises its own named figures from).
func (w *window) absorb(o *window) {
	w.work.slices = append(w.work.slices, o.work.slices...)
	for op, l := range o.lat {
		w.lat[op].ms = append(w.lat[op].ms, l.ms...)
	}
	w.lag.ms = append(w.lag.ms, o.lag.ms...)
	w.sutCPU += o.sutCPU
	w.genCPU += o.genCPU
	w.end = w.end.Add(o.end.Sub(o.start))
}

// env is what a workload works with.
type env struct {
	cfg runConfig
	ops opCounter
	cl  *client.Client
	sut *sut
	// anchor is the generator's clock origin for this set-up: whole
	// minute, taken before the SUT boots.
	anchor time.Time
	// named carries the workload's own end-to-end figures by their
	// issue names (ack_ms_p50, agg_glob_ms_p50, …), as measured; layer
	// the per-layer ones from the traced phase and the probes.
	named map[string]float64
	layer map[string]float64
	// What only the budget needs: the generator's median lateness (an
	// open loop times an op from its due instant, so the op's median
	// carries it) and the coordinator's own share of a sampled request.
	lagP50MS, hopSelfMS float64
}

// workload is one traffic mix with its topology, loader and oracle.
type workload interface {
	// spec sizes the SUT topology (DataDir is filled in by the runner).
	spec() sutSpec
	// opNames lists the latency series the workload records.
	opNames() []string
	// setup prepares a freshly booted SUT (loads the corpus); it is
	// timed, together with the boot, as setup_s.
	setup(ctx context.Context, e *env) error
	// measure drives the load through w's warm-up and timed interval.
	// It is called once per segment on one set-up and carries its
	// position in the input sequence from call to call.
	measure(ctx context.Context, e *env, w *window) error
	// summarize turns a finished window into the workload's figures:
	// the primary op and the issue-named metrics.
	summarize(e *env, w *window) summary
	// finish runs the post-load checks and leaves the SUT stopped.
	finish(ctx context.Context, e *env) error
	// probeInputs hands the in-process probes what this workload sent.
	probeInputs(e *env) probeInputs
}

// summary is what one window says about a workload.
type summary struct {
	openLoop  bool   // the work rate is set by a schedule, not by the SUT
	primaryOp string // latency series behind op_ms_p50
	named     map[string]float64
}

func newWorkload(cfg runConfig) (workload, error) {
	switch cfg.workload {
	case "ingest_bulk":
		return newIngestBulk(cfg), nil
	case "live_visibility":
		return newLiveVisibility(cfg), nil
	case "dashboard_read":
		return newDashboardRead(cfg), nil
	case "mixed_rw":
		return newMixedRW(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames)
}

var workloadNames = []string{"ingest_bulk", "live_visibility", "dashboard_read", "mixed_rw"}

// setupsPerRun is how many times a run sets the SUT up; setup_s is the
// median, the last set-up is the one measured.
const setupsPerRun = 3

// segmentSeconds is the length of one timed segment. A phase's
// --seconds are spent in segments this long, each bracketed by host
// reference samples, so that every segment is scaled by the host speed
// measured right beside it.
const segmentSeconds = 2

// result is one finished run.
type result struct {
	Workload  string
	Seed      int64
	Attempted int64
	Failed    int64
	Failures  []string
	E2E       map[string]float64
	Named     map[string]float64
	Layer     map[string]float64
	Setups    []float64
	SUTProcs  int
}

// phase is the outcome of one measured phase: the host-normalised
// end-to-end figures (medians over its segments) and the pooled window.
type phase struct {
	workPerS, opP50, cpuPerWork float64
	host                        float64 // mean host speed beside the segments
	pooled                      *window
	sum                         summary
}

// measurePhase spends cfg.seconds of timed load in segments. Every
// segment's figures are scaled by the host's speed beside it — the
// reference the workload paced between its own operations when it did
// (an open loop with idle gaps), else the samples taken before and
// after the segment with the SUT idle — and the phase reports the
// median segment.
func measurePhase(ctx context.Context, e *env, wl workload, seconds int, tr *tracer) (*phase, error) {
	// An untimed window first: it fills caches and connection pools,
	// and shows whether the workload paces its own reference.
	warm := newWindow(0, e.cfg.warmup(), wl.opNames(), tr)
	if err := wl.measure(ctx, e, warm); err != nil {
		return nil, err
	}
	paced := warm.ref.n() > 0
	sample := func() float64 {
		if paced {
			return 0
		}
		return e.hostSpeed()
	}

	n := max(seconds/segmentSeconds, 1)
	length := time.Duration(seconds) * time.Second / time.Duration(n)
	var work, p50, cpu, hosts []float64
	var pooled *window
	before := sample()
	for i := 0; i < n; i++ {
		w := newWindow(segmentLead, length, wl.opNames(), tr)
		metered := make(chan struct{})
		go func() { w.meterCPU(e.sut); close(metered) }()
		if err := wl.measure(ctx, e, w); err != nil {
			return nil, err
		}
		<-metered
		after := sample()
		host := (before + after) / 2
		if paced {
			host = pacedSpeed(w)
		}
		before = after
		s := wl.summarize(e, w)
		hosts = append(hosts, host)
		// A slow host does less work per second and takes longer per
		// op; scale both to the nominal host. An open loop's rate is
		// the schedule's, whatever the host does.
		rate := w.work.rate()
		if !s.openLoop {
			rate /= host
		}
		work = append(work, rate)
		p50 = append(p50, w.lat[s.primaryOp].p(0.5)*host)
		if total := w.work.total(); total > 0 {
			cpu = append(cpu, w.sutCPU*1e6/total*host)
		}
		if pooled == nil {
			pooled = w
		} else {
			pooled.absorb(w)
		}
	}
	mean := 0.0
	for _, h := range hosts {
		mean += h / float64(len(hosts))
	}
	return &phase{workPerS: median(work), opP50: median(p50), cpuPerWork: median(cpu), host: mean,
		pooled: pooled, sum: wl.summarize(e, pooled)}, nil
}

// runOne executes one run of one workload.
func runOne(ctx context.Context, cfg runConfig) (*result, error) {
	wl, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(cfg.outDir, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	e := &env{
		cfg: cfg,
		// One attempt per request: a retried request would hide a
		// refusal the failure accounting must see.
		cl:    &client.Client{MaxAttempts: 1},
		named: map[string]float64{}, layer: map[string]float64{},
	}
	defer func() {
		if e.sut != nil {
			e.sut.kill()
		}
	}()

	// Set up several times; keep the last. Each set-up is scaled by the
	// host speed sampled around it, like the timed segments.
	n := setupsPerRun
	if cfg.quick || cfg.trace {
		n = 1
	}
	var setups []float64
	before := e.hostSpeed()
	for i := 0; i < n; i++ {
		if e.sut != nil {
			e.sut.kill()
			if err := os.RemoveAll(e.sut.spec.DataDir); err != nil {
				return nil, err
			}
		}
		spec := wl.spec()
		spec.DataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", i))
		began := time.Now()
		e.anchor = began.UTC().Truncate(time.Minute)
		if e.sut, err = startSUT(spec); err != nil {
			return nil, err
		}
		e.cl.MasterURL = e.sut.Master
		if err := wl.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		took := time.Since(began).Seconds()
		after := e.hostSpeed()
		setups = append(setups, took*(before+after)/2)
		before = after
	}

	res := &result{Workload: cfg.workload, Seed: cfg.seed, Setups: setups, SUTProcs: e.sut.GoMaxProcs,
		E2E: map[string]float64{}, Named: e.named, Layer: e.layer}

	// Untraced phase: the end-to-end figures.
	ph, err := measurePhase(ctx, e, wl, cfg.seconds, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	for k, v := range ph.sum.named {
		e.named[k] = v
	}
	primary := ph.pooled.lat[ph.sum.primaryOp]
	res.E2E["setup_s"] = median(setups)
	res.E2E["work_per_s"] = ph.workPerS
	res.E2E["op_ms_p50"] = ph.opP50
	res.E2E["sut_cpu_us_per_work"] = ph.cpuPerWork
	e.named["op_ms_p95"] = primary.p(0.95)
	e.named["op_samples"] = float64(primary.n())
	e.layer["gen.host_speed"] = ph.host
	e.layer["gen.lag_ms_p95"] = ph.pooled.lag.p(0.95)
	e.lagP50MS = ph.pooled.lag.p(0.5)
	e.layer["gen.cpu_share"] = ph.pooled.genCPU / (ph.pooled.seconds() * float64(runtime.NumCPU()))

	if cfg.trace {
		if err := tracedPhase(ctx, e, wl, ph); err != nil {
			return nil, err
		}
	}
	if rss, err := e.sut.peakRSSMB(); err == nil {
		res.E2E["sut_rss_mb"] = rss
	}
	if err := wl.finish(ctx, e); err != nil {
		return nil, fmt.Errorf("%s finish: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := runProbes(e, wl); err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	res.Attempted, res.Failed = e.ops.attempted.Load(), e.ops.failed.Load()
	res.Failures = e.ops.msgs
	return res, nil
}

// tracedPhase repeats the load for half as long with every request
// traced, between two scrapes of the master and every measurements
// service.
func tracedPhase(ctx context.Context, e *env, wl workload, untraced *phase) error {
	services := e.sut.Nodes
	if e.sut.spec.MeasureNodes > 1 {
		services = append([]string{e.sut.Measure}, services...)
	}
	scrapeAll := func() (map[string]scrape, error) {
		out := map[string]scrape{}
		for _, base := range append([]string{e.sut.Master}, services...) {
			snap, err := e.cl.Ops(base).Metrics(ctx)
			if err != nil {
				return nil, fmt.Errorf("scrape %s: %w", base, err)
			}
			out[base] = indexSnapshot(snap)
		}
		return out, nil
	}
	seconds := max(e.cfg.seconds/2, 1)
	tr := newTracer(e.cl, services)
	before, err := scrapeAll()
	if err != nil {
		return err
	}
	ph, err := measurePhase(ctx, e, wl, seconds, tr)
	if err != nil {
		return fmt.Errorf("%s traced: %w", e.cfg.workload, err)
	}
	after, err := scrapeAll()
	if err != nil {
		return err
	}
	deltas := map[string]scrapeDelta{}
	for base := range before {
		deltas[base] = scrapeDelta{before: before[base], after: after[base]}
	}
	if untraced.opP50 > 0 {
		e.layer["trace.overhead_share"] = ph.opP50 / untraced.opP50
	}
	scrapeBreakdown(e, deltas, tr, ph.sum.primaryOp, float64(seconds))
	if err := areaBreakdown(ctx, e); err != nil {
		return err
	}
	return tr.write(filepath.Join(e.cfg.outDir, "trace-"+e.cfg.workload+".jsonl"))
}

// footprint reads every node's /v1/storage report into the block-layer
// metrics and returns the bytes the storage directories hold.
func footprint(ctx context.Context, e *env) (disk float64, err error) {
	var blockBytes, blockSamples, files float64
	for _, node := range e.sut.Nodes {
		st, err := e.cl.Ops(node).StorageStatus(ctx)
		if err != nil {
			return 0, fmt.Errorf("storage status %s: %w", node, err)
		}
		for _, sh := range st.Shards {
			disk += float64(sh.DiskBytes)
			blockBytes += float64(sh.BlockBytes)
			blockSamples += float64(sh.BlockSamples)
			files += float64(sh.Blocks)
		}
	}
	if blockSamples > 0 {
		e.layer["block.bytes_per_sample"] = blockBytes / blockSamples
	}
	e.layer["block.files"] = files
	return disk, nil
}

// stopWithFootprint is the finish of a workload with no crash check.
// The child is killed, not shut down: an orderly close of a 64-proxy
// district takes seconds the run has no use for, and the probes reopen
// the directory through the same recovery path either way.
func stopWithFootprint(ctx context.Context, e *env) error {
	_, err := footprint(ctx, e)
	e.sut.kill()
	return err
}

// hostSpeed samples the host beside a measurement; smoke runs skip the
// sample and count the host as nominal.
func (e *env) hostSpeed() float64 {
	if e.cfg.quick {
		return 1
	}
	return hostSpeed()
}
