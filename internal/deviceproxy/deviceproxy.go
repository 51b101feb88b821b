// Package deviceproxy implements the Device-proxy of Fig. 1(b) of the
// paper, with its three layers:
//
//  1. the *dedicated layer* — a protocol-specific Driver that collects
//     data from the device (and pushes actuation commands to it);
//  2. the *local database* — a time-series buffer of collected samples;
//  3. the *Web Service layer* — the REST interface for remote management,
//     data access and actuator control, which also publishes every
//     sample into the middleware network with a publish/subscribe
//     approach and registers the proxy on the master node.
package deviceproxy

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/measuredb"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/proxyhttp"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/tsdb"
)

func init() {
	// Store sentinels → HTTP statuses. Also registered by measuredb;
	// RegisterStatus dedupes, and registering here keeps /data status
	// mapping correct even if the measuredb import ever goes away.
	api.RegisterStatus(tsdb.ErrNoSeries, http.StatusNotFound)
	api.RegisterStatus(tsdb.ErrBadInterval, http.StatusBadRequest)
}

// Reading is one sample the dedicated layer collected from the device.
type Reading struct {
	Quantity dataformat.Quantity
	Value    float64
	Unit     dataformat.Unit
	// Battery is the device battery percentage; negative means unknown
	// (mains-powered or energy-harvesting devices).
	Battery float64
	// At is the sample time; zero means "now".
	At time.Time
}

// Driver is the dedicated layer: the protocol-specific adapter between
// the proxy and one physical (here: simulated) device.
type Driver interface {
	// Poll collects the device's current readings.
	Poll() ([]Reading, error)
	// Actuate pushes a command to the device.
	Actuate(q dataformat.Quantity, value float64) error
	// Protocol names the device's native technology.
	Protocol() string
	// Close releases the driver's resources.
	Close() error
}

// ErrNotActuator is returned by drivers for unsupported actuation.
var ErrNotActuator = errors.New("deviceproxy: device has no actuator for quantity")

// SampleWriter is the /v2 ingest hook: collected samples are handed to
// it as self-contained rows, batched and shipped by the implementation
// (client.(*Ingest).Batcher is the canonical one).
type SampleWriter interface {
	Add(p measuredb.Point) error
}

// Options configure a device proxy.
type Options struct {
	// DeviceURI is the device's ontology URI (required).
	DeviceURI string
	// Name is the device's human-readable name.
	Name string
	// Driver is the dedicated layer (required).
	Driver Driver
	// Model describes the hardware.
	Model string
	// Senses and Actuates describe the device's capabilities for /info.
	Senses   []dataformat.Quantity
	Actuates []dataformat.Quantity
	// Location georeferences the device.
	Location *dataformat.Location
	// PollEvery is the dedicated layer's sampling period (default 1s).
	PollEvery time.Duration
	// LocalEngine overrides the middle layer's engine. The default is an
	// in-memory one-shard tsdb.NewSharded ring of 8192 samples per
	// quantity; a durable tsdb.OpenSharded engine keeps the proxy's sample
	// buffer across a restart (-data-dir on the deviceproxy binary).
	LocalEngine tsdb.Engine
	// Writer, when set, ships every collected sample to the measurements
	// DB through the /v2 ingest plane (typically a client ingest
	// batcher). The proxy publishes every sample on its own stream hub
	// for its /v1/stream subscribers either way.
	Writer SampleWriter
	// MasterURL, when set, registers the proxy with the master node.
	MasterURL string
	// RateLimit, when set, throttles the hot data routes (/data, /latest,
	// /aggregate) and the stream publish ingress per client IP. It is
	// surfaced in /v1/metrics as the "read" tier.
	RateLimit *api.RateLimiter
	// Stream tunes the proxy's streaming subsystem.
	Stream stream.Options
	// DisableLegacyAliases drops the unversioned route aliases; only
	// versioned paths are then served.
	DisableLegacyAliases bool
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof.
	EnablePprof bool
}

// Proxy is a running device proxy.
type Proxy struct {
	opts    Options
	store   tsdb.Engine
	srv     proxyhttp.Server
	apiS    *api.Server
	reg     *proxyhttp.Registrar
	streamS *stream.Service

	mu      sync.Mutex
	battery float64
	stopCh  chan struct{}
	wg      sync.WaitGroup
	started bool

	stats struct {
		sync.Mutex
		polls     uint64
		pollErrs  uint64
		samples   uint64
		published uint64
		controls  uint64
	}
}

// New creates a device proxy. Run starts its layers.
func New(opts Options) (*Proxy, error) {
	if opts.DeviceURI == "" {
		return nil, errors.New("deviceproxy: missing DeviceURI")
	}
	if opts.Driver == nil {
		return nil, errors.New("deviceproxy: missing Driver")
	}
	if opts.PollEvery <= 0 {
		opts.PollEvery = time.Second
	}
	store := opts.LocalEngine
	if store == nil {
		store = tsdb.NewSharded(tsdb.ShardedOptions{Shards: 1, Store: tsdb.Options{MaxSamplesPerSeries: 8192}})
	}
	p := &Proxy{opts: opts, store: store, battery: -1, stopCh: make(chan struct{})}
	// The proxy's own hub carries every sample it collects, so remote
	// peers can subscribe to this one device live.
	streamOpts := opts.Stream
	if streamOpts.PublishLimiter == nil {
		streamOpts.PublishLimiter = opts.RateLimit
	}
	var err error
	if p.streamS, err = stream.NewService(streamOpts); err != nil {
		return nil, fmt.Errorf("deviceproxy: stream: %w", err)
	}
	p.apiS = p.buildAPI()
	return p, nil
}

// Stream exposes the proxy's streaming service; everything the proxy
// publishes goes through its hub.
func (p *Proxy) Stream() *stream.Service { return p.streamS }

// Metrics exposes the per-route API metrics.
func (p *Proxy) Metrics() *api.Metrics { return p.apiS.Metrics() }

// SetLegacyAliases toggles the unversioned route aliases at runtime.
func (p *Proxy) SetLegacyAliases(enabled bool) { p.apiS.SetLegacyAliases(enabled) }

// LocalDB exposes the middle layer (tests, benchmarks).
func (p *Proxy) LocalDB() tsdb.Engine { return p.store }

// Run starts the web service on addr, the sampling loop, and (when a
// master URL is configured) the registration. It returns the bound
// web-service address.
func (p *Proxy) Run(addr string) (string, error) {
	bound, err := p.srv.Serve(addr, p.Handler())
	if err != nil {
		return "", err
	}
	if p.opts.MasterURL != "" {
		p.reg = &proxyhttp.Registrar{
			MasterURL: p.opts.MasterURL,
			Registration: registry.Registration{
				ID:        "devproxy:" + p.opts.DeviceURI,
				Kind:      registry.KindDevice,
				BaseURL:   "http://" + bound + "/",
				EntityURI: p.opts.DeviceURI,
				Protocol:  p.opts.Driver.Protocol(),
			},
		}
		if err := p.reg.Start(); err != nil {
			p.srv.Close()
			return "", err
		}
	}
	p.mu.Lock()
	p.started = true
	p.mu.Unlock()
	p.wg.Add(1)
	go p.sampleLoop()
	return bound, nil
}

// sampleLoop is the dedicated layer's collection loop.
func (p *Proxy) sampleLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.opts.PollEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			p.PollOnce()
		case <-p.stopCh:
			return
		}
	}
}

// PollOnce performs one collection cycle: poll the driver, buffer the
// readings in the local database with one batch append, publish the
// stored ones to the middleware. It is exported so simulations and
// benchmarks can drive the proxy without waiting on timers.
func (p *Proxy) PollOnce() {
	readings, err := p.opts.Driver.Poll()
	p.stats.Lock()
	p.stats.polls++
	if err != nil {
		p.stats.pollErrs++
		p.stats.Unlock()
		return
	}
	p.stats.Unlock()
	if len(readings) == 0 {
		return
	}
	now := time.Now().UTC()
	rows := make([]tsdb.Row, len(readings))
	for i, r := range readings {
		at := r.At
		if at.IsZero() {
			at = now
		}
		if r.Battery >= 0 {
			p.mu.Lock()
			p.battery = r.Battery
			p.mu.Unlock()
		}
		rows[i] = tsdb.Row{
			Key:    tsdb.SeriesKey{Device: p.opts.DeviceURI, Quantity: string(r.Quantity)},
			Sample: tsdb.Sample{At: at, Value: r.Value},
		}
	}
	errs := p.store.AppendBatch(rows)
	ms := make([]dataformat.Measurement, 0, len(readings))
	for i, r := range readings {
		if errs != nil && errs[i] != nil {
			continue // not buffered: neither counted nor published
		}
		ms = append(ms, dataformat.Measurement{
			Source:    "http://" + p.srv.Addr() + "/",
			Device:    p.opts.DeviceURI,
			Protocol:  p.opts.Driver.Protocol(),
			Quantity:  r.Quantity,
			Unit:      r.Unit,
			Value:     r.Value,
			Timestamp: rows[i].Sample.At,
			Location:  p.opts.Location,
		})
	}
	p.stats.Lock()
	p.stats.samples += uint64(len(ms))
	p.stats.Unlock()
	p.publish(ms)
}

// publish ships measurements out of the proxy: onto its own hub
// (feeding its /v1/stream subscribers) and, when a Writer is set, to
// the /v2 ingest plane as self-contained rows.
func (p *Proxy) publish(ms []dataformat.Measurement) {
	for i := range ms {
		payload, err := dataformat.NewMeasurementDoc(ms[i]).Encode(dataformat.JSON)
		if err != nil {
			continue
		}
		ev := middleware.Event{
			Topic:   measuredb.Topic(ms[i].Device, ms[i].Quantity),
			Payload: payload,
			Headers: map[string]string{"content-type": "application/json"},
			At:      ms[i].Timestamp,
		}
		_ = p.streamS.Hub().Publish(ev) // live feed is best-effort; the hub counts a refusal
		if p.opts.Writer == nil {
			continue
		}
		row := measuredb.Point{
			Device:   ms[i].Device,
			Quantity: string(ms[i].Quantity),
			At:       ms[i].Timestamp,
			Value:    ms[i].Value,
		}
		if err := p.opts.Writer.Add(row); err == nil {
			p.stats.Lock()
			p.stats.published++
			p.stats.Unlock()
		}
	}
}

// Stats are cumulative proxy counters. Published counts samples the
// Writer's batcher accepted (delivery outcomes are the batcher's
// OnError/OnResult and the DB's own counters).
type Stats struct {
	Polls     uint64 `json:"polls"`
	PollErrs  uint64 `json:"pollErrors"`
	Samples   uint64 `json:"samples"`
	Published uint64 `json:"published"`
	Controls  uint64 `json:"controls"`
}

// Stats returns a snapshot of the proxy counters.
func (p *Proxy) Stats() Stats {
	p.stats.Lock()
	defer p.stats.Unlock()
	return Stats{
		Polls: p.stats.polls, PollErrs: p.stats.pollErrs,
		Samples: p.stats.samples, Published: p.stats.published,
		Controls: p.stats.controls,
	}
}

// Close stops the proxy: sampling loop, registration, web service,
// driver, local database.
func (p *Proxy) Close() {
	p.mu.Lock()
	started := p.started
	p.started = false
	p.mu.Unlock()
	if started {
		close(p.stopCh)
		p.wg.Wait()
	}
	if p.reg != nil {
		p.reg.Stop()
	}
	p.srv.Close()
	if err := p.streamS.Close(); err != nil {
		slog.Error("stream close", "service", "deviceproxy", "err", err)
	}
	_ = p.opts.Driver.Close()
	p.store.Close()
}

// buildAPI registers the web-service layer on the unified API layer
// (versioned /v1 paths with legacy aliases):
//
//	GET  /v1/info                        device description document
//	GET  /v1/data?quantity=&from=&to=    buffered samples
//	GET  /v1/latest?quantity=            most recent sample
//	GET  /v1/aggregate?quantity=&window= downsampled buckets
//	POST /v1/control                     control-result document back
//	POST /v1/devices/actuate             batch actuation (many quantities)
//	GET  /v1/stats
//	GET  /v1/stream?topic=<pattern>      live samples (SSE)
//	POST /v1/publish                     event ingress (middleware.Event JSON)
//	GET  /v1/metrics, /v1/healthz
//
// The hot data routes are rate-limited per client IP when Options.RateLimit
// is set (429 + Retry-After on rejection).
func (p *Proxy) buildAPI() *api.Server {
	s := api.NewServer(api.Options{
		Service:              "deviceproxy",
		DisableLegacyAliases: p.opts.DisableLegacyAliases,
		EnablePprof:          p.opts.EnablePprof,
	})
	reg := obs.NewRegistry()
	p.streamS.RegisterMetrics(reg)
	reg.GaugeFunc("repro_device_buffer_samples",
		"Samples held in the proxy's local buffer.", nil,
		func() float64 { return float64(p.store.Stats().Samples) })
	reg.GaugeFunc("repro_device_buffer_series",
		"Series held in the proxy's local buffer.", nil,
		func() float64 { return float64(p.store.Stats().Series) })
	s.Metrics().AttachRegistry(reg)
	limit := func(h http.Handler) http.Handler {
		if p.opts.RateLimit == nil {
			return h
		}
		return api.RateLimit(p.opts.RateLimit)(h)
	}
	s.Metrics().RegisterLimiter("read", p.opts.RateLimit)
	if p.opts.Stream.PublishLimiter != nil && p.opts.Stream.PublishLimiter != p.opts.RateLimit {
		s.Metrics().RegisterLimiter("publish", p.opts.Stream.PublishLimiter)
	}
	s.Get("/info", p.info)
	s.Handle(http.MethodGet, "/data", limit(api.Query(p.data)))
	s.Handle(http.MethodGet, "/latest", limit(api.Query(p.latest)))
	s.Handle(http.MethodGet, "/aggregate", limit(api.Query(p.aggregate)))
	s.Handle(http.MethodPost, "/control", api.Body(p.control))
	s.Handle(http.MethodPost, "/devices/actuate", api.Body(p.actuateBatch))
	s.Get("/stats", func(ctx context.Context, q url.Values) (any, error) {
		return p.Stats(), nil
	})
	p.streamS.Mount(s)
	return s
}

// Handler returns the web-service layer.
func (p *Proxy) Handler() http.Handler { return p.apiS.Handler() }

func (p *Proxy) info(ctx context.Context, q url.Values) (any, error) {
	p.mu.Lock()
	battery := p.battery
	p.mu.Unlock()
	info := dataformat.DeviceInfo{
		URI:      p.opts.DeviceURI,
		Name:     p.opts.Name,
		Protocol: p.opts.Driver.Protocol(),
		Model:    p.opts.Model,
		Senses:   p.opts.Senses,
		Actuates: p.opts.Actuates,
		Location: p.opts.Location,
		ProxyURI: "http://" + p.srv.Addr() + "/",
	}
	if battery >= 0 {
		info.BatteryPC = battery
	}
	return dataformat.NewDeviceInfoDoc(info), nil
}

// parseRange reads from/to as RFC 3339 timestamps; both optional.
func parseRange(q url.Values) (from, to time.Time, err error) {
	if s := q.Get("from"); s != "" {
		if from, err = time.Parse(time.RFC3339, s); err != nil {
			return from, to, fmt.Errorf("bad from: %v", err)
		}
	}
	if s := q.Get("to"); s != "" {
		if to, err = time.Parse(time.RFC3339, s); err != nil {
			return from, to, fmt.Errorf("bad to: %v", err)
		}
	}
	return from, to, nil
}

// measurement rehydrates one stored sample into the common format.
func (p *Proxy) measurement(quantity string, smp tsdb.Sample) dataformat.Measurement {
	unit, _ := dataformat.CanonicalUnit(dataformat.Quantity(quantity))
	return dataformat.Measurement{
		Source:    "http://" + p.srv.Addr() + "/",
		Device:    p.opts.DeviceURI,
		Protocol:  p.opts.Driver.Protocol(),
		Quantity:  dataformat.Quantity(quantity),
		Unit:      unit,
		Value:     smp.Value,
		Timestamp: smp.At,
		Location:  p.opts.Location,
	}
}

func (p *Proxy) data(ctx context.Context, q url.Values) (any, error) {
	quantity := q.Get("quantity")
	if quantity == "" {
		return nil, api.BadRequest(errors.New("missing quantity parameter"))
	}
	from, to, err := parseRange(q)
	if err != nil {
		return nil, api.BadRequest(err)
	}
	key := tsdb.SeriesKey{Device: p.opts.DeviceURI, Quantity: quantity}
	samples, err := p.store.Query(key, from, to)
	if err != nil {
		return nil, err // tsdb sentinels map through the shared table
	}
	ms := make([]dataformat.Measurement, len(samples))
	for i, smp := range samples {
		ms[i] = p.measurement(quantity, smp)
	}
	return dataformat.NewMeasurementsDoc(ms), nil
}

func (p *Proxy) latest(ctx context.Context, q url.Values) (any, error) {
	quantity := q.Get("quantity")
	if quantity == "" {
		return nil, api.BadRequest(errors.New("missing quantity parameter"))
	}
	key := tsdb.SeriesKey{Device: p.opts.DeviceURI, Quantity: quantity}
	smp, err := p.store.Latest(key)
	if err != nil {
		return nil, api.NotFound(err)
	}
	return dataformat.NewMeasurementDoc(p.measurement(quantity, smp)), nil
}

// aggregate serves downsampled buckets of the local buffer:
// GET /aggregate?quantity=...&window=1m[&from=&to=]. Visualization
// front-ends use this to draw trends without pulling raw samples.
func (p *Proxy) aggregate(ctx context.Context, q url.Values) (any, error) {
	quantity := q.Get("quantity")
	if quantity == "" {
		return nil, api.BadRequest(errors.New("missing quantity parameter"))
	}
	window, err := time.ParseDuration(q.Get("window"))
	if err != nil {
		return nil, api.BadRequest(fmt.Errorf("bad window: %v", err))
	}
	from, to, err := parseRange(q)
	if err != nil {
		return nil, api.BadRequest(err)
	}
	key := tsdb.SeriesKey{Device: p.opts.DeviceURI, Quantity: quantity}
	buckets, err := p.store.Downsample(key, from, to, window)
	if err != nil {
		if errors.Is(err, tsdb.ErrNoSeries) {
			return nil, err
		}
		return nil, api.BadRequest(err)
	}
	return buckets, nil
}

// ControlRequest is the POST /control body (and one element of a batch).
type ControlRequest struct {
	Quantity dataformat.Quantity `json:"quantity"`
	Value    float64             `json:"value"`
}

// BatchRequest is the POST /devices/actuate body: many actuation
// commands applied in one round trip.
type BatchRequest struct {
	Commands []ControlRequest `json:"commands"`
}

// BatchResponse reports the per-command outcomes in request order, plus
// how many applied.
type BatchResponse struct {
	Applied int                        `json:"applied"`
	Results []dataformat.ControlResult `json:"results"`
}

// actuateBatch pushes every command of a batch to the driver. Failures
// don't abort the batch: each command reports its own outcome, the way
// a demand-response controller shedding many loads wants it.
func (p *Proxy) actuateBatch(ctx context.Context, req BatchRequest) (any, error) {
	if len(req.Commands) == 0 {
		return nil, api.BadRequest(errors.New("empty command batch"))
	}
	out := BatchResponse{Results: make([]dataformat.ControlResult, 0, len(req.Commands))}
	for _, cmd := range req.Commands {
		if cmd.Quantity == "" {
			return nil, api.BadRequest(errors.New("batch command missing quantity"))
		}
		result := dataformat.ControlResult{
			Device:   p.opts.DeviceURI,
			Quantity: cmd.Quantity,
			Value:    cmd.Value,
			At:       time.Now().UTC(),
		}
		if err := p.opts.Driver.Actuate(cmd.Quantity, cmd.Value); err != nil {
			result.Error = err.Error()
		} else {
			result.Applied = true
			out.Applied++
			p.stats.Lock()
			p.stats.controls++
			p.stats.Unlock()
		}
		out.Results = append(out.Results, result)
	}
	return out, nil
}

// control pushes an actuation command to the driver and reports the
// outcome as a control-result document.
func (p *Proxy) control(ctx context.Context, req ControlRequest) (any, error) {
	if req.Quantity == "" {
		return nil, api.BadRequest(errors.New("missing quantity"))
	}
	result := dataformat.ControlResult{
		Device:   p.opts.DeviceURI,
		Quantity: req.Quantity,
		Value:    req.Value,
		At:       time.Now().UTC(),
	}
	if err := p.opts.Driver.Actuate(req.Quantity, req.Value); err != nil {
		result.Applied = false
		result.Error = err.Error()
	} else {
		result.Applied = true
		p.stats.Lock()
		p.stats.controls++
		p.stats.Unlock()
	}
	return dataformat.NewControlResultDoc(result), nil
}
