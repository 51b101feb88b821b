package api

import (
	"io"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Metrics is a service's instrument set: its own registry (every
// route's request and error counters, latency histogram and windowed
// max gauge, the response byte counters, the registered rate limiters)
// and the service-internals registries attached to it, so one
// /v1/metrics scrape serves the whole picture. Routes are labelled by
// their matched pattern, not the raw path, so metrics cardinality stays
// bounded under hostile paths.
type Metrics struct {
	reg *obs.Registry

	// Response sizes: wire bytes by content coding, and the same bodies
	// before compression — their quotient is the compression ratio.
	wireGzip, wireIdentity, plainBytes *obs.Counter

	mu       sync.Mutex
	limiters []limiterEntry
	attached []*obs.Registry // service-internals registries
}

// limiterEntry labels one registered rate limiter with its tier.
type limiterEntry struct {
	tier string
	rl   *RateLimiter
}

// The per-route HTTP families.
const (
	requestsName = "repro_http_requests_total"
	errorsName   = "repro_http_request_errors_total"
	durationName = "repro_http_request_duration_seconds"
	maxName      = "repro_http_request_duration_seconds_max"
)

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{reg: obs.NewRegistry()}
	const wireHelp = "Response body bytes written to the wire, by content coding."
	m.wireGzip = m.reg.Counter("repro_http_response_bytes_total", wireHelp, obs.Labels{"encoding": "gzip"})
	m.wireIdentity = m.reg.Counter("repro_http_response_bytes_total", wireHelp, obs.Labels{"encoding": "identity"})
	m.plainBytes = m.reg.Counter("repro_http_response_plain_bytes_total",
		"Response body bytes before compression (equals the wire bytes of identity responses).", nil)
	return m
}

// stdMethods are the methods a route finds its instruments for by
// index; any other method goes through routeLabel.other.
var stdMethods = [...]string{
	http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
	http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace,
}

// routeLabel is a label requests are counted under (a route's
// unversioned path, a /v2 path, "404", "unmatched") with its
// instruments, one set per request method, registered by the first
// request of that method.
type routeLabel struct {
	name  string
	std   [len(stdMethods)]atomic.Pointer[routeMetrics]
	other sync.Map // any other method → *atomic.Pointer[routeMetrics]
}

// routeMetrics are the instruments of one method on one route. The
// max gauge reads the slowest request of the current and previous
// rotation windows (maxLatencyWindow) from start, cur and prev.
type routeMetrics struct {
	requests, errors *obs.Counter
	duration         *obs.Histogram
	start, cur, prev atomic.Int64 // Unix ns the current window began; max ns in it and the last
}

// metrics returns the instruments of method on l, registering them in
// m on first use. Racing first requests get the same counters and
// histogram from the registry; the set whose pointer lands is the one
// whose max is registered and kept.
func (l *routeLabel) metrics(m *Metrics, method string) *routeMetrics {
	slot := l.slot(method)
	if rm := slot.Load(); rm != nil {
		return rm
	}
	labels := obs.Labels{"method": method, "route": l.name}
	rm := &routeMetrics{
		requests: m.reg.Counter(requestsName, "Requests served, by route.", labels),
		errors:   m.reg.Counter(errorsName, "Responses with status >= 400, by route.", labels),
		duration: m.reg.Histogram(durationName, "Handler latency distribution, by route.", obs.LatencyBuckets, labels),
	}
	if slot.CompareAndSwap(nil, rm) {
		m.reg.GaugeFunc(maxName, "Slowest handler time in the recent window, by route.", labels, rm.maxSeconds)
	}
	return slot.Load()
}

func (l *routeLabel) slot(method string) *atomic.Pointer[routeMetrics] {
	if i := slices.Index(stdMethods[:], method); i >= 0 {
		return &l.std[i]
	}
	p, _ := l.other.LoadOrStore(method, new(atomic.Pointer[routeMetrics]))
	return p.(*atomic.Pointer[routeMetrics])
}

// maxLatencyWindow is the rotation period of the per-route max-latency
// gauge: the reported max covers the current and previous window, so a
// cold-start outlier ages out instead of pinning the gauge forever.
const maxLatencyWindow = 5 * time.Minute

// observe counts one request that ended at end after d.
func (rm *routeMetrics) observe(status int, end time.Time, d time.Duration) {
	rm.requests.Inc()
	if status >= 400 {
		rm.errors.Inc()
	}
	rm.duration.ObserveDuration(d)
	if start, now := rm.start.Load(), end.UnixNano(); now-start >= int64(maxLatencyWindow) && rm.start.CompareAndSwap(start, now) {
		rm.prev.Store(rm.cur.Swap(0))
	}
	for cur := rm.cur.Load(); int64(d) > cur && !rm.cur.CompareAndSwap(cur, int64(d)); cur = rm.cur.Load() {
	}
}

func (rm *routeMetrics) maxSeconds() float64 {
	return float64(max(rm.cur.Load(), rm.prev.Load())) / 1e9
}

// AttachRegistry includes a service-internals registry in the metrics
// endpoints (both the JSON instruments list and the Prometheus
// exposition). Attaching the same registry twice is a no-op.
func (m *Metrics) AttachRegistry(r *obs.Registry) {
	if r == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.Contains(m.attached, r) {
		m.attached = append(m.attached, r)
	}
}

// registries snapshots the metrics set's own registry plus everything
// attached.
func (m *Metrics) registries() []*obs.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*obs.Registry{m.reg}, m.attached...)
}

// Instruments reads every obs instrument visible through this metrics
// set — the HTTP and limiter families first, then attached registries.
func (m *Metrics) Instruments() []obs.Snapshot {
	var out []obs.Snapshot
	for _, r := range m.registries() {
		out = append(out, r.Snapshot()...)
	}
	return out
}

// RouteSnapshot is one route's counters at a point in time. MaxMs is
// the windowed max (see maxLatencyWindow), not an all-time high-water
// mark.
type RouteSnapshot struct {
	Route   string  `json:"route"`
	Count   uint64  `json:"count"`
	Errors  uint64  `json:"errors"`
	MeanMs  float64 `json:"meanMs"`
	MaxMs   float64 `json:"maxMs"`
	TotalMs float64 `json:"totalMs"`
}

// RegisterLimiter labels a rate limiter with its route-class tier
// ("read", "batch", "publish", ...) and registers its allowed and
// rejected counters and its bucket gauge. Registering the same limiter
// again under the same tier is a no-op.
func (m *Metrics) RegisterLimiter(tier string, rl *RateLimiter) {
	if rl == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := limiterEntry{tier: tier, rl: rl}
	if slices.Contains(m.limiters, e) {
		return
	}
	m.limiters = append(m.limiters, e)
	labels := obs.Labels{"tier": tier}
	m.reg.CounterFunc("repro_rate_limit_allowed_total", "Requests admitted by the tier's limiter.", labels,
		func() float64 { return float64(rl.Stats().Allowed) })
	m.reg.CounterFunc("repro_rate_limit_rejected_total", "Requests rejected with 429 by the tier's limiter.", labels,
		func() float64 { return float64(rl.Stats().Rejected) })
	m.reg.GaugeFunc("repro_rate_limit_buckets", "Live per-client buckets held by the tier's limiter.", labels,
		func() float64 { return float64(rl.Len()) })
}

// Limiters returns a stats snapshot of every registered limiter, sorted
// by tier.
func (m *Metrics) Limiters() []LimiterStats {
	m.mu.Lock()
	entries := slices.Clone(m.limiters)
	m.mu.Unlock()
	out := make([]LimiterStats, 0, len(entries))
	for _, e := range entries {
		st := e.rl.Stats()
		st.Tier = e.tier
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tier < out[j].Tier })
	return out
}

// Snapshot reads the route instruments into one RouteSnapshot per
// method and route, sorted by route key ("METHOD label").
func (m *Metrics) Snapshot() []RouteSnapshot {
	out := []RouteSnapshot{}
	at := make(map[string]int)
	for _, in := range m.reg.Snapshot() {
		route, ok := in.Labels["route"]
		if !ok {
			continue
		}
		key := in.Labels["method"] + " " + route
		i, seen := at[key]
		if !seen {
			i, at[key] = len(out), len(out)
			out = append(out, RouteSnapshot{Route: key})
		}
		switch s := &out[i]; in.Name {
		case requestsName:
			s.Count = uint64(in.Value)
		case errorsName:
			s.Errors = uint64(in.Value)
		case durationName:
			s.TotalMs = in.Histogram.Sum * 1e3
		case maxName:
			s.MaxMs = in.Value * 1e3
		}
	}
	for i := range out {
		if out[i].Count > 0 {
			out[i].MeanMs = out[i].TotalMs / float64(out[i].Count)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}

// WritePrometheus renders every registry of the metrics set in the
// Prometheus text exposition format (version 0.0.4), each series
// labelled with the owning service. Scrapers hit
// /v1/metrics?format=prometheus (or negotiate text/plain) instead of
// the JSON snapshot.
func (m *Metrics) WritePrometheus(w io.Writer, service string) {
	extra := obs.Labels{"service": service}
	for _, r := range m.registries() {
		r.WritePrometheus(w, extra)
	}
}

// MetricsSnapshot is the JSON body of /v1/metrics: per-route counters,
// per-tier limiter stats, and the obs instruments (histograms and
// internals gauges) visible through this server.
type MetricsSnapshot struct {
	Routes      []RouteSnapshot `json:"routes"`
	Limiters    []LimiterStats  `json:"limiters,omitempty"`
	Instruments []obs.Snapshot  `json:"instruments,omitempty"`
}

// serve is the /v1/metrics endpoint: the Prometheus exposition on
// explicit request (?format=prometheus) or when the Accept header
// genuinely prefers text/plain over JSON; the JSON snapshot stays the
// default.
func (m *Metrics) serve(service string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		prom := r.URL.Query().Get("format") == "prometheus"
		if !prom && r.URL.Query().Get("format") == "" {
			prom = NegotiateMediaType(r.Header.Get("Accept"),
				"application/json", "text/plain") == "text/plain"
		}
		if prom {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			m.WritePrometheus(w, service)
			return
		}
		WriteJSON(w, http.StatusOK, MetricsSnapshot{
			Routes:      m.Snapshot(),
			Limiters:    m.Limiters(),
			Instruments: m.Instruments(),
		})
	}
}
