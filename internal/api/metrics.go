package api

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Metrics accumulates per-route request counters and delegates
// distributions to an internal obs.Registry: every observed route gets
// a latency histogram (repro_http_request_duration_seconds), and
// services attach their own registries (storage internals, stream
// counters) so one /v1/metrics scrape serves the whole picture.
// Routes are keyed by "METHOD pattern" (the matched pattern, not the
// raw path, so metrics cardinality stays bounded under hostile paths).
type Metrics struct {
	mu       sync.Mutex
	routes   map[string]*routeStats
	limiters []limiterEntry
	reg      *obs.Registry   // route latency histograms, response byte counters
	attached []*obs.Registry // service-internals registries
	now      func() time.Time

	// Response sizes: wire bytes by content coding, and the same bodies
	// before compression — their quotient is the compression ratio.
	wireGzip, wireIdentity, plainBytes *obs.Counter
}

// limiterEntry labels one registered rate limiter with its tier.
type limiterEntry struct {
	tier string
	rl   *RateLimiter
}

// maxLatencyWindow is the rotation period of the per-route max-latency
// gauge: the reported max covers the current and previous window, so a
// cold-start outlier ages out instead of pinning the gauge forever.
const maxLatencyWindow = 5 * time.Minute

type routeStats struct {
	count   uint64
	errors  uint64 // responses with status >= 400
	totalNS int64

	curMaxNS    int64
	prevMaxNS   int64
	windowStart time.Time

	hist *obs.Histogram
}

// maxNS is the windowed max: the slowest request of the current and
// previous rotation windows.
func (rs *routeStats) maxNS() int64 {
	if rs.prevMaxNS > rs.curMaxNS {
		return rs.prevMaxNS
	}
	return rs.curMaxNS
}

// NewMetrics creates an empty metrics set.
func NewMetrics() *Metrics {
	m := &Metrics{
		routes: make(map[string]*routeStats),
		reg:    obs.NewRegistry(),
		now:    time.Now,
	}
	const wireHelp = "Response body bytes written to the wire, by content coding."
	m.wireGzip = m.reg.Counter("repro_http_response_bytes_total", wireHelp, obs.Labels{"encoding": "gzip"})
	m.wireIdentity = m.reg.Counter("repro_http_response_bytes_total", wireHelp, obs.Labels{"encoding": "identity"})
	m.plainBytes = m.reg.Counter("repro_http_response_plain_bytes_total",
		"Response body bytes before compression (equals the wire bytes of identity responses).", nil)
	return m
}

// observeBytes records one response's size on the wire and before
// compression.
func (m *Metrics) observeBytes(gzipped bool, wire, plain int64) {
	if gzipped {
		m.wireGzip.Add(uint64(wire))
	} else {
		m.wireIdentity.Add(uint64(wire))
	}
	m.plainBytes.Add(uint64(plain))
}

func (m *Metrics) observe(method, pattern string, status int, d time.Duration) {
	key := method + " " + pattern
	now := m.now()
	m.mu.Lock()
	rs := m.routes[key]
	if rs == nil {
		rs = &routeStats{
			windowStart: now,
			hist: m.reg.Histogram("repro_http_request_duration_seconds",
				"Handler latency distribution, by route.",
				obs.LatencyBuckets, obs.Labels{"method": method, "route": pattern}),
		}
		m.routes[key] = rs
	}
	rs.count++
	if status >= 400 {
		rs.errors++
	}
	ns := d.Nanoseconds()
	rs.totalNS += ns
	if now.Sub(rs.windowStart) >= maxLatencyWindow {
		rs.prevMaxNS = rs.curMaxNS
		rs.curMaxNS = 0
		rs.windowStart = now
	}
	if ns > rs.curMaxNS {
		rs.curMaxNS = ns
	}
	hist := rs.hist
	m.mu.Unlock()
	hist.ObserveDuration(d)
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
	for _, a := range m.attached {
		if a == r {
			return
		}
	}
	m.attached = append(m.attached, r)
}

// registries snapshots the route-histogram registry plus everything
// attached.
func (m *Metrics) registries() []*obs.Registry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*obs.Registry, 0, len(m.attached)+1)
	out = append(out, m.reg)
	return append(out, m.attached...)
}

// Instruments reads every obs instrument visible through this metrics
// set — route latency histograms first, then attached registries.
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
// ("read", "batch", "publish", ...) and includes its counters in the
// metrics endpoints. Registering the same limiter again under the same
// tier is a no-op.
func (m *Metrics) RegisterLimiter(tier string, rl *RateLimiter) {
	if rl == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.limiters {
		if e.tier == tier && e.rl == rl {
			return
		}
	}
	m.limiters = append(m.limiters, limiterEntry{tier: tier, rl: rl})
}

// Limiters returns a stats snapshot of every registered limiter, sorted
// by tier.
func (m *Metrics) Limiters() []LimiterStats {
	m.mu.Lock()
	entries := make([]limiterEntry, len(m.limiters))
	copy(entries, m.limiters)
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

// Snapshot returns the counters of every route, sorted by route key.
func (m *Metrics) Snapshot() []RouteSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]RouteSnapshot, 0, len(m.routes))
	for key, rs := range m.routes {
		snap := RouteSnapshot{
			Route:   key,
			Count:   rs.count,
			Errors:  rs.errors,
			MaxMs:   float64(rs.maxNS()) / 1e6,
			TotalMs: float64(rs.totalNS) / 1e6,
		}
		if rs.count > 0 {
			snap.MeanMs = snap.TotalMs / float64(rs.count)
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Route < out[j].Route })
	return out
}

// labelEscaper escapes a Prometheus label value per the text exposition
// format (backslash, double quote, and newline).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// WritePrometheus renders everything in the Prometheus text exposition
// format (version 0.0.4), labelled with the owning service: per-route
// request/error counters and the windowed max gauge, the route latency
// histograms (_bucket/_sum/_count), rate-limiter counters, and every
// attached service-internals registry. Scrapers hit
// /v1/metrics?format=prometheus (or negotiate text/plain) instead of
// the JSON snapshot.
func (m *Metrics) WritePrometheus(w io.Writer, service string) {
	snaps := m.Snapshot()
	emit := func(name, help, typ string, value func(RouteSnapshot) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, s := range snaps {
			method, route, _ := strings.Cut(s.Route, " ")
			fmt.Fprintf(w, "%s{service=%q,method=%q,route=%q} %g\n",
				name, escapeLabel(service), escapeLabel(method), escapeLabel(route), value(s))
		}
	}
	emit("repro_http_requests_total", "Requests served, by route.", "counter",
		func(s RouteSnapshot) float64 { return float64(s.Count) })
	emit("repro_http_request_errors_total", "Responses with status >= 400, by route.", "counter",
		func(s RouteSnapshot) float64 { return float64(s.Errors) })
	emit("repro_http_request_duration_seconds_max", "Slowest handler time in the recent window, by route.", "gauge",
		func(s RouteSnapshot) float64 { return s.MaxMs / 1e3 })

	if limiters := m.Limiters(); len(limiters) > 0 {
		emitL := func(name, help, typ string, value func(LimiterStats) float64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			for _, l := range limiters {
				fmt.Fprintf(w, "%s{service=%q,tier=%q} %g\n",
					name, escapeLabel(service), escapeLabel(l.Tier), value(l))
			}
		}
		emitL("repro_rate_limit_allowed_total", "Requests admitted by the tier's limiter.", "counter",
			func(l LimiterStats) float64 { return float64(l.Allowed) })
		emitL("repro_rate_limit_rejected_total", "Requests rejected with 429 by the tier's limiter.", "counter",
			func(l LimiterStats) float64 { return float64(l.Rejected) })
		emitL("repro_rate_limit_buckets", "Live per-client buckets held by the tier's limiter.", "gauge",
			func(l LimiterStats) float64 { return float64(l.Buckets) })
	}

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
