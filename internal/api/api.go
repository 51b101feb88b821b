// Package api is the unified, versioned service-API layer every web
// service of the infrastructure shares: the master node, the
// measurements database, the Database-proxies (GIS/BIM/SIM), and the
// device-proxies all register their endpoints on an api.Server instead
// of hand-rolling http.HandleFunc surfaces.
//
// The layer provides, in one place:
//
//   - versioned routing: every endpoint is served under /v1/<path> with
//     the bare legacy path kept as an alias, so pre-versioning clients
//     keep working while new clients pin a version;
//   - uniform not-found / method-not-allowed / error responses as a
//     single JSON envelope (see errors.go);
//   - typed endpoint adapters (handler.go) so service handlers take
//     decoded requests and return values + errors — they never touch
//     http.ResponseWriter;
//   - a middleware chain (middleware.go): request-ID injection, access
//     logging, per-route latency/count metrics, gzip compression, and
//     panic recovery;
//   - real Accept-header content negotiation (negotiate.go);
//   - a context-aware retrying client transport (transport.go) shared
//     by the end-user client and the proxy registration/heartbeat path.
package api

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Version is the current API version prefix served by every Server.
const Version = "v1"

// Version2 is the resource-oriented query data plane prefix. /v2 routes
// are registered explicitly (HandleV2 and friends), may carry {param}
// path segments, and never get unversioned legacy aliases.
const Version2 = "v2"

// URL joins a service base URL (with or without a trailing slash) and
// an endpoint path-and-query into a versioned request URL:
// URL("http://h:1/", "/query?district=x") → "http://h:1/v1/query?district=x".
// Every consumer of the versioned API builds URLs through this one
// helper so the version prefix lives in a single place.
func URL(base, pathAndQuery string) string {
	return versionedURL(base, Version, pathAndQuery)
}

// URL2 builds a /v2 request URL the way URL builds /v1 ones. Path
// segments holding reserved characters (device URIs contain "/") must be
// escaped with url.PathEscape by the caller.
func URL2(base, pathAndQuery string) string {
	return versionedURL(base, Version2, pathAndQuery)
}

func versionedURL(base, version, pathAndQuery string) string {
	if !strings.HasPrefix(pathAndQuery, "/") {
		pathAndQuery = "/" + pathAndQuery
	}
	return strings.TrimSuffix(base, "/") + "/" + version + pathAndQuery
}

// Options configure a Server.
type Options struct {
	// Service names the service in access-log lines (e.g. "master").
	Service string
	// Logger receives access-log lines; nil disables access logging.
	Logger Logger
	// DisableGzip turns the gzip middleware off (mainly for tests that
	// want to inspect raw bytes on the wire).
	DisableGzip bool
	// DisableLegacyAliases drops the unversioned route aliases; only
	// /v1/... paths are then served.
	DisableLegacyAliases bool
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: the profiling surface stays opt-in per service).
	EnablePprof bool
	// SlowRequest is the slow-request log threshold: requests at or
	// above it are logged with their trace ID and stage timings
	// (requires Logger). Zero means a 1s default; negative disables.
	SlowRequest time.Duration
}

// Logger is the minimal logging interface the layer needs; *log.Logger
// satisfies it.
type Logger interface {
	Printf(format string, args ...any)
}

// route is one registered path with its per-method handlers.
type route struct {
	pattern  string // the metrics pattern, e.g. "/query" or "/v2/series"
	handlers map[string]http.Handler
	allow    string // precomputed Allow header value
}

// patternRoute is one /v2 route with {param} path segments. Matching
// runs over the escaped request path, so a parameter value may itself
// contain percent-encoded reserved characters (device URIs carry "/").
type patternRoute struct {
	route
	segs []string // parsed pattern segments; "{name}" marks a parameter
}

// Server registers typed endpoints and serves them under /v1 plus
// legacy aliases (and, when registered, resource-style /v2 routes),
// wrapped in the standard middleware chain.
type Server struct {
	opts Options

	mu        sync.RWMutex
	routes    map[string]*route
	v1pattern []*patternRoute   // {param} /v1 routes, in registration order
	v2routes  map[string]*route // exact-path /v2 routes
	v2pattern []*patternRoute   // {param} /v2 routes, in registration order
	metrics   *Metrics
	tracer    *obs.Tracer

	handlerOnce sync.Once
	handler     http.Handler
}

// NewServer creates a Server with the built-in /healthz, /metrics, and
// /trace/{id} endpoints already registered.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:     opts,
		routes:   make(map[string]*route),
		v2routes: make(map[string]*route),
		metrics:  NewMetrics(),
		tracer:   obs.NewTracer(0),
	}
	if opts.Logger != nil && opts.SlowRequest >= 0 {
		slow := opts.SlowRequest
		if slow == 0 {
			slow = time.Second
		}
		s.tracer.SetSlowLog(slow, opts.Logger.Printf)
	}
	s.HandleFunc(http.MethodGet, "/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	s.HandleFunc(http.MethodGet, "/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus exposition on explicit request (?format=prometheus)
		// or when the Accept header genuinely prefers text/plain over
		// JSON; the JSON snapshot stays the default.
		prom := r.URL.Query().Get("format") == "prometheus"
		if !prom && r.URL.Query().Get("format") == "" {
			prom = NegotiateMediaType(r.Header.Get("Accept"),
				"application/json", "text/plain") == "text/plain"
		}
		if prom {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			w.WriteHeader(http.StatusOK)
			s.metrics.WritePrometheus(w, s.opts.Service)
			return
		}
		WriteJSON(w, http.StatusOK, MetricsSnapshot{
			Routes:      s.metrics.Snapshot(),
			Limiters:    s.metrics.Limiters(),
			Instruments: s.metrics.Instruments(),
		})
	})
	s.HandleFunc(http.MethodGet, "/trace/{id}", s.handleTrace)
	return s
}

// TraceResponse is the JSON body of /v1/trace/{id}: every span record
// this service retains for the trace, oldest first.
type TraceResponse struct {
	TraceID string           `json:"traceId"`
	Spans   []obs.SpanRecord `json:"spans"`
}

// handleTrace serves the retained span records of one trace ID.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans := s.tracer.Get(id)
	if len(spans) == 0 {
		WriteError(w, r, NotFound(fmt.Errorf("no retained spans for trace %q", id)))
		return
	}
	WriteJSON(w, http.StatusOK, TraceResponse{TraceID: id, Spans: spans})
}

// Handle registers handler for method on path. The path must start with
// "/" and is registered both as /v1<path> and (unless disabled) as the
// bare legacy alias <path>. Multiple methods may be registered on the
// same path; other methods then draw a uniform 405 envelope. Paths may
// carry {param} segments (matched like /v2 pattern routes, values via
// http.Request.PathValue).
func (s *Server) Handle(method, path string, handler http.Handler) {
	if !strings.HasPrefix(path, "/") {
		panic(fmt.Sprintf("api: route %q must start with /", path))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if strings.Contains(path, "{") {
		segs := parsePatternSegs(path)
		for _, pr := range s.v1pattern {
			if equalSegs(pr.segs, segs) {
				pr.set(method, handler)
				return
			}
		}
		pr := &patternRoute{
			route: route{pattern: path, handlers: make(map[string]http.Handler)},
			segs:  segs,
		}
		pr.set(method, handler)
		s.v1pattern = append(s.v1pattern, pr)
		return
	}
	rt := s.routes[path]
	if rt == nil {
		rt = &route{pattern: path, handlers: make(map[string]http.Handler)}
		s.routes[path] = rt
	}
	rt.set(method, handler)
}

// parsePatternSegs splits and validates a {param} route path.
func parsePatternSegs(path string) []string {
	segs := strings.Split(strings.TrimPrefix(path, "/"), "/")
	for _, seg := range segs {
		if strings.HasPrefix(seg, "{") != strings.HasSuffix(seg, "}") ||
			seg == "{}" || strings.Count(seg, "{") > 1 {
			panic(fmt.Sprintf("api: malformed segment %q in route %q", seg, path))
		}
	}
	return segs
}

// set binds one method handler and refreshes the Allow header value.
func (rt *route) set(method string, handler http.Handler) {
	rt.handlers[method] = handler
	methods := make([]string, 0, len(rt.handlers))
	for m := range rt.handlers {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	rt.allow = strings.Join(methods, ", ")
}

// HandleFunc registers a plain http.HandlerFunc (escape hatch for
// endpoints that stream or set custom headers).
func (s *Server) HandleFunc(method, path string, f http.HandlerFunc) {
	s.Handle(method, path, f)
}

// Get registers a typed GET endpoint: fn receives the request context
// and decoded query values and returns a response value. A returned
// *dataformat.Document is content-negotiated; anything else is JSON.
func (s *Server) Get(path string, fn func(ctx context.Context, q url.Values) (any, error)) {
	s.Handle(http.MethodGet, path, Query(fn))
}

// HandleV2 registers handler for method on a /v2 path. The path may
// carry {param} segments ("/series/{device}/{quantity}/samples"); a
// parameter matches exactly one path segment of the escaped request
// path, so clients escape reserved characters inside a value with
// url.PathEscape (a device URI's "/" travels as %2F). Matched values
// are exposed through http.Request.PathValue. /v2 routes never get
// unversioned legacy aliases.
func (s *Server) HandleV2(method, path string, handler http.Handler) {
	if !strings.HasPrefix(path, "/") {
		panic(fmt.Sprintf("api: route %q must start with /", path))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !strings.Contains(path, "{") {
		rt := s.v2routes[path]
		if rt == nil {
			rt = &route{pattern: "/" + Version2 + path, handlers: make(map[string]http.Handler)}
			s.v2routes[path] = rt
		}
		rt.set(method, handler)
		return
	}
	segs := parsePatternSegs(path)
	for _, pr := range s.v2pattern {
		if equalSegs(pr.segs, segs) {
			pr.set(method, handler)
			return
		}
	}
	pr := &patternRoute{
		route: route{pattern: "/" + Version2 + path, handlers: make(map[string]http.Handler)},
		segs:  segs,
	}
	pr.set(method, handler)
	s.v2pattern = append(s.v2pattern, pr)
}

// GetV2 registers a typed GET endpoint on a /v2 path, with path
// parameters available through the Params accessor.
func (s *Server) GetV2(path string, fn func(ctx context.Context, p Params, q url.Values) (any, error)) {
	s.HandleV2(http.MethodGet, path, QueryP(fn))
}

// equalSegs reports whether two parsed patterns collide: literal
// segments must match, parameter segments collide regardless of name.
func equalSegs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		pa, pb := strings.HasPrefix(a[i], "{"), strings.HasPrefix(b[i], "{")
		if pa != pb || (!pa && a[i] != b[i]) {
			return false
		}
	}
	return true
}

// match tries the pattern against the escaped, version-stripped request
// path, returning the decoded parameter values.
func (pr *patternRoute) match(escPath string) (map[string]string, bool) {
	segs := strings.Split(strings.TrimPrefix(escPath, "/"), "/")
	if len(segs) != len(pr.segs) {
		return nil, false
	}
	var params map[string]string
	for i, ps := range pr.segs {
		val, err := url.PathUnescape(segs[i])
		if err != nil {
			return nil, false
		}
		if strings.HasPrefix(ps, "{") {
			if params == nil {
				params = make(map[string]string, 2)
			}
			params[ps[1:len(ps)-1]] = val
		} else if ps != val {
			return nil, false
		}
	}
	return params, true
}

// SetLegacyAliases toggles the unversioned route aliases at runtime
// (services expose it so deployments can retire the aliases via a flag
// without rebuilding their option structs).
func (s *Server) SetLegacyAliases(enabled bool) {
	s.mu.Lock()
	s.opts.DisableLegacyAliases = !enabled
	s.mu.Unlock()
}

// Metrics exposes the per-route counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// stripVersion removes a leading version segment, reporting which
// version prefixed the path ("" for unversioned legacy paths).
func stripVersion(path string) (string, string) {
	for _, v := range [...]string{Version, Version2} {
		pfx := "/" + v
		if path == pfx {
			return "/", v
		}
		if strings.HasPrefix(path, pfx+"/") {
			return path[len(pfx):], v
		}
	}
	return path, ""
}

// notFoundHandler writes the uniform 404 envelope for rawPath.
func notFoundHandler(rawPath, hint string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, r, NotFound(fmt.Errorf("unknown path %q%s", rawPath, hint)))
	})
}

// resolve picks the method handler of a matched route, falling back to
// the uniform 405 envelope (and GET for HEAD, as net/http does).
func (rt *route) resolve(method string) http.Handler {
	h := rt.handlers[method]
	if h == nil && method == http.MethodHead {
		h = rt.handlers[http.MethodGet]
	}
	if h == nil {
		allow, pattern := rt.allow, rt.pattern
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Allow", allow)
			WriteError(w, r, MethodNotAllowed(fmt.Errorf("method %s not allowed on %s (use %s)", method, pattern, allow)))
		})
	}
	return h
}

// lookup resolves a request to (pattern, handler), setting any /v2 path
// parameters on the request. Misses return a pattern used for metrics
// bucketing and an envelope-writing handler.
func (s *Server) lookup(r *http.Request) (string, http.Handler) {
	rawPath := r.URL.Path
	path, version := stripVersion(rawPath)
	if version == Version2 {
		return s.lookupV2(r, rawPath)
	}
	s.mu.RLock()
	disabled := s.opts.DisableLegacyAliases
	rt := s.routes[path]
	patterns := s.v1pattern
	s.mu.RUnlock()
	if version == "" && disabled {
		return "404", notFoundHandler(rawPath, " (unversioned aliases disabled)")
	}
	if rt == nil {
		escPath, _ := stripVersion(r.URL.EscapedPath())
		for _, pr := range patterns {
			params, ok := pr.match(escPath)
			if !ok {
				continue
			}
			for k, v := range params {
				r.SetPathValue(k, v)
			}
			rt = &pr.route
			break
		}
	}
	if rt == nil {
		return "404", notFoundHandler(rawPath, "")
	}
	return rt.pattern, rt.resolve(r.Method)
}

// lookupV2 resolves a /v2 request: exact routes first, then pattern
// routes over the escaped path (so percent-encoded reserved characters
// inside one parameter survive segment splitting).
func (s *Server) lookupV2(r *http.Request, rawPath string) (string, http.Handler) {
	path, _ := stripVersion(rawPath)
	s.mu.RLock()
	rt := s.v2routes[path]
	patterns := s.v2pattern
	s.mu.RUnlock()
	if rt == nil {
		escPath, _ := stripVersion(r.URL.EscapedPath())
		for _, pr := range patterns {
			params, ok := pr.match(escPath)
			if !ok {
				continue
			}
			for k, v := range params {
				r.SetPathValue(k, v)
			}
			rt = &pr.route
			break
		}
	}
	if rt == nil {
		return "404", notFoundHandler(rawPath, "")
	}
	return rt.pattern, rt.resolve(r.Method)
}

// dispatch routes the request and records the matched pattern for the
// observing middleware. The pprof surface, when enabled, is routed
// ahead of the versioned tables so the standard /debug/pprof/ paths
// work as every Go profiling tool expects.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	if s.opts.EnablePprof && strings.HasPrefix(r.URL.Path, "/debug/pprof") {
		if ri := routeInfoFrom(r.Context()); ri != nil {
			ri.Pattern = "/debug/pprof"
		}
		servePprof(w, r)
		return
	}
	pattern, h := s.lookup(r)
	if ri := routeInfoFrom(r.Context()); ri != nil {
		ri.Pattern = pattern
	}
	h.ServeHTTP(w, r)
}

// servePprof dispatches to the net/http/pprof handlers without going
// through http.DefaultServeMux.
func servePprof(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/debug/pprof/cmdline":
		pprof.Cmdline(w, r)
	case "/debug/pprof/profile":
		pprof.Profile(w, r)
	case "/debug/pprof/symbol":
		pprof.Symbol(w, r)
	case "/debug/pprof/trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

// Handler returns the service's complete http.Handler: the router
// wrapped in the standard middleware chain. The chain order is
// request-ID (outermost) → trace → access log → metrics → gzip →
// recover → router, so log lines carry request IDs, every request gets
// a span record with its stage timings, metrics see every outcome
// including panics (and the bytes gzip put on the wire), and gzip sees
// the panic envelope like any other short body.
func (s *Server) Handler() http.Handler {
	s.handlerOnce.Do(func() {
		mws := []Middleware{RequestID(), Trace(s.opts.Service, s.tracer)}
		if s.opts.Logger != nil {
			mws = append(mws, AccessLog(s.opts.Service, s.opts.Logger))
		}
		mws = append(mws, Observe(s.metrics))
		if !s.opts.DisableGzip {
			mws = append(mws, Gzip())
		}
		mws = append(mws, Recover())
		s.handler = Chain(http.HandlerFunc(s.dispatch), mws...)
	})
	return s.handler
}

// ServeHTTP lets a Server be used directly as an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.Handler().ServeHTTP(w, r)
}
