// Package api is the unified, versioned service-API layer every web
// service of the infrastructure shares: the master node, the
// measurements database, the Database-proxies (GIS/BIM/SIM), and the
// device-proxies all register their endpoints on an api.Server instead
// of hand-rolling http.HandleFunc surfaces.
//
// The layer provides, in one place:
//
//   - versioned routing on net/http's ServeMux: every endpoint is
//     served under /v1/<path> with the bare legacy path kept as an
//     alias, so pre-versioning clients keep working while new clients
//     pin a version; clients escape path parameters with PathSegment;
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
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Version is the current API version prefix served by every Server.
const Version = "v1"

// Version2 is the resource-oriented query data plane prefix. /v2 routes
// are registered explicitly (HandleV2), may carry {param}
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
// parameter values (device URIs contain "/") must be escaped with
// PathSegment by the caller.
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

// Server registers typed endpoints and serves them under /v1 plus
// legacy aliases (and, when registered, resource-style /v2 routes),
// wrapped in the standard middleware chain, routed by one ServeMux.
type Server struct {
	opts    Options
	aliases atomic.Bool // bare legacy paths answer
	metrics *Metrics
	tracer  *obs.Tracer

	once    sync.Once    // runs build on the first request
	handler http.Handler // the middleware chain around mux

	mu     sync.Mutex     // guards routes and mux
	routes []route        // every registration, in order
	mux    *http.ServeMux // nil until build
}

// route is one registration: handler for method on a versioned mux
// path, counted under label. A /v1 route's label is its bare alias.
type route struct {
	method, path, label string
	handler             http.Handler
}

// NewServer creates a Server with the built-in /healthz, /metrics, and
// /trace/{id} endpoints already registered.
func NewServer(opts Options) *Server {
	s := &Server{opts: opts, metrics: NewMetrics(), tracer: obs.NewTracer(0)}
	s.aliases.Store(!opts.DisableLegacyAliases)
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
	s.HandleFunc(http.MethodGet, "/metrics", s.metrics.serve(opts.Service))
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
// "/" and is registered both as /v1<path> and as the bare legacy alias
// <path>, which answers while aliases are enabled. Multiple methods may
// be registered on the same path; other methods then draw a uniform 405
// envelope. Paths may carry {param} segments (values via
// http.Request.PathValue). Both forms are counted under <path>.
func (s *Server) Handle(method, path string, handler http.Handler) {
	s.add(method, Version, path, handler)
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
// parameter matches exactly one segment of the escaped request path, so
// clients escape a value with PathSegment (a device URI's "/" travels
// as %2F). Matched values are exposed through http.Request.PathValue.
// /v2 routes never get unversioned legacy aliases.
func (s *Server) HandleV2(method, path string, handler http.Handler) {
	s.add(method, Version2, path, handler)
}

// add records a route (a /v1 route is labelled with its bare alias, a
// /v2 route with its path) and binds it once the mux exists. A bad or
// repeated route panics here, not at the first request.
func (s *Server) add(method, version, path string, handler http.Handler) {
	rt := route{method, "/" + version + path, path, handler}
	if version != Version {
		rt.label = rt.path
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !strings.HasPrefix(path, "/") || slices.ContainsFunc(s.routes, func(o route) bool { return o.method == method && o.path == rt.path }) {
		panic(fmt.Sprintf("api: route %s %q must start with / and be registered once", method, path))
	}
	s.routes = append(s.routes, rt)
	if s.mux != nil {
		s.bind(len(s.routes) - 1)
	}
}

// bind registers route i on its path and, for a /v1 route, its bare
// alias: the method pattern and, for the path's first route, a
// method-less pattern answering other methods with the 405 envelope.
// Called with s.mu held.
func (s *Server) bind(i int) {
	rt := s.routes[i]
	first := !slices.ContainsFunc(s.routes[:i], func(o route) bool { return o.path == rt.path })
	notAllowed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { s.notAllowed(w, r, rt) })
	for _, p := range slices.Compact([]string{rt.path, rt.label}) {
		h, na := labelled(rt.label, rt.handler), labelled(rt.label, notAllowed)
		if p != rt.path {
			h, na = s.alias(h), s.alias(na)
		}
		s.mux.Handle(rt.method+" "+p, h)
		if first {
			s.mux.Handle(p, na)
		}
	}
}

// notAllowed writes the 405 envelope for rt's path; Allow lists the
// methods registered on it, sorted.
func (s *Server) notAllowed(w http.ResponseWriter, r *http.Request, rt route) {
	var methods []string
	s.mu.Lock()
	for _, o := range s.routes {
		if o.path == rt.path {
			methods = append(methods, o.method)
		}
	}
	s.mu.Unlock()
	slices.Sort(methods)
	allow := strings.Join(methods, ", ")
	w.Header().Set("Allow", allow)
	WriteError(w, r, MethodNotAllowed(fmt.Errorf("method %s not allowed on %s (use %s)", r.Method, rt.label, allow)))
}

// alias serves handler on a bare legacy path only while aliases are
// enabled; otherwise the path is a miss.
func (s *Server) alias(handler http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !s.aliases.Load() {
			s.notFound(w, r)
			return
		}
		handler.ServeHTTP(w, r)
	})
}

// notFound writes the uniform 404 envelope, labelled "404".
func (s *Server) notFound(w http.ResponseWriter, r *http.Request) {
	if ri := routeInfoFrom(r.Context()); ri != nil {
		ri.Pattern = "404"
	}
	hint, p := "", r.URL.Path+"/"
	if !s.aliases.Load() && !strings.HasPrefix(p, "/"+Version+"/") && !strings.HasPrefix(p, "/"+Version2+"/") {
		hint = " (unversioned aliases disabled)"
	}
	WriteError(w, r, NotFound(fmt.Errorf("unknown path %q%s", r.URL.Path, hint)))
}

// PathSegment escapes one path-parameter value for a request URL:
// url.PathEscape, plus the dot-only names "." and "..", which travel as
// %2E and %2E%2E so no router cleans them away as dot segments.
func PathSegment(v string) string {
	if v == "." || v == ".." {
		return strings.Repeat("%2E", len(v))
	}
	return url.PathEscape(v)
}

// SetLegacyAliases toggles the unversioned route aliases at runtime
// (services expose it so deployments can retire the aliases via a flag
// without rebuilding their option structs).
func (s *Server) SetLegacyAliases(enabled bool) { s.aliases.Store(enabled) }

// Metrics exposes the per-route counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Handler returns the service's complete http.Handler: the router
// wrapped in the standard middleware chain. The chain order is
// request-ID (outermost) → trace → access log → metrics → gzip →
// recover → router, so log lines carry request IDs, every request gets
// a span record with its stage timings, metrics see every outcome
// including panics (and the bytes gzip put on the wire), and gzip sees
// the panic envelope like any other short body.
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.ServeHTTP) }

// ServeHTTP lets a Server be used directly as an http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.once.Do(s.build)
	s.handler.ServeHTTP(w, r)
}

// build assembles the chain and the ServeMux on the first request: a
// ServeMux pattern costs microseconds to register (it records the
// caller's file:line), and most servers of a district idle for a while
// after boot, or for good.
func (s *Server) build() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/", s.notFound)
	if s.opts.EnablePprof {
		// Mounted directly, not through http.DefaultServeMux.
		s.mux.Handle("/debug/pprof/", labelled("/debug/pprof", http.HandlerFunc(pprof.Index)))
		for name, h := range map[string]http.HandlerFunc{
			"cmdline": pprof.Cmdline, "profile": pprof.Profile, "symbol": pprof.Symbol, "trace": pprof.Trace,
		} {
			s.mux.Handle("/debug/pprof/"+name, labelled("/debug/pprof", h))
		}
	}
	for i := range s.routes {
		s.bind(i)
	}
	mws := []Middleware{RequestID(), Trace(s.opts.Service, s.tracer)}
	if s.opts.Logger != nil {
		mws = append(mws, AccessLog(s.opts.Service, s.opts.Logger))
	}
	mws = append(mws, Observe(s.metrics))
	if !s.opts.DisableGzip {
		mws = append(mws, Gzip())
	}
	s.handler = Chain(s.mux, append(mws, Recover())...)
}
