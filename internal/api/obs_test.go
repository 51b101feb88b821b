package api

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsHistogramExposition round-trips the Prometheus text
// exposition through the obs parser: the per-route latency histogram
// must come out as a well-formed cumulative family.
func TestMetricsHistogramExposition(t *testing.T) {
	s := NewServer(Options{Service: "histtest"})
	s.Get("/thing", func(ctx context.Context, q url.Values) (any, error) {
		return map[string]string{"ok": "yes"}, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		rsp, err := http.Get(ts.URL + "/v1/thing")
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
	}
	rsp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	raw, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseProm(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, raw)
	}
	hist, ok := fams["repro_http_request_duration_seconds"]
	if !ok {
		t.Fatalf("no route latency histogram in exposition:\n%s", raw)
	}
	if hist.Type != "histogram" {
		t.Fatalf("TYPE = %q, want histogram", hist.Type)
	}
	if err := hist.ValidateHistogram(); err != nil {
		t.Fatalf("malformed histogram: %v", err)
	}
	// The five requests all land in one labelled series; its _count
	// sample must agree with the plain request counter.
	count := -1.0
	for _, c := range hist.Counts {
		if c.Labels["route"] == "/thing" {
			count = c.Value
		}
	}
	if count != 5 {
		t.Fatalf("histogram count for /thing = %g, want 5", count)
	}
	if _, ok := fams["repro_http_requests_total"]; !ok {
		t.Fatal("request counter family missing")
	}
}

// TestMaxLatencyGaugeWindows pins the windowed-max semantics: a
// cold-start outlier must age out after two rotation windows instead of
// pinning the gauge forever.
func TestMaxLatencyGaugeWindows(t *testing.T) {
	m := NewMetrics()
	rm := (&routeLabel{name: "/x"}).metrics(m, http.MethodGet)
	clock := time.Unix(1700000000, 0)

	maxMs := func() float64 {
		snaps := m.Snapshot()
		if len(snaps) != 1 {
			t.Fatalf("routes = %d, want 1", len(snaps))
		}
		return snaps[0].MaxMs
	}

	rm.observe(200, clock, 100*time.Millisecond)
	if got := maxMs(); got != 100 {
		t.Fatalf("max = %gms, want 100", got)
	}

	// One window later the outlier survives as the previous window's max.
	clock = clock.Add(maxLatencyWindow + time.Second)
	rm.observe(200, clock, 10*time.Millisecond)
	if got := maxMs(); got != 100 {
		t.Fatalf("max after one rotation = %gms, want 100 (prev window)", got)
	}

	// Two windows later it has aged out entirely.
	clock = clock.Add(maxLatencyWindow + time.Second)
	rm.observe(200, clock, 5*time.Millisecond)
	if got := maxMs(); got != 10 {
		t.Fatalf("max after two rotations = %gms, want 10", got)
	}
}

// TestTraceMiddlewareAndEndpoint drives one request carrying a
// traceparent through the full middleware chain and reads the span back
// from /v1/trace/{id}, stage timings included.
func TestTraceMiddlewareAndEndpoint(t *testing.T) {
	s := NewServer(Options{Service: "tracetest"})
	s.Get("/staged", func(ctx context.Context, q url.Values) (any, error) {
		obs.StagesFrom(ctx).Observe("fake-stage", 3*time.Millisecond)
		return map[string]string{"ok": "yes"}, nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	traceID := obs.NewTraceID()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/staged", nil)
	req.Header.Set(obs.TraceHeader, obs.FormatTraceparent(traceID, obs.NewSpanID()))
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()

	// The response echoes a traceparent carrying the same trace ID.
	gotID, _, ok := obs.ParseTraceparent(rsp.Header.Get(obs.TraceHeader))
	if !ok || gotID != traceID {
		t.Fatalf("response traceparent = %q, want trace ID %s", rsp.Header.Get(obs.TraceHeader), traceID)
	}

	var tr TraceResponse
	rec := get(t, s.Handler(), "/v1/trace/"+traceID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("trace lookup status = %d: %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != traceID || len(tr.Spans) != 1 {
		t.Fatalf("trace response = %+v, want 1 span for %s", tr, traceID)
	}
	sp := tr.Spans[0]
	if sp.Service != "tracetest" || sp.Route != "/staged" || sp.Status != http.StatusOK {
		t.Fatalf("span = %+v", sp)
	}
	if len(sp.Stages) != 1 || sp.Stages[0].Name != "fake-stage" || sp.Stages[0].DurationMS != 3 {
		t.Fatalf("stages = %+v, want fake-stage at 3ms", sp.Stages)
	}

	// A request without a traceparent mints its own ID.
	rec = get(t, s.Handler(), "/v1/staged", nil)
	minted, _, ok := obs.ParseTraceparent(rec.Header().Get(obs.TraceHeader))
	if !ok || minted == traceID {
		t.Fatalf("minted traceparent = %q", rec.Header().Get(obs.TraceHeader))
	}

	// Unknown IDs are a not-found envelope.
	rec = get(t, s.Handler(), "/v1/trace/"+obs.NewTraceID(), nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d", rec.Code)
	}
}

// parseProm parses a text exposition, failing the test if it is not
// well-formed.
func parseProm(t *testing.T, body string) map[string]*obs.PromFamily {
	t.Helper()
	fams, err := obs.ParseProm(strings.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	return fams
}

// promValue returns the counter or gauge sample of family name whose
// label set is exactly labels, in whatever order the exposition put
// them.
func promValue(fams map[string]*obs.PromFamily, name string, labels obs.Labels) (float64, bool) {
	if f := fams[name]; f != nil {
		return sampleValue(f.Samples, labels)
	}
	return 0, false
}

func sampleValue(samples []obs.PromSample, labels obs.Labels) (float64, bool) {
	for _, s := range samples {
		if maps.Equal(s.Labels, labels) {
			return s.Value, true
		}
	}
	return 0, false
}

// TestRouteCountersAgreeAcrossFormats sends a mix of outcomes through
// the observer — successes, a 4xx, a panic and unknown paths — and holds
// the JSON route counters to the Prometheus families they are read
// from: count to repro_http_requests_total and the histogram's _count,
// errors to repro_http_request_errors_total, totalMs to the histogram's
// _sum.
func TestRouteCountersAgreeAcrossFormats(t *testing.T) {
	s := NewServer(Options{Service: "agree"})
	s.Get("/probe", func(ctx context.Context, q url.Values) (any, error) {
		switch q.Get("do") {
		case "fail":
			return nil, BadRequest(errors.New("asked to fail"))
		case "panic":
			panic("asked to panic")
		}
		return map[string]string{"ok": "yes"}, nil
	})
	h := s.Handler()
	want := map[string]RouteSnapshot{
		"GET /probe": {Count: 7, Errors: 2},
		"GET 404":    {Count: 2, Errors: 2},
	}
	for _, target := range []string{
		"/v1/probe", "/v1/probe", "/probe", "/v1/probe", "/v1/probe",
		"/v1/probe?do=fail", "/v1/probe?do=panic", "/v1/nope", "/v2/nope",
	} {
		get(t, h, target, nil)
	}

	var snap MetricsSnapshot
	if err := json.Unmarshal(get(t, h, "/v1/metrics", nil).Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	fams := parseProm(t, get(t, h, "/v1/metrics?format=prometheus", nil).Body.String())
	hist := fams["repro_http_request_duration_seconds"]
	if hist == nil {
		t.Fatal("no duration histogram in the exposition")
	}
	seen := 0
	for _, r := range snap.Routes {
		w, ok := want[r.Route]
		if !ok {
			continue
		}
		seen++
		if r.Count != w.Count || r.Errors != w.Errors {
			t.Errorf("%s: JSON count %d errors %d, want %d and %d", r.Route, r.Count, r.Errors, w.Count, w.Errors)
		}
		method, route, _ := strings.Cut(r.Route, " ")
		labels := obs.Labels{"service": "agree", "method": method, "route": route}
		requests, _ := promValue(fams, "repro_http_requests_total", labels)
		errs, _ := promValue(fams, "repro_http_request_errors_total", labels)
		count, _ := sampleValue(hist.Counts, labels)
		sum, _ := sampleValue(hist.Sums, labels)
		if requests != float64(r.Count) || count != float64(r.Count) || errs != float64(r.Errors) {
			t.Errorf("%s: prometheus requests %v, histogram count %v, errors %v; JSON count %d, errors %d",
				r.Route, requests, count, errs, r.Count, r.Errors)
		}
		if math.Abs(sum*1e3-r.TotalMs) > 1e-9*math.Max(1, r.TotalMs) || r.TotalMs <= 0 {
			t.Errorf("%s: histogram sum %vs, JSON totalMs %v", r.Route, sum, r.TotalMs)
		}
		if r.MeanMs != r.TotalMs/float64(r.Count) {
			t.Errorf("%s: meanMs %v, want totalMs/count %v", r.Route, r.MeanMs, r.TotalMs/float64(r.Count))
		}
		if max, ok := promValue(fams, "repro_http_request_duration_seconds_max", labels); !ok || max*1e3 != r.MaxMs || r.MaxMs <= 0 {
			t.Errorf("%s: max gauge %vs (present %v), JSON maxMs %v", r.Route, max, ok, r.MaxMs)
		}
	}
	if seen != len(want) {
		t.Fatalf("JSON routes %+v, want %v among them", snap.Routes, want)
	}
}

// TestInventedMethodsShareOneSeries sends 50 distinct invented methods
// to one unknown path: each HTTP family gains one method="OTHER" series
// for the 404 label, not one per method, and the JSON routes one entry.
func TestInventedMethodsShareOneSeries(t *testing.T) {
	h := NewServer(Options{Service: "methods"}).Handler()
	for i := 0; i < 50; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(fmt.Sprintf("X%dY", i), "/v1/nope", nil))
	}
	fams := parseProm(t, get(t, h, "/v1/metrics?format=prometheus", nil).Body.String())
	other := obs.Labels{"service": "methods", "method": otherMethod, "route": "404"}
	for name, series := range map[string]func(*obs.PromFamily) []obs.PromSample{
		"repro_http_requests_total":               func(f *obs.PromFamily) []obs.PromSample { return f.Samples },
		"repro_http_request_errors_total":         func(f *obs.PromFamily) []obs.PromSample { return f.Samples },
		"repro_http_request_duration_seconds":     func(f *obs.PromFamily) []obs.PromSample { return f.Counts },
		"repro_http_request_duration_seconds_max": func(f *obs.PromFamily) []obs.PromSample { return f.Samples },
	} {
		f := fams[name]
		if f == nil {
			t.Fatalf("no %s family", name)
		}
		var on404 []obs.PromSample
		for _, smp := range series(f) {
			if smp.Labels["route"] == "404" {
				on404 = append(on404, smp)
			}
		}
		if len(on404) != 1 || !maps.Equal(on404[0].Labels, other) {
			t.Errorf("%s has %d series on the 404 label, want the one %v", name, len(on404), other)
		}
	}
	if v, _ := promValue(fams, "repro_http_requests_total", other); v != 50 {
		t.Errorf("OTHER 404 counted %v requests, want 50", v)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(get(t, h, "/v1/metrics", nil).Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	var routes []string
	for _, r := range snap.Routes {
		if strings.HasSuffix(r.Route, " 404") {
			routes = append(routes, r.Route)
		}
	}
	if !slices.Equal(routes, []string{"OTHER 404"}) {
		t.Errorf("JSON 404 routes %v, want [OTHER 404]", routes)
	}
}

// TestAccessLogCarriesTraceID: the access-log line names the request
// and trace IDs, so a line leads to GET /v1/trace/{id}.
func TestAccessLogCarriesTraceID(t *testing.T) {
	var buf strings.Builder
	s := testServer(Options{Service: "logged", Logger: log.New(&buf, "", 0)})
	traceID := obs.NewTraceID()
	get(t, s.Handler(), "/v1/hello?name=a", map[string]string{
		"X-Request-ID":  "rid-7",
		obs.TraceHeader: obs.FormatTraceparent(traceID, obs.NewSpanID()),
	})
	line := buf.String()
	if !strings.HasPrefix(line, "logged: GET /v1/hello?name=a -> /hello 200 ") ||
		!strings.HasSuffix(line, " rid=rid-7 trace="+traceID+"\n") {
		t.Fatalf("access log line = %q", line)
	}
	if rec := get(t, s.Handler(), "/v1/trace/"+traceID, nil); rec.Code != http.StatusOK {
		t.Fatalf("the logged trace ID does not resolve: %d %s", rec.Code, rec.Body)
	}
}

// TestSlowRequestLogged: on a server with a logger, a request of
// slowRequest or more is logged with its trace ID and stage timings
// before its access-log line; a quick one gets the access line alone.
func TestSlowRequestLogged(t *testing.T) {
	var buf strings.Builder
	s := NewServer(Options{Service: "slow", Logger: log.New(&buf, "", 0)})
	s.Get("/nap", func(ctx context.Context, q url.Values) (any, error) {
		obs.StagesFrom(ctx).Observe("nap", slowRequest)
		time.Sleep(slowRequest)
		return "ok", nil
	})
	h := s.Handler()
	get(t, h, "/v1/healthz", nil)
	if lines := strings.Split(strings.TrimSpace(buf.String()), "\n"); len(lines) != 1 {
		t.Fatalf("quick request logged %q", lines)
	}
	buf.Reset()
	traceID := obs.NewTraceID()
	get(t, h, "/v1/nap", map[string]string{obs.TraceHeader: obs.FormatTraceparent(traceID, obs.NewSpanID())})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "slow request trace="+traceID+" GET /nap status=200 ") ||
		!strings.HasSuffix(lines[0], "ms stages=[{nap 1000}]") || !strings.HasPrefix(lines[1], "slow: GET /v1/nap -> /nap 200 ") {
		t.Fatalf("slow request logged %q", lines)
	}
}
