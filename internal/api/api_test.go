package api

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/dataformat"
	"repro/internal/obs"
)

// testServer builds a Server with a few representative routes.
func testServer(opts Options) *Server {
	s := NewServer(opts)
	s.Get("/hello", func(ctx context.Context, q url.Values) (any, error) {
		name := q.Get("name")
		if name == "" {
			return nil, BadRequest(errors.New("missing name"))
		}
		return map[string]string{"hello": name}, nil
	})
	s.Get("/doc", func(ctx context.Context, q url.Values) (any, error) {
		return dataformat.NewEntityDoc(dataformat.Entity{
			URI: "urn:x", Kind: dataformat.EntityBuilding, Name: "X",
		}), nil
	})
	s.Handle(http.MethodPost, "/echo", Body(func(ctx context.Context, in map[string]string) (map[string]string, error) {
		return in, nil
	}))
	s.Get("/boom", func(ctx context.Context, q url.Values) (any, error) {
		panic("kaboom")
	})
	return s
}

func get(t *testing.T, h http.Handler, target string, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, target, nil)
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

func TestVersionedAndLegacyAliases(t *testing.T) {
	h := testServer(Options{}).Handler()
	for _, target := range []string{"/hello?name=a", "/v1/hello?name=a"} {
		rec := get(t, h, target, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", target, rec.Code, rec.Body)
		}
		var out map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || out["hello"] != "a" {
			t.Fatalf("%s body = %q (%v)", target, rec.Body, err)
		}
	}
}

func TestLegacyAliasesCanBeDisabled(t *testing.T) {
	h := testServer(Options{DisableLegacyAliases: true}).Handler()
	if rec := get(t, h, "/v1/hello?name=a", nil); rec.Code != http.StatusOK {
		t.Fatalf("versioned path = %d", rec.Code)
	}
	if rec := get(t, h, "/hello?name=a", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("legacy path = %d, want 404", rec.Code)
	}
}

func TestUniformNotFoundAndMethodNotAllowed(t *testing.T) {
	h := testServer(Options{}).Handler()

	rec := get(t, h, "/nope", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path = %d", rec.Code)
	}
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("404 body not an envelope: %q", rec.Body)
	}
	if env.Code != "not_found" || env.Error == "" || env.RequestID == "" {
		t.Fatalf("404 envelope = %+v", env)
	}

	r := httptest.NewRequest(http.MethodDelete, "/v1/echo", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("bad method = %d", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "POST" {
		t.Fatalf("Allow = %q", allow)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Code != "method_not_allowed" {
		t.Fatalf("405 envelope = %+v (%v)", env, err)
	}
}

func TestBodyAdapterDecodesAndRejects(t *testing.T) {
	h := testServer(Options{}).Handler()

	r := httptest.NewRequest(http.MethodPost, "/v1/echo", strings.NewReader(`{"a":"b"}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"a":"b"`) {
		t.Fatalf("echo = %d %q", rec.Code, rec.Body)
	}

	r = httptest.NewRequest(http.MethodPost, "/v1/echo", strings.NewReader(`{`))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed body = %d", rec.Code)
	}
}

func TestDocResultIsContentNegotiated(t *testing.T) {
	h := testServer(Options{}).Handler()
	for accept, wantCT := range map[string]string{
		"application/json":                  "application/json",
		"application/xml":                   "application/xml",
		"application/xml;q=0, */*":          "application/json",
		"application/json;q=0.1, text/xml":  "application/xml",
		"text/html, application/xhtml+xml":  "application/json",
		"":                                  "application/json",
		"application/*;q=0.8, text/xml;q=1": "application/xml",
	} {
		rec := get(t, h, "/v1/doc", map[string]string{"Accept": accept})
		if rec.Code != http.StatusOK {
			t.Fatalf("Accept %q: status %d", accept, rec.Code)
		}
		if got := rec.Header().Get("Content-Type"); got != wantCT {
			t.Errorf("Accept %q: content type %q, want %q", accept, got, wantCT)
		}
		enc := dataformat.ParseEncoding(wantCT)
		if _, err := dataformat.Decode(rec.Body.Bytes(), enc); err != nil {
			t.Errorf("Accept %q: undecodable body: %v", accept, err)
		}
	}
}

// A handler outside the adapters (no request at hand) still writes the
// uniform envelope with the status it chose.
func TestWriteErrorStatusWithoutRequest(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteErrorStatus(rec, nil, http.StatusTeapot, http.ErrBodyNotAllowed)
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusTeapot ||
		env.Status != http.StatusTeapot || env.Error != http.ErrBodyNotAllowed.Error() {
		t.Fatalf("envelope = %d %q (%v)", rec.Code, rec.Body, err)
	}
}

func TestReadDocSniffsEncoding(t *testing.T) {
	body, _ := dataformat.NewEntityDoc(dataformat.Entity{URI: "urn:x", Kind: dataformat.EntityBuilding}).Encode(dataformat.XML)
	// No Content-Type: the encoding is sniffed from the payload.
	doc, err := ReadDoc(httptest.NewRequest(http.MethodPost, "/", strings.NewReader(string(body))))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Entity == nil || doc.Entity.URI != "urn:x" {
		t.Errorf("doc = %+v", doc)
	}
}

func TestErrorEnvelopeStatusMapping(t *testing.T) {
	sentinel := errors.New("api_test: domain sentinel")
	RegisterStatus(sentinel, http.StatusConflict)

	cases := []struct {
		err  error
		want int
	}{
		{BadRequest(errors.New("x")), http.StatusBadRequest},
		{NotFound(errors.New("x")), http.StatusNotFound},
		{MethodNotAllowed(errors.New("x")), http.StatusMethodNotAllowed},
		{Internal(errors.New("x")), http.StatusInternalServerError},
		{WithStatus(http.StatusTeapot, errors.New("x")), http.StatusTeapot},
		{sentinel, http.StatusConflict},
		{errors.Join(errors.New("wrap"), sentinel), http.StatusConflict},
		{errors.New("unmapped"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := StatusOf(tc.err); got != tc.want {
			t.Errorf("StatusOf(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestRecoverMiddlewareConvertsPanics(t *testing.T) {
	h := testServer(Options{}).Handler()
	rec := get(t, h, "/v1/boom", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panic = %d", rec.Code)
	}
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || !strings.Contains(env.Error, "kaboom") {
		t.Fatalf("panic envelope = %+v (%v)", env, err)
	}
}

func TestRequestIDPropagatesAndEchoes(t *testing.T) {
	h := testServer(Options{}).Handler()
	rec := get(t, h, "/v1/hello?name=a", map[string]string{"X-Request-ID": "abc-123"})
	if got := rec.Header().Get("X-Request-ID"); got != "abc-123" {
		t.Fatalf("inbound id not echoed: %q", got)
	}
	rec = get(t, h, "/v1/hello?name=a", nil)
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("no generated request id")
	}
}

// TestMiddlewareChainOrder asserts the documented order: the request ID
// is already in the context when the handler (and any panic envelope)
// runs, and metrics observe panics as 500s.
func TestMiddlewareChainOrder(t *testing.T) {
	s := NewServer(Options{})
	var seenID string
	s.Get("/probe", func(ctx context.Context, q url.Values) (any, error) {
		seenID = RequestIDFrom(ctx)
		return "ok", nil
	})
	s.Get("/die", func(ctx context.Context, q url.Values) (any, error) {
		panic("die")
	})
	h := s.Handler()

	rec := get(t, h, "/v1/probe", map[string]string{"X-Request-ID": "order-1"})
	if rec.Code != http.StatusOK || seenID != "order-1" {
		t.Fatalf("request id not visible inside handler: %q (status %d)", seenID, rec.Code)
	}

	rec = get(t, h, "/v1/die", nil)
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.RequestID == "" {
		t.Fatalf("panic envelope lost the request id: %q", rec.Body)
	}

	var dieStats *RouteSnapshot
	for _, snap := range s.Metrics().Snapshot() {
		if snap.Route == "GET /die" {
			dieStats = &snap
		}
	}
	if dieStats == nil || dieStats.Count != 1 || dieStats.Errors != 1 {
		t.Fatalf("metrics did not observe the panic: %+v", dieStats)
	}
}

func TestGzipMiddleware(t *testing.T) {
	ts := httptest.NewServer(testServer(Options{}).Handler())
	defer ts.Close()

	// The default Go client advertises gzip and decodes transparently;
	// the body is over the 1 KiB floor, so it is compressed.
	long := strings.Repeat("gz", gzipMinBytes)
	rsp, err := http.Get(ts.URL + "/v1/hello?name=" + long)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(rsp.Body).Decode(&out); err != nil || out["hello"] != long {
		t.Fatalf("transparent gzip decode failed: %v %v", out, err)
	}
	if !rsp.Uncompressed {
		t.Error("response was not gzip-compressed on the wire")
	}

	// A client refusing gzip gets identity bytes — including when the
	// q parameter is not the first parameter of the member.
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	for _, refusal := range []string{"gzip;q=0", "gzip;x=1;q=0", "gzip; q=0.000"} {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/hello?name="+long, nil)
		req.Header.Set("Accept-Encoding", refusal)
		rsp2, err := tr.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if rsp2.Header.Get("Content-Encoding") == "gzip" {
			t.Errorf("%q: gzip forced on a refusing client", refusal)
		}
		var out2 map[string]string
		if err := json.NewDecoder(rsp2.Body).Decode(&out2); err != nil || out2["hello"] != long {
			t.Fatalf("%q: identity body = %v (%v)", refusal, out2, err)
		}
		rsp2.Body.Close()
	}
}

func TestBuiltinHealthzAndMetrics(t *testing.T) {
	s := testServer(Options{})
	h := s.Handler()
	for _, target := range []string{"/healthz", "/v1/healthz"} {
		if rec := get(t, h, target, nil); rec.Code != http.StatusOK {
			t.Fatalf("%s = %d", target, rec.Code)
		}
	}
	get(t, h, "/v1/hello?name=a", nil)
	rec := get(t, h, "/v1/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/metrics = %d", rec.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil || len(snap.Routes) == 0 {
		t.Fatalf("metrics body = %q (%v)", rec.Body, err)
	}
	found := false
	for _, s := range snap.Routes {
		if s.Route == "GET /hello" && s.Count >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("GET /hello not counted: %+v", snap.Routes)
	}
}

func TestMetricsExposesLimiterTiers(t *testing.T) {
	s := testServer(Options{})
	rl := NewRateLimiter(1, 1)
	s.Metrics().RegisterLimiter("read", rl)
	rl.Allow("10.0.0.1") // one admitted
	rl.Allow("10.0.0.1") // one rejected (burst 1)

	rec := get(t, s.Handler(), "/v1/metrics", nil)
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics body = %q (%v)", rec.Body, err)
	}
	if len(snap.Limiters) != 1 {
		t.Fatalf("limiters = %+v", snap.Limiters)
	}
	l := snap.Limiters[0]
	if l.Tier != "read" || l.Allowed != 1 || l.Rejected != 1 || l.Buckets != 1 {
		t.Fatalf("limiter stats = %+v", l)
	}

	rec = get(t, s.Handler(), "/v1/metrics?format=prometheus", nil)
	fams := parseProm(t, rec.Body.String())
	for _, name := range []string{"repro_rate_limit_allowed_total", "repro_rate_limit_rejected_total"} {
		if v, ok := promValue(fams, name, obs.Labels{"service": "", "tier": "read"}); !ok || v != 1 {
			t.Errorf("%s{service=\"\",tier=\"read\"} = %v (present %v), want 1 in:\n%s", name, v, ok, rec.Body)
		}
	}
}

func TestV2ExactAndPatternRouting(t *testing.T) {
	s := NewServer(Options{})
	s.HandleV2(http.MethodPost, "/query", Body(func(ctx context.Context, in map[string]int) (map[string]int, error) {
		return map[string]int{"n": in["n"] * 2}, nil
	}))
	s.HandleV2(http.MethodGet, "/series/{device}/{quantity}/samples", QueryP(func(ctx context.Context, p Params, q url.Values) (any, error) {
		return map[string]string{
			"device":   p.Get("device"),
			"quantity": p.Get("quantity"),
			"limit":    q.Get("limit"),
		}, nil
	}))
	h := s.Handler()

	// Exact /v2 route.
	r := httptest.NewRequest(http.MethodPost, "/v2/query", strings.NewReader(`{"n":21}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"n":42`) {
		t.Fatalf("/v2/query = %d %q", rec.Code, rec.Body)
	}

	// Pattern route with an escaped device URI (embedded slashes).
	device := "urn:district:turin/building:b00/device:d01"
	target := "/v2/series/" + url.PathEscape(device) + "/temperature/samples?limit=5"
	rec = get(t, h, target, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("pattern route = %d %q", rec.Code, rec.Body)
	}
	var out map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out["device"] != device || out["quantity"] != "temperature" || out["limit"] != "5" {
		t.Fatalf("params = %+v", out)
	}

	// Escaped values that hold empty, dot and trailing segments, a
	// literal %, and dot-only names, each one parameter.
	for _, tc := range []struct{ escaped, device string }{
		{"a%2F%2Fb", "a//b"},
		{"a%2F..%2Fb", "a/../b"},
		{"urn:x%2F", "urn:x/"},
		{"100%25", "100%"},
		{PathSegment("."), "."},
		{PathSegment(".."), ".."},
	} {
		rec := get(t, h, "/v2/series/"+tc.escaped+"/"+PathSegment(".")+"/samples", nil)
		var out map[string]string
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &out) != nil ||
			out["device"] != tc.device || out["quantity"] != "." {
			t.Fatalf("%s = %d %q, want device %q quantity \".\"", tc.escaped, rec.Code, rec.Body, tc.device)
		}
	}

	// Wrong method on a matched pattern draws the uniform 405.
	r = httptest.NewRequest(http.MethodDelete, target, nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET" {
		t.Fatalf("pattern 405 = %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}

	// /v2 misses draw the envelope; /v2 routes have no legacy aliases.
	if rec := get(t, h, "/v2/nope", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("/v2 miss = %d", rec.Code)
	}
	if rec := get(t, h, "/series/x/y/samples", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unversioned v2 path = %d, want 404", rec.Code)
	}
}

func TestSetLegacyAliasesAtRuntime(t *testing.T) {
	s := testServer(Options{})
	h := s.Handler()
	if rec := get(t, h, "/hello?name=a", nil); rec.Code != http.StatusOK {
		t.Fatalf("alias before disable = %d", rec.Code)
	}
	s.SetLegacyAliases(false)
	if rec := get(t, h, "/hello?name=a", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("alias after disable = %d", rec.Code)
	}
	if rec := get(t, h, "/v1/hello?name=a", nil); rec.Code != http.StatusOK {
		t.Fatalf("versioned path after disable = %d", rec.Code)
	}
	s.SetLegacyAliases(true)
	if rec := get(t, h, "/hello?name=a", nil); rec.Code != http.StatusOK {
		t.Fatalf("alias after re-enable = %d", rec.Code)
	}
}

func TestParseAccept(t *testing.T) {
	ranges := ParseAccept("text/html, application/xml;q=0.9, */*;q=0.1, garbage")
	if len(ranges) != 3 {
		t.Fatalf("ranges = %+v", ranges)
	}
	if ranges[0].Subtype != "html" || ranges[1].Subtype != "xml" || ranges[2].Type != "*" {
		t.Errorf("order = %+v", ranges)
	}
	if NegotiateMediaType("application/json;q=0, application/xml;q=0", "application/json", "application/xml") != "" {
		t.Error("all-refused did not return empty")
	}
}
