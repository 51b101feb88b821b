package api

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// do serves one request of any method through h.
func do(h http.Handler, method, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, target, nil))
	return rec
}

// envelopeOf decodes a response body that must be the error envelope.
func envelopeOf(t *testing.T, rec *httptest.ResponseRecorder) Envelope {
	t.Helper()
	var env Envelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("body is not an envelope: %q (%v)", rec.Body, err)
	}
	return env
}

// TestRouteLabels pins the metrics label every kind of request is
// counted under: a /v1 route and its bare alias share the unversioned
// path, {param} routes keep their pattern, a 405 counts under the route
// it missed, and a miss under "404".
func TestRouteLabels(t *testing.T) {
	s := testServer(Options{DisableGzip: true})
	s.HandleFunc(http.MethodPost, "/multi", func(w http.ResponseWriter, r *http.Request) {})
	s.HandleFunc(http.MethodDelete, "/multi", func(w http.ResponseWriter, r *http.Request) {})
	s.HandleV2(http.MethodGet, "/series/{device}/{quantity}/samples", QueryP(func(ctx context.Context, p Params, q url.Values) (any, error) {
		return p.Get("device"), nil
	}))
	h := s.Handler()

	for _, tc := range []struct {
		method, target string
		status         int
	}{
		{http.MethodGet, "/v1/hello?name=a", http.StatusOK},
		{http.MethodGet, "/hello?name=a", http.StatusOK},
		{http.MethodGet, "/v1/trace/0123", http.StatusNotFound},
		{http.MethodGet, "/v2/series/urn:a%2Fb/t/samples", http.StatusOK},
		{http.MethodPatch, "/v1/multi", http.StatusMethodNotAllowed},
		{http.MethodPut, "/v2/series/d/q/samples", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/nope", http.StatusNotFound},
		{http.MethodPost, "/v2/nope", http.StatusNotFound},
	} {
		if rec := do(h, tc.method, tc.target); rec.Code != tc.status {
			t.Fatalf("%s %s = %d, want %d: %s", tc.method, tc.target, rec.Code, tc.status, rec.Body)
		}
	}

	rec := do(h, http.MethodPatch, "/multi")
	if allow := rec.Header().Get("Allow"); allow != "DELETE, POST" {
		t.Fatalf("Allow = %q, want the registered methods, sorted, without HEAD", allow)
	}
	if env := envelopeOf(t, rec); env.Code != "method_not_allowed" ||
		env.Error != "method PATCH not allowed on /multi (use DELETE, POST)" {
		t.Fatalf("405 envelope = %+v", env)
	}
	rec = do(h, http.MethodPut, "/v2/series/d/q/samples")
	if allow := rec.Header().Get("Allow"); allow != "GET" {
		t.Fatalf("pattern Allow = %q", allow)
	}
	if env := envelopeOf(t, do(h, http.MethodGet, "/v1/nope")); env.Code != "not_found" ||
		env.Error != `unknown path "/v1/nope"` {
		t.Fatalf("404 envelope = %+v", env)
	}

	counts := make(map[string]uint64)
	for _, snap := range s.Metrics().Snapshot() {
		counts[snap.Route] = snap.Count
	}
	for route, want := range map[string]uint64{
		"GET /hello":      2,
		"GET /trace/{id}": 1,
		"GET /v2/series/{device}/{quantity}/samples": 1,
		"PATCH /multi": 2,
		"PUT /v2/series/{device}/{quantity}/samples": 2,
		"GET 404":  2,
		"POST 404": 1,
	} {
		if counts[route] != want {
			t.Errorf("%s counted %d, want %d (all: %v)", route, counts[route], want, counts)
		}
	}
}

// TestHeadOnGetRoute: HEAD is answered by the GET handler, without a
// body on the wire.
func TestHeadOnGetRoute(t *testing.T) {
	ts := httptest.NewServer(testServer(Options{}).Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/hello?name=a", "/hello?name=a", "/v1/healthz"} {
		rsp, err := http.Head(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(rsp.Body)
		rsp.Body.Close()
		if rsp.StatusCode != http.StatusOK || len(body) != 0 {
			t.Fatalf("HEAD %s = %d with %d body bytes", path, rsp.StatusCode, len(body))
		}
	}
}

// TestDisabledAliasesAnswerEveryMethod: with aliases off, a bare path
// is a 404 envelope carrying the hint, whatever the method and whether
// or not the path is registered, and it is counted as a miss.
func TestDisabledAliasesAnswerEveryMethod(t *testing.T) {
	s := testServer(Options{DisableLegacyAliases: true, DisableGzip: true})
	h := s.Handler()
	for _, method := range []string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
		for _, path := range []string{"/hello", "/echo", "/healthz", "/trace/x", "/nope"} {
			rec := do(h, method, path)
			if rec.Code != http.StatusNotFound {
				t.Fatalf("%s %s = %d, want 404", method, path, rec.Code)
			}
			if method == http.MethodHead {
				continue
			}
			want := `unknown path "` + path + `" (unversioned aliases disabled)`
			if env := envelopeOf(t, rec); env.Error != want || env.Code != "not_found" {
				t.Fatalf("%s %s envelope = %+v, want error %q", method, path, env, want)
			}
		}
	}
	if rec := do(h, http.MethodDelete, "/v1/echo"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("versioned 405 with aliases off = %d", rec.Code)
	}
	for _, snap := range s.Metrics().Snapshot() {
		if !strings.HasSuffix(snap.Route, " 404") && snap.Route != "DELETE /echo" {
			t.Errorf("bare-path request counted under %q", snap.Route)
		}
	}
}

// FuzzSeriesPath holds PathSegment and the router to each other: any
// non-empty device and quantity, escaped by PathSegment, reach a /v2
// pattern route's handler byte for byte. The one exception is a value
// of exactly "/": ServeMux reads a lone %2F segment as a trailing slash,
// which no {param} matches, so such a series is a 404 on every
// per-series route (API.md, Conventions).
func FuzzSeriesPath(f *testing.F) {
	for _, seed := range [][2]string{
		{"urn:district:turin/building:b00/device:d01", "temperature"},
		{".", ".."}, {"..", "."}, {"a//b", "c/"}, {"/../", "%2F"},
		{"100%", "a b?c#d"}, {"ä/€", "\x00\xff"}, {"/", "t"}, {"d", "/"},
	} {
		f.Add(seed[0], seed[1])
	}
	s := NewServer(Options{DisableGzip: true})
	var gotDevice, gotQuantity string
	s.HandleV2(http.MethodGet, "/series/{device}/{quantity}/samples", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotDevice, gotQuantity = r.PathValue("device"), r.PathValue("quantity")
	}))
	h := s.Handler()
	f.Fuzz(func(t *testing.T, device, quantity string) {
		if device == "" || quantity == "" {
			return
		}
		gotDevice, gotQuantity = "", ""
		target := "/v2/series/" + PathSegment(device) + "/" + PathSegment(quantity) + "/samples"
		r, err := http.NewRequest(http.MethodGet, "http://node"+target, nil)
		if err != nil {
			t.Fatalf("%q does not parse: %v", target, err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if device == "/" || quantity == "/" {
			if rec.Code != http.StatusNotFound || gotDevice != "" || gotQuantity != "" {
				t.Fatalf("%s = %d, want the 404 envelope", target, rec.Code)
			}
			return
		}
		if rec.Code != http.StatusOK || gotDevice != device || gotQuantity != quantity {
			t.Fatalf("%s = %d: device %q quantity %q, want %q %q", target, rec.Code, gotDevice, gotQuantity, device, quantity)
		}
	})
}

// TestRoutesRegisteredWhileServing: the router is built by the first
// request, so requests racing that build, and routes registered while
// the server already serves, must all land on their route.
func TestRoutesRegisteredWhileServing(t *testing.T) {
	s := testServer(Options{DisableGzip: true})
	h := s.Handler()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := do(h, http.MethodGet, "/v1/hello?name=a"); rec.Code != http.StatusOK {
				t.Errorf("first requests: %d", rec.Code)
			}
		}()
	}
	for i := 0; i < 8; i++ {
		s.HandleFunc(http.MethodGet, "/late/"+strconv.Itoa(i), func(w http.ResponseWriter, r *http.Request) {})
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		for _, path := range []string{"/v1/late/", "/late/"} {
			if rec := do(h, http.MethodGet, path+strconv.Itoa(i)); rec.Code != http.StatusOK {
				t.Fatalf("GET %s%d = %d", path, i, rec.Code)
			}
		}
		if rec := do(h, http.MethodPost, "/v1/late/"+strconv.Itoa(i)); rec.Code != http.StatusMethodNotAllowed {
			t.Fatalf("POST /v1/late/%d = %d, want 405", i, rec.Code)
		}
	}
}

// TestBadRoutesPanicAtRegistration: the mux is built by the first
// request, but a route it would refuse is refused when it is registered.
func TestBadRoutesPanicAtRegistration(t *testing.T) {
	for name, register := range map[string]func(s *Server){
		"no leading slash": func(s *Server) { s.HandleV2(http.MethodGet, "query", http.NotFoundHandler()) },
		"registered twice": func(s *Server) { s.HandleFunc(http.MethodGet, "/healthz", http.NotFound) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			register(NewServer(Options{}))
		}()
	}
}
