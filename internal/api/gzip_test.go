package api

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// rawGet fetches target without the transport's transparent gzip
// handling, so the test sees the headers and bytes that were on the
// wire.
func rawGet(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	tr := &http.Transport{DisableCompression: true}
	defer tr.CloseIdleConnections()
	rsp, err := tr.RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	wire, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return rsp, wire
}

func gunzip(t *testing.T, wire []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("not a gzip stream: %v", err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

// sizedServer serves /v1/sized?n=N (N bytes of body in two writes, the
// status from ?status=, a handler-set Content-Length with ?cl=1).
func sizedServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(Options{})
	s.HandleFunc(http.MethodGet, "/sized", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		n, _ := strconv.Atoi(q.Get("n"))
		body := bytes.Repeat([]byte("district "), n/9+1)[:n]
		w.Header().Set("Content-Type", "text/plain")
		if q.Get("cl") != "" {
			w.Header().Set("Content-Length", strconv.Itoa(n))
		}
		if st, err := strconv.Atoi(q.Get("status")); err == nil {
			w.WriteHeader(st)
		}
		_, _ = w.Write(body[:n/2])
		_, _ = w.Write(body[n/2:])
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestGzipThresholdAndHeaders(t *testing.T) {
	_, ts := sizedServer(t)
	gz := map[string]string{"Accept-Encoding": "gzip"}
	for _, n := range []int{1, gzipMinBytes - 1, gzipMinBytes, gzipMinBytes + 1, 8 * gzipMinBytes} {
		rsp, wire := rawGet(t, fmt.Sprintf("%s/v1/sized?n=%d", ts.URL, n), gz)
		if rsp.Header.Get("Vary") != "Accept-Encoding" {
			t.Errorf("n=%d: Vary = %q", n, rsp.Header.Get("Vary"))
		}
		if n < gzipMinBytes {
			if ce := rsp.Header.Get("Content-Encoding"); ce != "" {
				t.Errorf("n=%d: sub-threshold body has Content-Encoding %q", n, ce)
			}
			if cl := rsp.Header.Get("Content-Length"); cl != strconv.Itoa(n) {
				t.Errorf("n=%d: Content-Length = %q", n, cl)
			}
			if len(wire) != n {
				t.Errorf("n=%d: %d bytes on the wire", n, len(wire))
			}
			continue
		}
		if ce := rsp.Header.Get("Content-Encoding"); ce != "gzip" {
			t.Fatalf("n=%d: Content-Encoding = %q, want gzip", n, ce)
		}
		if cl := rsp.Header.Get("Content-Length"); cl != "" && cl != strconv.Itoa(len(wire)) {
			t.Errorf("n=%d: Content-Length %q over %d wire bytes", n, cl, len(wire))
		}
		if plain := gunzip(t, wire); len(plain) != n {
			t.Errorf("n=%d: decoded %d bytes", n, len(plain))
		}
	}

	// A handler-set Content-Length is kept on a plain body and dropped
	// on a compressed one.
	rsp, _ := rawGet(t, ts.URL+"/v1/sized?n=100&cl=1", gz)
	if rsp.Header.Get("Content-Length") != "100" || rsp.Header.Get("Content-Encoding") != "" {
		t.Errorf("small body with handler Content-Length: %v", rsp.Header)
	}
	rsp, wire := rawGet(t, ts.URL+"/v1/sized?n=4000&cl=1", gz)
	if rsp.Header.Get("Content-Length") == "4000" || len(gunzip(t, wire)) != 4000 {
		t.Errorf("large body with handler Content-Length: %v", rsp.Header)
	}

	// Bodiless responses never advertise gzip.
	for _, tc := range []struct {
		query, wantCL string
		status        int
	}{
		{"n=0", "0", http.StatusOK},
		{"n=0&status=200", "0", http.StatusOK},
		{"n=0&status=204", "", http.StatusNoContent},
		{"n=0&status=304", "", http.StatusNotModified},
	} {
		rsp, wire := rawGet(t, ts.URL+"/v1/sized?"+tc.query, gz)
		if rsp.StatusCode != tc.status || len(wire) != 0 {
			t.Errorf("%s: status %d, %d body bytes", tc.query, rsp.StatusCode, len(wire))
		}
		if ce := rsp.Header.Get("Content-Encoding"); ce != "" {
			t.Errorf("%s: empty response advertises Content-Encoding %q", tc.query, ce)
		}
		if cl := rsp.Header.Get("Content-Length"); cl != tc.wantCL {
			t.Errorf("%s: Content-Length = %q, want %q", tc.query, cl, tc.wantCL)
		}
		if rsp.Header.Get("Vary") != "Accept-Encoding" {
			t.Errorf("%s: Vary = %q", tc.query, rsp.Header.Get("Vary"))
		}
	}

	// A client that did not ask gets the large body untouched.
	rsp, wire = rawGet(t, ts.URL+"/v1/sized?n=4000", map[string]string{"Accept-Encoding": "identity"})
	if rsp.Header.Get("Content-Encoding") != "" || len(wire) != 4000 {
		t.Errorf("identity client: Content-Encoding %q, %d bytes", rsp.Header.Get("Content-Encoding"), len(wire))
	}
}

// A handler that flushes is streaming: the gzip stream starts at the
// flush, and the bytes written so far reach the client before the
// handler goes on.
func TestGzipFlushBeforeThreshold(t *testing.T) {
	s := NewServer(Options{})
	release := make(chan struct{})
	s.HandleFunc(http.MethodGet, "/trickle", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"row":1}`)
		w.(http.Flusher).Flush()
		<-release
		fmt.Fprintln(w, `{"row":2}`)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rsp, err := http.Get(ts.URL + "/v1/trickle") // transparent gzip
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if !rsp.Uncompressed {
		t.Error("a flushed stream should be gzip-coded")
	}
	first := make([]byte, len(`{"row":1}`)+1)
	if _, err := io.ReadFull(rsp.Body, first); err != nil || string(first) != "{\"row\":1}\n" {
		t.Fatalf("first row before the handler finished: %q (%v)", first, err)
	}
	close(release)
	rest, err := io.ReadAll(rsp.Body)
	if err != nil || string(rest) != "{\"row\":2}\n" {
		t.Fatalf("rest = %q (%v)", rest, err)
	}
}

func TestGzipExemptsEventStreams(t *testing.T) {
	_, ts := sizedServer(t)
	rsp, wire := rawGet(t, ts.URL+"/v1/sized?n=4000", map[string]string{
		"Accept-Encoding": "gzip", "Accept": "text/event-stream",
	})
	if rsp.Header.Get("Content-Encoding") != "" || len(wire) != 4000 {
		t.Fatalf("event-stream request was compressed: %v", rsp.Header)
	}
}

// The panic envelope is a short body: it reaches a gzip-accepting
// client whole and plain.
func TestGzipDeliversPanicEnvelope(t *testing.T) {
	ts := httptest.NewServer(testServer(Options{}).Handler())
	defer ts.Close()
	rsp, wire := rawGet(t, ts.URL+"/v1/boom", map[string]string{"Accept-Encoding": "gzip"})
	var env Envelope
	if err := json.Unmarshal(wire, &env); err != nil || env.Status != http.StatusInternalServerError {
		t.Fatalf("panic envelope = %q (%v)", wire, err)
	}
	if rsp.StatusCode != http.StatusInternalServerError || rsp.Header.Get("Content-Encoding") != "" {
		t.Fatalf("status %d, Content-Encoding %q", rsp.StatusCode, rsp.Header.Get("Content-Encoding"))
	}
}

// http.ErrAbortHandler must pass through Recover: it is how a relaying
// handler turns an upstream failure into a client-visible one.
func TestRecoverReraisesAbortHandler(t *testing.T) {
	s := NewServer(Options{})
	s.HandleFunc(http.MethodGet, "/cut", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(bytes.Repeat([]byte("x"), 4*gzipMinBytes))
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	rsp, err := http.Get(ts.URL + "/v1/cut")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if body, err := io.ReadAll(rsp.Body); err == nil {
		t.Fatalf("aborted response read cleanly (%d bytes)", len(body))
	}
}

func TestAcceptsGzipFastPath(t *testing.T) {
	for value, want := range map[string]bool{
		"gzip": true, "identity": false, "": false,
		"gzip, deflate, br": true, "*": true, "gzip;q=0": false, "deflate": false,
	} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Header.Set("Accept-Encoding", value)
		if got := acceptsGzip(r); got != want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", value, got, want)
		}
	}
	for _, value := range []string{"gzip", "identity"} {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Header.Set("Accept-Encoding", value)
		if n := testing.AllocsPerRun(100, func() { acceptsGzip(r) }); n != 0 {
			t.Errorf("acceptsGzip(%q) allocates %v times", value, n)
		}
	}
}

func TestResponseByteCounters(t *testing.T) {
	s, ts := sizedServer(t)
	counter := func(name, encoding string) float64 {
		for _, in := range s.Metrics().Instruments() {
			if in.Name == name && in.Labels["encoding"] == encoding {
				return in.Value
			}
		}
		t.Fatalf("no instrument %s{encoding=%q}", name, encoding)
		return 0
	}
	_, wire := rawGet(t, ts.URL+"/v1/sized?n=9000", map[string]string{"Accept-Encoding": "gzip"})
	rawGet(t, ts.URL+"/v1/sized?n=500", map[string]string{"Accept-Encoding": "gzip"})
	rawGet(t, ts.URL+"/v1/sized?n=3000", nil)

	if got := counter("repro_http_response_bytes_total", "gzip"); got != float64(len(wire)) {
		t.Errorf("gzip wire bytes = %v, want %d", got, len(wire))
	}
	if got := counter("repro_http_response_bytes_total", "identity"); got != 3500 {
		t.Errorf("identity wire bytes = %v, want 3500", got)
	}
	if got := counter("repro_http_response_plain_bytes_total", ""); got != 12500 {
		t.Errorf("plain bytes = %v, want 12500", got)
	}
	var prom strings.Builder
	s.Metrics().WritePrometheus(&prom, "t")
	if !strings.Contains(prom.String(), `repro_http_response_bytes_total{encoding="gzip",service="t"}`) {
		t.Errorf("prometheus exposition lacks the gzip byte counter:\n%s", prom.String())
	}
}
