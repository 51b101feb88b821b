package proxyhttp

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/registry"
)

func sampleDoc() *dataformat.Document {
	return dataformat.NewMeasurementDoc(dataformat.Measurement{
		Device: "urn:d", Quantity: dataformat.Temperature, Unit: dataformat.Celsius,
		Value: 21, Timestamp: time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC),
	})
}

func TestNegotiateEncoding(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	if NegotiateEncoding(r) != dataformat.JSON {
		t.Error("default not JSON")
	}
	r.Header.Set("Accept", "application/xml")
	if NegotiateEncoding(r) != dataformat.XML {
		t.Error("xml accept ignored")
	}
}

func TestWriteDocBothEncodings(t *testing.T) {
	for _, accept := range []string{"application/json", "application/xml"} {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		r.Header.Set("Accept", accept)
		WriteDoc(rec, r, sampleDoc())
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", accept, rec.Code)
		}
		if got := rec.Header().Get("Content-Type"); got != accept {
			t.Errorf("%s: content type %q", accept, got)
		}
		if _, err := dataformat.Decode(rec.Body.Bytes(), dataformat.ParseEncoding(accept)); err != nil {
			t.Errorf("%s: undecodable body: %v", accept, err)
		}
	}
}

func TestErrorHelper(t *testing.T) {
	rec := httptest.NewRecorder()
	Error(rec, http.StatusTeapot, http.ErrBodyNotAllowed)
	if rec.Code != http.StatusTeapot {
		t.Errorf("status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "error") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestReadDocSniffsEncoding(t *testing.T) {
	body, _ := sampleDoc().Encode(dataformat.XML)
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(string(body)))
	// No Content-Type: must sniff XML from the payload.
	doc, err := ReadDoc(r)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Measurement == nil || doc.Measurement.Value != 21 {
		t.Errorf("doc = %+v", doc)
	}
}

func TestReadDocHonoursContentType(t *testing.T) {
	body, _ := sampleDoc().Encode(dataformat.JSON)
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(string(body)))
	r.Header.Set("Content-Type", "application/json")
	if _, err := ReadDoc(r); err != nil {
		t.Fatal(err)
	}
}

func TestGetDocErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusNotFound)
	}))
	defer ts.Close()
	if _, err := (&api.Transport{}).GetDoc(context.Background(), ts.URL, dataformat.JSON); err == nil {
		t.Error("404 accepted")
	}
	if _, err := (&api.Transport{}).GetDoc(context.Background(), "http://127.0.0.1:1/", dataformat.JSON); err == nil {
		t.Error("dead server accepted")
	}
}

func TestPostDocRoundTrip(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		doc, err := ReadDoc(r)
		if err != nil {
			Error(w, http.StatusBadRequest, err)
			return
		}
		WriteDoc(w, r, doc) // echo
	}))
	defer ts.Close()
	got, err := (&api.Transport{}).PostDoc(context.Background(), ts.URL, sampleDoc(), dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if got.Measurement == nil || got.Measurement.Value != 21 {
		t.Errorf("echo = %+v", got)
	}
}

func TestPostDocEmptyReply(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ts.Close()
	got, err := (&api.Transport{}).PostDoc(context.Background(), ts.URL, sampleDoc(), dataformat.JSON)
	if err != nil || got != nil {
		t.Errorf("empty reply: %v %v", got, err)
	}
}

func TestServerServeAndClose(t *testing.T) {
	var srv Server
	if srv.Addr() != "" {
		t.Error("Addr before Serve")
	}
	addr, err := srv.Serve("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() != addr {
		t.Errorf("Addr = %q, want %q", srv.Addr(), addr)
	}
	rsp, err := http.Get("http://" + addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	srv.Close()
	if _, err := http.Get("http://" + addr + "/"); err == nil {
		t.Error("server alive after Close")
	}
}

// fakeMaster implements just enough of the master's registration API.
func fakeMaster(t *testing.T, failHeartbeat *atomic.Bool) (*httptest.Server, *int32) {
	t.Helper()
	var registered int32
	mux := http.NewServeMux()
	register := func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			atomic.AddInt32(&registered, 1)
			w.WriteHeader(http.StatusOK)
		case http.MethodDelete:
			atomic.AddInt32(&registered, -1)
			w.WriteHeader(http.StatusOK)
		}
	}
	heartbeat := func(w http.ResponseWriter, r *http.Request) {
		if failHeartbeat != nil && failHeartbeat.Load() {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusOK)
	}
	// The registrar speaks the versioned API; the bare paths stay
	// registered to mirror the real master's legacy aliases.
	mux.HandleFunc("/register", register)
	mux.HandleFunc("/v1/register", register)
	mux.HandleFunc("/heartbeat", heartbeat)
	mux.HandleFunc("/v1/heartbeat", heartbeat)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, &registered
}

func TestRegistrarLifecycle(t *testing.T) {
	ts, registered := fakeMaster(t, nil)
	reg := &Registrar{
		MasterURL: ts.URL + "/", // trailing slash must be tolerated
		Registration: registry.Registration{
			ID: "p", Kind: registry.KindBIM, BaseURL: "http://x/", EntityURI: "urn:e",
		},
		HeartbeatEvery: 5 * time.Millisecond,
	}
	if err := reg.Start(); err != nil {
		t.Fatal(err)
	}
	if atomic.LoadInt32(registered) != 1 {
		t.Fatal("not registered")
	}
	time.Sleep(30 * time.Millisecond)
	reg.Stop()
	if got := atomic.LoadInt32(registered); got != 0 {
		t.Fatalf("after Stop registered = %d", got)
	}
}

func TestRegistrarReRegistersOnHeartbeatFailure(t *testing.T) {
	var fail atomic.Bool
	ts, registered := fakeMaster(t, &fail)
	reg := &Registrar{
		MasterURL: ts.URL,
		Registration: registry.Registration{
			ID: "p", Kind: registry.KindBIM, BaseURL: "http://x/", EntityURI: "urn:e",
		},
		HeartbeatEvery: 5 * time.Millisecond,
	}
	if err := reg.Start(); err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	fail.Store(true) // master forgets: heartbeats 404, registrar re-registers
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if atomic.LoadInt32(registered) >= 2 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("registrar never re-registered after heartbeat failures")
}

func TestRegistrarStartFailure(t *testing.T) {
	reg := &Registrar{
		MasterURL: "http://127.0.0.1:1",
		Registration: registry.Registration{
			ID: "p", Kind: registry.KindBIM, BaseURL: "http://x/", EntityURI: "urn:e",
		},
	}
	if err := reg.Start(); err == nil {
		t.Fatal("Start against dead master succeeded")
	}
}
