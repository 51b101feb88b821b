package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataformat"
	"repro/internal/dbproxy"
	"repro/internal/gis"
	"repro/internal/master"
	"repro/internal/ontology"
	"repro/internal/proxyhttp"
	"repro/internal/sim"
)

// tally is a RoundTripper counting responses by "<status> <path>" and
// the requests currently on the wire.
type tally struct {
	mu       sync.Mutex
	seen     map[string]int
	inFlight int
}

func (c *tally) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.inFlight++
	c.mu.Unlock()
	rsp, err := http.DefaultTransport.RoundTrip(r)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inFlight--
	if err == nil {
		if c.seen == nil {
			c.seen = map[string]int{}
		}
		c.seen[fmt.Sprintf("%d %s", rsp.StatusCode, r.URL.Path)]++
	}
	return rsp, err
}

// take returns the counts since the last take.
func (c *tally) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.seen
	c.seen = nil
	return out
}

// A model that changed is never answered from the copy the client
// holds: SetDemand moves the SIM proxy's ETag and the next FetchModel is
// a 200 carrying the new flows; a gis.Store.Add does the same for
// /v1/features. An unchanged model is a 304 and the very same document.
func TestFetchRevalidatesAndNeverServesAStaleModel(t *testing.T) {
	network := sim.Synthesize(sim.SynthOptions{ID: "dh00", Substations: 3, Seed: 5})
	simProxy, err := dbproxy.NewSIMProxy("turin", network)
	if err != nil {
		t.Fatal(err)
	}
	simTS := httptest.NewServer(simProxy.Handler())
	t.Cleanup(simTS.Close)
	store := gis.NewStore(0)
	add := func(id string) {
		t.Helper()
		if err := store.Add(gis.Feature{ID: id, Kind: gis.FeatureBuilding, Footprint: []gis.Point{{Lat: 45.06, Lon: 7.66}}}); err != nil {
			t.Fatal(err)
		}
	}
	add("urn:district:turin/building:b01")
	gisTS := httptest.NewServer(dbproxy.NewGISProxy("turin", store).Handler())
	t.Cleanup(gisTS.Close)

	seen := &tally{}
	c := &Client{HTTP: &http.Client{Transport: seen}}
	ctx := context.Background()

	first, err := c.FetchModel(ctx, simTS.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.FetchModel(ctx, simTS.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if got := seen.take(); got["200 /v1/model"] != 1 || got["304 /v1/model"] != 1 || again != first {
		t.Fatalf("unchanged model: %v, same document %v", got, again == first)
	}
	var substation string
	for _, n := range network.Nodes {
		if n.Kind == sim.NodeSubstation {
			substation = n.ID
		}
	}
	if !simProxy.SetDemand(substation, 4321) {
		t.Fatalf("SetDemand(%q) refused", substation)
	}
	changed, err := c.FetchModel(ctx, simTS.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if got := seen.take(); got["200 /v1/model"] != 1 || len(got) != 1 {
		t.Fatalf("after SetDemand: %v, want one 200", got)
	}
	if reflect.DeepEqual(changed, first) {
		t.Fatal("model after SetDemand equals the model before it")
	}
	fresh, err := (&Client{}).FetchModel(ctx, simTS.URL+"/")
	if err != nil || !reflect.DeepEqual(changed, fresh) {
		t.Fatalf("revalidated model differs from a fresh client's (err=%v)", err)
	}

	for want := 1; want <= 2; want++ {
		for _, status := range []string{"200", "304"} {
			feats, err := c.FetchGISFeatures(ctx, gisTS.URL+"/", Area{})
			if err != nil || len(feats) != want {
				t.Fatalf("features = %d (err=%v), want %d", len(feats), err, want)
			}
			if got := seen.take(); got[status+" /v1/features"] != 1 || len(got) != 1 {
				t.Fatalf("features fetch with %d stored: %v, want one %s", want, got, status)
			}
		}
		add(fmt.Sprintf("urn:district:turin/building:b%02d", want+1))
	}
	// Another box on the same route is another document, not a 304.
	if feats, err := c.FetchGISFeatures(ctx, gisTS.URL+"/", Area{MinLat: 1, MinLon: 1, MaxLat: 2, MaxLon: 2}); err != nil || len(feats) != 0 {
		t.Fatalf("far box = %d features (err=%v)", len(feats), err)
	}
	if got := seen.take(); got["200 /v1/features"] != 1 {
		t.Fatalf("far box: %v, want a 200", got)
	}
}

// A 304 the client did not ask for — it holds nothing for the URL — is
// an error, never a nil model.
func TestFetchModelRejectsAnUnaskedNotModified(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"x"`)
		w.WriteHeader(http.StatusNotModified)
	}))
	t.Cleanup(ts.Close)
	c := &Client{}
	if e, err := c.FetchModel(context.Background(), ts.URL+"/"); err == nil || e != nil {
		t.Fatalf("FetchModel = %v, %v; want an error", e, err)
	}
	if feats, err := c.FetchGISFeatures(context.Background(), ts.URL+"/", Area{}); err == nil || feats != nil {
		t.Fatalf("FetchGISFeatures = %v, %v; want an error", feats, err)
	}
}

// XML and JSON copies of one model are held apart: each encoding gets
// its own 200, then its own 304.
func TestFetchModelHoldsEncodingsApart(t *testing.T) {
	f := newFixture(t)
	seen := &tally{}
	hc := &http.Client{Transport: seen}
	c := &Client{HTTP: hc}
	for _, enc := range []dataformat.Encoding{dataformat.JSON, dataformat.XML, dataformat.JSON, dataformat.XML} {
		c.Encoding = enc
		if e, err := c.FetchModel(context.Background(), f.bimTS.URL+"/"); err != nil || e.Kind != dataformat.EntityBuilding {
			t.Fatalf("%s model = %+v, %v", enc, e, err)
		}
	}
	if got := seen.take(); got["200 /v1/model"] != 2 || got["304 /v1/model"] != 2 {
		t.Fatalf("two encodings, two fetches each: %v", got)
	}
}

// Two goroutines building the area model on one Client share the held
// documents; neither the merge nor the other goroutine may change them.
func TestBuildAreaModelConcurrentCallsLeaveHeldDocumentsIntact(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				model, err := f.client.BuildAreaModel(ctx, "turin", Area{}, BuildOptions{IncludeGIS: true})
				if err != nil || len(model.Entities) == 0 || len(model.Conflicts) == 0 {
					t.Errorf("BuildAreaModel = %+v, %v", model, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	held := 0
	f.client.docs.Range(func(_, v any) bool {
		held++
		doc := v.(heldDoc)
		fresh, err := (&Client{}).fetchDoc(ctx, doc.url)
		if err != nil || !reflect.DeepEqual(doc.doc, fresh) {
			t.Errorf("held document of %s changed (err=%v):\n got %+v\nwant %+v", doc.url, err, doc.doc, fresh)
		}
		return true
	})
	if held != 2 {
		t.Fatalf("client holds %d documents, want the BIM model and the GIS features", held)
	}
}

// A call cancelled mid-flight returns as soon as its in-flight fetches
// notice, reports the cancellation, starts nothing more and leaves no
// task behind.
func TestBuildAreaModelCancelMidFlight(t *testing.T) {
	const buildings, concurrency = 6, 2
	m := master.New(master.Options{})
	ont := m.Ontology()
	turin, err := ont.AddDistrict("turin", "Torino")
	if err != nil {
		t.Fatal(err)
	}
	arrived := make(chan struct{}, buildings)
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		arrived <- struct{}{}
		<-r.Context().Done() // never answers: only the caller's cancel ends it
	}))
	t.Cleanup(stuck.Close)
	for b := 0; b < buildings; b++ {
		uri, err := ont.AddEntity(turin, ontology.KindBuilding, fmt.Sprintf("b%02d", b), "B", 45.06, 7.66)
		if err != nil {
			t.Fatal(err)
		}
		_ = ont.SetProperty(uri, ontology.PropProxyURI, stuck.URL+"/")
	}
	masterTS := httptest.NewServer(m.Handler())
	t.Cleanup(masterTS.Close)

	seen := &tally{}
	c := &Client{MasterURL: masterTS.URL, HTTP: &http.Client{Transport: seen}, Concurrency: concurrency, MaxAttempts: 1}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-arrived // a model fetch is on the wire
		cancel()
	}()
	model, err := c.BuildAreaModel(ctx, "turin", Area{}, BuildOptions{})
	if !errors.Is(err, context.Canceled) || model == nil {
		t.Fatalf("cancelled call = %+v, %v; want the partial model and context.Canceled", model, err)
	}
	seen.mu.Lock()
	defer seen.mu.Unlock()
	if seen.inFlight != 0 {
		t.Errorf("%d requests still in flight after the call returned", seen.inFlight)
	}
	if started := len(arrived) + 1; started > concurrency {
		t.Errorf("%d model fetches started under a bound of %d", started, concurrency)
	}
}

// A server that sends no ETag is fetched whole every time: nothing is
// held for it and it never sees a conditional request.
func TestFetchModelWithoutETagHoldsNothing(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("If-None-Match") != "" {
			t.Errorf("conditional request to a server that never sent an ETag")
		}
		proxyhttp.WriteDoc(w, r, dataformat.NewEntityDoc(dataformat.Entity{URI: "urn:x", Kind: dataformat.EntityBuilding}))
	}))
	t.Cleanup(ts.Close)
	c := &Client{}
	for i := 0; i < 2; i++ {
		if _, err := c.FetchModel(context.Background(), ts.URL+"/"); err != nil {
			t.Fatal(err)
		}
	}
	c.docs.Range(func(k, _ any) bool {
		t.Errorf("client holds %v for a server that sent no ETag", k)
		return true
	})
}
