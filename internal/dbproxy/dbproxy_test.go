package dbproxy

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/api"
	"repro/internal/bim"
	"repro/internal/dataformat"
	"repro/internal/gis"
	"repro/internal/sim"
)

func TestBuildingEntityTranslation(t *testing.T) {
	b := bim.Synthesize(bim.SynthOptions{Seed: 3, Storeys: 2, SpacesPerStorey: 2, DevicesPerSpace: 1})
	e := BuildingEntity(b, "turin")
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Kind != dataformat.EntityBuilding || e.URI != "urn:district:turin/building:"+b.ID {
		t.Errorf("root = %+v", e)
	}
	if got, _ := e.Prop("envelopeUA.WperK"); got == "" {
		t.Error("missing envelope UA property")
	}
	ua, err := strconv.ParseFloat(mustProp(t, &e, "envelopeUA.WperK"), 64)
	if err != nil || ua <= 0 {
		t.Errorf("UA = %v, %v", ua, err)
	}
	if len(e.Children) != 2 {
		t.Fatalf("storeys = %d", len(e.Children))
	}
	space := e.Children[0].Children[0]
	if _, ok := space.Prop("usage"); !ok {
		t.Error("space usage lost")
	}
	if len(space.Children) != 1 || space.Children[0].Kind != dataformat.EntityDevice {
		t.Errorf("device leaves = %+v", space.Children)
	}
}

func mustProp(t *testing.T, e *dataformat.Entity, name string) string {
	t.Helper()
	v, ok := e.Prop(name)
	if !ok {
		t.Fatalf("property %q missing", name)
	}
	return v
}

func TestNetworkEntityTranslation(t *testing.T) {
	n := sim.Synthesize(sim.SynthOptions{Seed: 4, Substations: 6})
	e, err := NetworkEntity(n, "turin")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	if e.Kind != dataformat.EntityNetwork {
		t.Errorf("kind = %v", e.Kind)
	}
	eff, err := strconv.ParseFloat(mustProp(t, &e, "efficiency"), 64)
	if err != nil || eff <= 0 || eff > 1 {
		t.Errorf("efficiency = %v", eff)
	}
	var nodes, edges int
	for _, c := range e.Children {
		switch c.Kind {
		case dataformat.EntityNode:
			nodes++
		case dataformat.EntityEdge:
			edges++
			if _, ok := c.Prop("flow.kW"); !ok {
				t.Errorf("edge %s missing solved flow", c.URI)
			}
		}
	}
	if nodes != len(n.Nodes) || edges != len(n.Edges) {
		t.Errorf("children: %d nodes %d edges, want %d/%d", nodes, edges, len(n.Nodes), len(n.Edges))
	}
}

func TestNetworkEntityInvalid(t *testing.T) {
	n := &sim.Network{ID: "broken"}
	if _, err := NetworkEntity(n, "turin"); err == nil {
		t.Fatal("invalid network translated")
	}
}

func TestFeatureEntityTranslation(t *testing.T) {
	f := gis.Feature{
		ID: "urn:district:turin/building:b01", Kind: gis.FeatureBuilding, Name: "DAUIN",
		Footprint:  []gis.Point{{Lat: 45, Lon: 7}, {Lat: 45.001, Lon: 7.001}},
		Attributes: map[string]string{"cadastral": "F12/345"},
	}
	e := FeatureEntity(&f)
	if e.Kind != dataformat.EntityBuilding || e.Location == nil {
		t.Errorf("entity = %+v", e)
	}
	if v, _ := e.Prop("attr.cadastral"); v != "F12/345" {
		t.Errorf("attribute lost: %q", v)
	}
	if v, _ := e.Prop("vertices"); v != "2" {
		t.Errorf("vertices = %q", v)
	}
}

func TestBIMProxyEndpoints(t *testing.T) {
	b := bim.Synthesize(bim.SynthOptions{Seed: 5, Storeys: 1, SpacesPerStorey: 2, DevicesPerSpace: 2})
	p, err := NewBIMProxy("turin", b)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	doc, err := (&api.Transport{}).GetDoc(context.Background(), ts.URL+"/model", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Entity == nil || doc.Entity.Kind != dataformat.EntityBuilding {
		t.Fatalf("model = %+v", doc)
	}
	// XML too — the open-format requirement.
	doc, err = (&api.Transport{}).GetDoc(context.Background(), ts.URL+"/model", dataformat.XML)
	if err != nil || doc.Entity == nil {
		t.Fatalf("xml model: %v", err)
	}

	doc, err = (&api.Transport{}).GetDoc(context.Background(), ts.URL+"/devices", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entities) != 4 {
		t.Errorf("devices = %d, want 4", len(doc.Entities))
	}
}

func TestBIMProxyRejectsInvalidModel(t *testing.T) {
	if _, err := NewBIMProxy("turin", &bim.Building{}); err == nil {
		t.Fatal("invalid building accepted")
	}
}

func TestSIMProxyEndpoints(t *testing.T) {
	n := sim.Synthesize(sim.SynthOptions{Seed: 6, Substations: 4})
	p, err := NewSIMProxy("turin", n)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	doc, err := (&api.Transport{}).GetDoc(context.Background(), ts.URL+"/model", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Entity == nil || doc.Entity.Kind != dataformat.EntityNetwork {
		t.Fatalf("model = %+v", doc)
	}

	rsp, err := http.Get(ts.URL + "/solution")
	if err != nil {
		t.Fatal(err)
	}
	var sol sim.Solution
	_ = json.NewDecoder(rsp.Body).Decode(&sol)
	rsp.Body.Close()
	if sol.PlantOutputKW <= 0 || len(sol.Flows) != len(n.Edges) {
		t.Errorf("solution = %+v", sol)
	}

	// Demand change shows up in the next solution.
	var sub string
	for _, node := range n.Nodes {
		if node.Kind == sim.NodeSubstation {
			sub = node.ID
			break
		}
	}
	before := sol.PlantOutputKW
	if !p.SetDemand(sub, 10000) {
		t.Fatal("SetDemand failed")
	}
	rsp, _ = http.Get(ts.URL + "/solution")
	_ = json.NewDecoder(rsp.Body).Decode(&sol)
	rsp.Body.Close()
	if sol.PlantOutputKW <= before {
		t.Errorf("plant output did not rise: %v -> %v", before, sol.PlantOutputKW)
	}
}

func TestGISProxyEndpoints(t *testing.T) {
	store := gis.NewStore(0)
	_ = store.Add(gis.Feature{ID: "urn:district:turin/building:b01", Kind: gis.FeatureBuilding,
		Name: "DAUIN", Footprint: []gis.Point{{Lat: 45.0628, Lon: 7.6624}}})
	_ = store.Add(gis.Feature{ID: "urn:district:turin/building:b02", Kind: gis.FeatureBuilding,
		Name: "Library", Footprint: []gis.Point{{Lat: 45.09, Lon: 7.70}}})
	p := NewGISProxy("turin", store)
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	doc, err := (&api.Transport{}).GetDoc(context.Background(), ts.URL+"/features?minLat=45.05&minLon=7.65&maxLat=45.07&maxLon=7.67", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entities) != 1 || doc.Entities[0].Name != "DAUIN" {
		t.Fatalf("bbox query = %+v", doc.Entities)
	}

	doc, err = (&api.Transport{}).GetDoc(context.Background(), ts.URL+"/features?lat=45.0628&lon=7.6624&radius=500", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Entities) != 1 {
		t.Errorf("radius query = %d", len(doc.Entities))
	}

	doc, err = (&api.Transport{}).GetDoc(context.Background(), ts.URL+"/feature?id=urn:district:turin/building:b02", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Entity == nil || doc.Entity.Name != "Library" {
		t.Errorf("feature = %+v", doc.Entity)
	}

	for _, bad := range []string{"/features", "/feature", "/feature?id=ghost", "/features?radius=x&lat=1&lon=1"} {
		rsp, err := http.Get(ts.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		rsp.Body.Close()
		if rsp.StatusCode == http.StatusOK {
			t.Errorf("%s unexpectedly OK", bad)
		}
	}
}

func TestProxyRunWithoutMaster(t *testing.T) {
	b := bim.Synthesize(bim.SynthOptions{Seed: 7, Storeys: 1, SpacesPerStorey: 1})
	p, err := NewBIMProxy("turin", b)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := p.Run("127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	rsp.Body.Close()
	p.Close()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("proxy alive after Close")
	}
}

// A bbox the proxy cannot read, or one that is inverted or off the
// globe, is a 400 with the standard envelope — like the radius branch
// and the master's area parser — never a 200 over a zero box.
func TestGISProxyRejectsBadBoxes(t *testing.T) {
	store := gis.NewStore(0)
	_ = store.Add(gis.Feature{ID: "urn:district:turin/building:b01", Kind: gis.FeatureBuilding,
		Footprint: []gis.Point{{Lat: 0, Lon: 0}}}) // what a zero box would find
	ts := httptest.NewServer(NewGISProxy("turin", store).Handler())
	defer ts.Close()
	for _, tc := range []struct {
		name, query string
		status      int
	}{
		{"well formed", "minLat=-1&minLon=-1&maxLat=1&maxLon=1", http.StatusOK},
		{"unparsable minLat", "minLat=abc&minLon=-1&maxLat=1&maxLon=1", http.StatusBadRequest},
		{"unparsable maxLon", "minLat=-1&minLon=-1&maxLat=1&maxLon=1e", http.StatusBadRequest},
		{"missing side", "minLat=-1&minLon=-1&maxLat=1", http.StatusBadRequest},
		{"inverted latitudes", "minLat=1&minLon=-1&maxLat=-1&maxLon=1", http.StatusBadRequest},
		{"inverted longitudes", "minLat=-1&minLon=1&maxLat=1&maxLon=-1", http.StatusBadRequest},
		{"off the globe", "minLat=-91&minLon=-1&maxLat=1&maxLon=1", http.StatusBadRequest},
	} {
		rsp, err := http.Get(ts.URL + "/v1/features?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		var env api.Envelope
		decodeErr := json.NewDecoder(rsp.Body).Decode(&env)
		rsp.Body.Close()
		if rsp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, rsp.StatusCode, tc.status)
		}
		if tc.status != http.StatusOK && (decodeErr != nil || env.Code != "bad_request" || env.Status != tc.status || env.Error == "") {
			t.Errorf("%s: envelope %+v (decode: %v)", tc.name, env, decodeErr)
		}
	}
}

// Every model route carries an ETag that names the model version, the
// negotiated encoding and the query; a request that presents it back
// gets an empty 304, and one that presents nothing gets the body it
// always got.
func TestModelRoutesRevalidate(t *testing.T) {
	building := bim.Synthesize(bim.SynthOptions{Seed: 7, Storeys: 1, SpacesPerStorey: 1})
	bimProxy, err := NewBIMProxy("turin", building)
	if err != nil {
		t.Fatal(err)
	}
	network := sim.Synthesize(sim.SynthOptions{Seed: 4, Substations: 3})
	simProxy, err := NewSIMProxy("turin", network)
	if err != nil {
		t.Fatal(err)
	}
	store := gis.NewStore(0)
	_ = store.Add(gis.Feature{ID: "f1", Kind: gis.FeatureBuilding, Footprint: []gis.Point{{Lat: 45, Lon: 7}}})
	gisProxy := NewGISProxy("turin", store)

	get := func(h http.Handler, path, accept, ifNoneMatch string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.Header.Set("Accept", accept)
		if ifNoneMatch != "" {
			req.Header.Set("If-None-Match", ifNoneMatch)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	const box = "/v1/features?minLat=44&minLon=6&maxLat=46&maxLon=8"
	for _, rt := range []struct {
		name   string
		h      http.Handler
		path   string
		mutate func() // moves the model version; nil: the model cannot change
	}{
		{"bim", bimProxy.Handler(), "/v1/model", nil},
		{"sim", simProxy.Handler(), "/v1/model", func() { simProxy.SetDemand(network.Nodes[len(network.Nodes)-1].ID, 999) }},
		{"gis", gisProxy.Handler(), box, func() {
			_ = store.Add(gis.Feature{ID: "f2", Kind: gis.FeatureBuilding, Footprint: []gis.Point{{Lat: 45, Lon: 7}}})
		}},
	} {
		plain := get(rt.h, rt.path, "application/json", "")
		etag := plain.Header().Get("ETag")
		if plain.Code != http.StatusOK || etag == "" || plain.Body.Len() == 0 {
			t.Fatalf("%s: unconditional GET = %d, ETag %q, %d bytes", rt.name, plain.Code, etag, plain.Body.Len())
		}
		for _, presented := range []string{etag, `"other", ` + etag, "*"} {
			if rec := get(rt.h, rt.path, "application/json", presented); rec.Code != http.StatusNotModified || rec.Body.Len() != 0 || rec.Header().Get("ETag") != etag {
				t.Errorf("%s: If-None-Match %s = %d with %d bytes, ETag %q", rt.name, presented, rec.Code, rec.Body.Len(), rec.Header().Get("ETag"))
			}
		}
		if rec := get(rt.h, rt.path, "application/json", `"other"`); rec.Code != http.StatusOK || rec.Body.String() != plain.Body.String() {
			t.Errorf("%s: a tag the server never issued = %d", rt.name, rec.Code)
		}
		// The JSON tag does not validate the XML representation.
		if rec := get(rt.h, rt.path, "application/xml", etag); rec.Code != http.StatusOK || rec.Header().Get("ETag") == etag {
			t.Errorf("%s: XML under the JSON tag = %d, ETag %q", rt.name, rec.Code, rec.Header().Get("ETag"))
		}
		if rt.mutate == nil {
			continue
		}
		rt.mutate()
		rec := get(rt.h, rt.path, "application/json", etag)
		if rec.Code != http.StatusOK || rec.Header().Get("ETag") == etag || rec.Body.String() == plain.Body.String() {
			t.Errorf("%s: after a mutation the old tag = %d, ETag %q (was %q)", rt.name, rec.Code, rec.Header().Get("ETag"), etag)
		}
	}
	// Nor does one query's tag validate another's.
	etag := get(gisProxy.Handler(), box, "application/json", "").Header().Get("ETag")
	if rec := get(gisProxy.Handler(), "/v1/features?minLat=0&minLon=0&maxLat=1&maxLon=1", "application/json", etag); rec.Code != http.StatusOK {
		t.Errorf("gis: another box under this box's tag = %d", rec.Code)
	}
}
