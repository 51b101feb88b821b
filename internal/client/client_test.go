package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bim"
	"repro/internal/dataformat"
	"repro/internal/dbproxy"
	"repro/internal/gis"
	"repro/internal/master"
	"repro/internal/ontology"
	"repro/internal/proxyhttp"
	"repro/internal/registry"
)

// fixture wires a master, one BIM proxy and one GIS proxy by hand (no
// core bootstrap, so this package's tests stay independent of it).
type fixture struct {
	masterTS *httptest.Server
	bimTS    *httptest.Server
	gisTS    *httptest.Server
	client   *Client
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	m := master.New(master.Options{})
	ont := m.Ontology()
	turin, err := ont.AddDistrict("turin", "Torino")
	if err != nil {
		t.Fatal(err)
	}

	building := bim.Synthesize(bim.SynthOptions{ID: "b01", Seed: 21, Storeys: 1, SpacesPerStorey: 1, DevicesPerSpace: 0})
	bimProxy, err := dbproxy.NewBIMProxy("turin", building)
	if err != nil {
		t.Fatal(err)
	}
	bimTS := httptest.NewServer(bimProxy.Handler())
	t.Cleanup(bimTS.Close)

	store := gis.NewStore(0)
	_ = store.Add(gis.Feature{
		ID: "urn:district:turin/building:b01", Kind: gis.FeatureBuilding, Name: "GIS name",
		Footprint: []gis.Point{{Lat: building.Lat, Lon: building.Lon}},
	})
	gisProxy := dbproxy.NewGISProxy("turin", store)
	gisTS := httptest.NewServer(gisProxy.Handler())
	t.Cleanup(gisTS.Close)

	b1, err := ont.AddEntity(turin, ontology.KindBuilding, "b01", building.Name, building.Lat, building.Lon)
	if err != nil {
		t.Fatal(err)
	}
	_ = ont.SetProperty(b1, ontology.PropProxyURI, bimTS.URL+"/")
	_ = ont.SetProperty(turin, ontology.PropGISURI, gisTS.URL+"/")
	// An entity with no proxy yet: must be skipped, not fatal.
	if _, err := ont.AddEntity(turin, ontology.KindBuilding, "b99", "Unserved", building.Lat, building.Lon); err != nil {
		t.Fatal(err)
	}

	masterTS := httptest.NewServer(m.Handler())
	t.Cleanup(masterTS.Close)
	return &fixture{
		masterTS: masterTS, bimTS: bimTS, gisTS: gisTS,
		client: &Client{MasterURL: masterTS.URL},
	}
}

func TestQuery(t *testing.T) {
	f := newFixture(t)
	qr, err := f.client.Catalog().Query(context.Background(), "turin", Area{})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Entities) != 2 || qr.GISURI == "" {
		t.Fatalf("query = %+v", qr)
	}
	if _, err := f.client.Catalog().Query(context.Background(), "ghost", Area{}); err == nil {
		t.Error("unknown district accepted")
	}
}

func TestFetchModel(t *testing.T) {
	f := newFixture(t)
	e, err := f.client.FetchModel(context.Background(), f.bimTS.URL+"/")
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != dataformat.EntityBuilding {
		t.Errorf("model = %+v", e)
	}
	if _, err := f.client.FetchModel(context.Background(), f.masterTS.URL+"/"); err == nil {
		t.Error("non-document endpoint accepted as model")
	}
}

func TestFetchGISFeatures(t *testing.T) {
	f := newFixture(t)
	feats, err := f.client.FetchGISFeatures(context.Background(), f.gisTS.URL+"/", Area{})
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) != 1 || feats[0].Name != "GIS name" {
		t.Fatalf("features = %+v", feats)
	}
}

func TestBuildAreaModelMergesBIMAndGIS(t *testing.T) {
	f := newFixture(t)
	model, err := f.client.BuildAreaModel(context.Background(), "turin", Area{}, BuildOptions{IncludeGIS: true})
	if err != nil {
		t.Fatal(err)
	}
	b, ok := model.Entity("urn:district:turin/building:b01")
	if !ok {
		t.Fatal("building missing")
	}
	if _, ok := b.Prop("envelopeUA.WperK"); !ok {
		t.Error("BIM property missing")
	}
	if _, ok := b.Prop("bounds"); !ok {
		t.Error("GIS property missing")
	}
	// BIM and GIS disagree on the name: conflict must be recorded.
	if len(model.Conflicts) == 0 {
		t.Error("name conflict not recorded")
	}
	if len(model.Sources) != 2 {
		t.Errorf("sources = %v", model.Sources)
	}
}

func TestBuildAreaModelPartialFailure(t *testing.T) {
	f := newFixture(t)
	f.bimTS.Close() // BIM proxy died
	model, err := f.client.BuildAreaModel(context.Background(), "turin", Area{}, BuildOptions{IncludeGIS: true})
	if err == nil {
		t.Fatal("dead proxy not reported")
	}
	// The GIS part must still be present (partial result).
	if model == nil || len(model.Entities) == 0 {
		t.Fatal("partial model discarded")
	}
}

func TestControlAndDeviceEndpoints(t *testing.T) {
	// A fake device proxy speaking the common format.
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/info", func(w http.ResponseWriter, r *http.Request) {
		doc := dataformat.NewDeviceInfoDoc(dataformat.DeviceInfo{
			URI: "urn:d", Protocol: "fake", Senses: []dataformat.Quantity{dataformat.Temperature},
		})
		proxyhttp.WriteDoc(w, r, doc)
	})
	mux.HandleFunc("/v1/latest", func(w http.ResponseWriter, r *http.Request) {
		doc := dataformat.NewMeasurementDoc(dataformat.Measurement{
			Device: "urn:d", Quantity: dataformat.Temperature, Unit: dataformat.Celsius,
			Value: 21, Timestamp: time.Now().UTC(),
		})
		proxyhttp.WriteDoc(w, r, doc)
	})
	mux.HandleFunc("/v1/data", func(w http.ResponseWriter, r *http.Request) {
		doc := dataformat.NewMeasurementsDoc(nil)
		proxyhttp.WriteDoc(w, r, doc)
	})
	mux.HandleFunc("/v1/control", func(w http.ResponseWriter, r *http.Request) {
		doc := dataformat.NewControlResultDoc(dataformat.ControlResult{
			Device: "urn:d", Quantity: dataformat.SwitchState, Value: 1, Applied: true, At: time.Now().UTC(),
		})
		proxyhttp.WriteDoc(w, r, doc)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &Client{}
	info, err := c.Devices().Info(context.Background(), ts.URL+"/")
	if err != nil || info.Protocol != "fake" {
		t.Fatalf("info: %+v %v", info, err)
	}
	m, err := c.Devices().Latest(context.Background(), ts.URL+"/", dataformat.Temperature)
	if err != nil || m.Value != 21 {
		t.Fatalf("latest: %+v %v", m, err)
	}
	ms, err := c.Devices().Data(context.Background(), ts.URL+"/", dataformat.Temperature, time.Now().Add(-time.Hour), time.Now())
	if err != nil || len(ms) != 0 {
		t.Fatalf("data: %v %v", ms, err)
	}
	res, err := c.Devices().Control(context.Background(), ts.URL+"/", dataformat.SwitchState, 1)
	if err != nil || !res.Applied {
		t.Fatalf("control: %+v %v", res, err)
	}
}

func TestDevicesViaMaster(t *testing.T) {
	f := newFixture(t)
	devices, err := f.client.Catalog().Devices(context.Background(), "urn:district:turin/building:b01")
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 0 {
		t.Errorf("devices = %+v", devices)
	}
	if _, err := f.client.Catalog().Devices(context.Background(), "urn:ghost"); err == nil {
		t.Error("unknown entity accepted")
	}
}

func TestAreaEmpty(t *testing.T) {
	if !(Area{}).Empty() {
		t.Error("zero area not empty")
	}
	if (Area{MaxLat: 1}).Empty() {
		t.Error("non-zero area empty")
	}
}

func TestRegistrarIntegration(t *testing.T) {
	// proxyhttp.Registrar against a real master handler: register,
	// heartbeat, deregister.
	m := master.New(master.Options{})
	if _, err := m.Ontology().AddDistrict("turin", "Torino"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m.Handler())
	defer ts.Close()

	reg := &proxyhttp.Registrar{
		MasterURL: ts.URL,
		Registration: registry.Registration{
			ID: "p1", Kind: registry.KindGIS,
			BaseURL: "http://x/", EntityURI: "urn:district:turin",
		},
		HeartbeatEvery: 10 * time.Millisecond,
	}
	if err := reg.Start(); err != nil {
		t.Fatal(err)
	}
	if m.Registry().Len() != 1 {
		t.Fatal("not registered")
	}
	time.Sleep(50 * time.Millisecond) // let heartbeats run
	reg.Stop()
	if m.Registry().Len() != 0 {
		t.Fatal("not deregistered on Stop")
	}
}

func TestRegistrarBadMaster(t *testing.T) {
	reg := &proxyhttp.Registrar{
		MasterURL: "http://127.0.0.1:1",
		Registration: registry.Registration{
			ID: "p1", Kind: registry.KindGIS, BaseURL: "u", EntityURI: "e",
		},
	}
	if err := reg.Start(); err == nil {
		t.Fatal("registration against dead master succeeded")
	}
}

// deviceFixture adds a device with a working fake device proxy to the
// master so BuildAreaModel's IncludeDevices/History paths run.
func TestBuildAreaModelWithDevices(t *testing.T) {
	m := master.New(master.Options{})
	ont := m.Ontology()
	turin, err := ont.AddDistrict("turin", "Torino")
	if err != nil {
		t.Fatal(err)
	}
	b1, err := ont.AddEntity(turin, ontology.KindBuilding, "b01", "B", 45.06, 7.66)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := ont.AddDevice(b1, "t-1", "Temp", 45.06, 7.66)
	if err != nil {
		t.Fatal(err)
	}

	// Fake BIM proxy with a trivial model.
	bimMux := http.NewServeMux()
	bimMux.HandleFunc("/v1/model", func(w http.ResponseWriter, r *http.Request) {
		proxyhttp.WriteDoc(w, r, dataformat.NewEntityDoc(dataformat.Entity{
			URI: b1, Kind: dataformat.EntityBuilding, Name: "B",
		}))
	})
	bimTS := httptest.NewServer(bimMux)
	t.Cleanup(bimTS.Close)
	_ = ont.SetProperty(b1, ontology.PropProxyURI, bimTS.URL+"/")

	// Fake device proxy: info + history + latest.
	history := []dataformat.Measurement{
		{Device: d1, Quantity: dataformat.Temperature, Unit: dataformat.Celsius, Value: 20, Timestamp: time.Now().UTC().Add(-2 * time.Minute)},
		{Device: d1, Quantity: dataformat.Temperature, Unit: dataformat.Celsius, Value: 21, Timestamp: time.Now().UTC().Add(-time.Minute)},
	}
	devMux := http.NewServeMux()
	devMux.HandleFunc("/v1/info", func(w http.ResponseWriter, r *http.Request) {
		proxyhttp.WriteDoc(w, r, dataformat.NewDeviceInfoDoc(dataformat.DeviceInfo{
			URI: d1, Protocol: "fake", Name: "Temp",
			Senses: []dataformat.Quantity{dataformat.Temperature},
		}))
	})
	devMux.HandleFunc("/v1/data", func(w http.ResponseWriter, r *http.Request) {
		proxyhttp.WriteDoc(w, r, dataformat.NewMeasurementsDoc(history))
	})
	devMux.HandleFunc("/v1/latest", func(w http.ResponseWriter, r *http.Request) {
		proxyhttp.WriteDoc(w, r, dataformat.NewMeasurementDoc(history[len(history)-1]))
	})
	devTS := httptest.NewServer(devMux)
	t.Cleanup(devTS.Close)
	_ = ont.SetProperty(d1, ontology.PropProxyURI, devTS.URL+"/")

	masterTS := httptest.NewServer(m.Handler())
	t.Cleanup(masterTS.Close)
	c := &Client{MasterURL: masterTS.URL}

	// History path: both buffered samples land in the model.
	model, err := c.BuildAreaModel(context.Background(), "turin", Area{}, BuildOptions{
		IncludeDevices: true, History: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := model.MeasurementsFor(d1); len(got) != 2 {
		t.Fatalf("history measurements = %d, want 2", len(got))
	}
	dev, ok := model.Entity(d1)
	if !ok {
		t.Fatal("device entity missing")
	}
	if v, _ := dev.Prop("protocol"); v != "fake" {
		t.Errorf("device protocol = %q", v)
	}

	// Latest-only path.
	model, err = c.BuildAreaModel(context.Background(), "turin", Area{}, BuildOptions{IncludeDevices: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := model.MeasurementsFor(d1); len(got) != 1 || got[0].Value != 21 {
		t.Fatalf("latest measurements = %+v", got)
	}
}
