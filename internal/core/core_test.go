package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dataformat"
	"repro/internal/ontology"
)

// bootstrapSmall spins a compact district exercising every protocol.
func bootstrapSmall(t *testing.T) *District {
	t.Helper()
	d, err := Bootstrap(Spec{
		Buildings:          2,
		Networks:           1,
		DevicesPerBuilding: 4, // one of each protocol
		PollEvery:          30 * time.Millisecond,
		Seed:               11,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestBootstrapShape(t *testing.T) {
	d := bootstrapSmall(t)
	if len(d.BIMs) != 2 || len(d.SIMs) != 1 || len(d.DeviceProxies) != 8 {
		t.Fatalf("shape: %d BIMs, %d SIMs, %d device proxies",
			len(d.BIMs), len(d.SIMs), len(d.DeviceProxies))
	}
	// Everything registered on the master: 2 BIM + 1 SIM + 1 GIS + 8 dev.
	if got := d.Master.Registry().Len(); got != 12 {
		t.Errorf("registrations = %d, want 12", got)
	}
	if d.GIS.Store().Len() != 2 {
		t.Errorf("gis features = %d", d.GIS.Store().Len())
	}
}

func TestEndToEndAreaQuery(t *testing.T) {
	d := bootstrapSmall(t)
	if !d.WaitForSamples(2, 10*time.Second) {
		t.Fatal("device proxies produced no samples")
	}
	c := d.Client()
	ctx := context.Background()
	model, err := c.BuildAreaModel(ctx, d.Spec.District, client.Area{}, client.BuildOptions{
		IncludeDevices: true,
		IncludeGIS:     true,
	})
	if err != nil {
		t.Fatalf("BuildAreaModel: %v", err)
	}
	if len(model.Entities) == 0 {
		t.Fatal("empty area model")
	}
	// Buildings present with BIM-derived properties.
	b0, ok := model.Entity("urn:district:turin/building:b00")
	if !ok {
		t.Fatal("building b00 missing from model")
	}
	if _, ok := b0.Prop("envelopeUA.WperK"); !ok {
		t.Error("BIM property missing")
	}
	// GIS contributed bounds for the same URI (merged entity).
	if _, ok := b0.Prop("bounds"); !ok {
		t.Error("GIS property missing (merge failed)")
	}
	// Network model present with solved flows.
	if _, ok := model.Entity("urn:district:turin/network:dh00"); !ok {
		t.Error("network missing from model")
	}
	// Measurements from the devices, normalized.
	if len(model.Measurements) == 0 {
		t.Fatal("no measurements integrated")
	}
	for _, m := range model.Measurements {
		if m.Quantity == dataformat.Temperature && m.Unit != dataformat.Celsius {
			t.Errorf("non-canonical unit %q", m.Unit)
		}
	}
	summaries := model.Summarize()
	if len(summaries) == 0 {
		t.Fatal("no summaries")
	}
}

func TestAreaFilteringReducesScope(t *testing.T) {
	d := bootstrapSmall(t)
	c := d.Client()
	ctx := context.Background()
	whole, err := c.Catalog().Query(ctx, d.Spec.District, client.Area{})
	if err != nil {
		t.Fatal(err)
	}
	if len(whole.Entities) != 3 { // 2 buildings + 1 network
		t.Fatalf("whole district = %d entities", len(whole.Entities))
	}
	// A postage-stamp area around building b00 only.
	node, err := d.Master.Ontology().Get("urn:district:turin/building:b00")
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.Catalog().Query(ctx, d.Spec.District, client.Area{
		MinLat: node.Lat - 1e-6, MinLon: node.Lon - 1e-6,
		MaxLat: node.Lat + 1e-6, MaxLon: node.Lon + 1e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(small.Entities) != 1 || small.Entities[0].URI != "urn:district:turin/building:b00" {
		t.Fatalf("area query = %+v", small.Entities)
	}
}

func TestMeasurementsReachGlobalDatabase(t *testing.T) {
	d := bootstrapSmall(t)
	if !d.WaitForSamples(2, 10*time.Second) {
		t.Fatal("no samples")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if d.Measure.Stats().Ingested > 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("global measurements DB ingested nothing; stats = %+v", d.Measure.Stats())
}

func TestActuationThroughInfrastructure(t *testing.T) {
	d := bootstrapSmall(t)
	c := d.Client()
	ctx := context.Background()
	// Find a ZigBee device (it actuates state.switch).
	devices, err := c.Catalog().Devices(ctx, "urn:district:turin/building:b00")
	if err != nil {
		t.Fatal(err)
	}
	var proxyURI string
	for _, dev := range devices {
		info, err := c.Devices().Info(ctx, dev.ProxyURI)
		if err != nil {
			continue
		}
		for _, q := range info.Actuates {
			if q == dataformat.SwitchState {
				proxyURI = dev.ProxyURI
			}
		}
	}
	if proxyURI == "" {
		t.Fatal("no switchable device found")
	}
	result, err := c.Devices().Control(ctx, proxyURI, dataformat.SwitchState, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !result.Applied {
		t.Fatalf("control not applied: %+v", result)
	}
	// The new state is visible on the next poll.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		m, err := c.Devices().Latest(ctx, proxyURI, dataformat.SwitchState)
		if err == nil && m.Value == 1 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("switch state never observed as on")
}

func TestDeviceResolutionsCarryProtocol(t *testing.T) {
	d := bootstrapSmall(t)
	c := d.Client()
	ctx := context.Background()
	devices, err := c.Catalog().Devices(ctx, "urn:district:turin/building:b00")
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 4 {
		t.Fatalf("devices = %d", len(devices))
	}
	protos := map[string]bool{}
	for _, dev := range devices {
		protos[dev.Extra[ontology.PropProtocol]] = true
	}
	for _, want := range []string{"zigbee", "ieee802.15.4", "enocean", "opc-ua"} {
		if !protos[want] {
			t.Errorf("protocol %s missing from resolutions: %v", want, protos)
		}
	}
}

func TestBootstrapDefaults(t *testing.T) {
	spec := (&Spec{}).withDefaults()
	if spec.District != "turin" || spec.Buildings != 3 || spec.PollEvery <= 0 {
		t.Errorf("defaults = %+v", spec)
	}
}

// TestFailedIngestFlushIsCounted: the shared batcher is the only way
// samples reach the measurements DB, so a batch it cannot deliver must
// show up in IngestRows instead of vanishing.
func TestFailedIngestFlushIsCounted(t *testing.T) {
	d, err := Bootstrap(Spec{Buildings: 1, DevicesPerBuilding: 1, PollEvery: time.Hour, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	proxy := d.DeviceProxies[0]
	// pollAndFlush polls once and waits until the batcher has settled
	// every row the proxy handed it (the interval flush may race ours).
	pollAndFlush := func() (delivered, dropped uint64) {
		t.Helper()
		proxy.PollOnce()
		d.ingest.Flush()
		staged := proxy.Stats().Published
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if delivered, dropped = d.IngestRows(); delivered+dropped >= staged {
				return delivered, dropped
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("batcher settled %d+%d of %d staged rows", delivered, dropped, staged)
		return 0, 0
	}

	delivered, dropped := pollAndFlush()
	if delivered == 0 || dropped != 0 {
		t.Fatalf("healthy DB: delivered %d, dropped %d", delivered, dropped)
	}
	d.Measure.Close() // the DB goes away under the running proxies
	delivered2, dropped2 := pollAndFlush()
	if dropped2 == 0 || delivered2 != delivered {
		t.Fatalf("dead DB: delivered %d → %d, dropped %d", delivered, delivered2, dropped2)
	}
}
