package core

import (
	"context"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/dataformat"
	"repro/internal/integration"
	"repro/internal/measuredb"
	"repro/internal/ontology"
	"repro/internal/tsdb"
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

// pollAndFlush polls every proxy once and waits until the shared batcher
// has settled every row the proxies handed it (the interval flush may
// race ours).
func pollAndFlush(t *testing.T, d *District) (delivered, dropped uint64) {
	t.Helper()
	var staged uint64
	for _, p := range d.DeviceProxies {
		p.PollOnce()
		staged += p.Stats().Published
	}
	d.ingest.Flush()
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

// TestFailedIngestFlushIsCounted: the shared batcher is the only way
// samples reach the measurements DB, so a batch it cannot deliver must
// show up in IngestRows instead of vanishing.
func TestFailedIngestFlushIsCounted(t *testing.T) {
	d, err := Bootstrap(Spec{Buildings: 1, DevicesPerBuilding: 1, PollEvery: time.Hour, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	delivered, dropped := pollAndFlush(t, d)
	if delivered == 0 || dropped != 0 {
		t.Fatalf("healthy DB: delivered %d, dropped %d", delivered, dropped)
	}
	d.Measure.Close() // the DB goes away under the running proxies
	delivered2, dropped2 := pollAndFlush(t, d)
	if dropped2 == 0 || delivered2 != delivered {
		t.Fatalf("dead DB: delivered %d → %d, dropped %d", delivered, delivered2, dropped2)
	}
}

// TestEveryStoredRowIsAnAckedIngestRow: the store has one writer. After
// the proxies have polled and the batcher has flushed, the rows the
// measurements DB counts as stored are exactly the rows /v2/ingest
// acknowledged to the batcher — single service and cluster alike.
func TestEveryStoredRowIsAnAckedIngestRow(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			d, err := Bootstrap(Spec{Buildings: 2, DevicesPerBuilding: 4, PollEvery: time.Hour, Seed: 11, MeasureNodes: nodes})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(d.Close)
			delivered, dropped := pollAndFlush(t, d)
			stores := d.MeasureNodes
			if d.Measure != nil {
				stores = []*measuredb.Service{d.Measure}
			}
			var stored, rejected uint64
			for _, s := range stores {
				st := s.Stats()
				stored += st.Ingested
				rejected += st.Rejected
			}
			if delivered == 0 || dropped != 0 || rejected != 0 || stored != delivered {
				t.Fatalf("delivered %d, dropped %d; stores hold %d ingested, %d rejected", delivered, dropped, stored, rejected)
			}
		})
	}
}

// TestReadYourWritesAcrossCoordinators: coordinators cache nothing, so
// a write routed by one is visible to the next read through another
// even with the node-side result cache on.
func TestReadYourWritesAcrossCoordinators(t *testing.T) {
	d, err := Bootstrap(Spec{Buildings: 1, DevicesPerBuilding: 1, PollEvery: time.Hour, Seed: 11,
		MeasureNodes: 2, QCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	other, err := measuredb.OpenCoordinator(measuredb.CoordinatorOptions{Master: d.MasterURL})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	addr, err := other.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := d.Client()
	writeA, readB := c.Ingest("http://"+addr), c.Measurements(d.MeasureURL)
	const device, quantity = "urn:district:turin/building:b00/device:ryw", "temperature"
	at := time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)
	for i := 1; i <= 2; i++ {
		row := measuredb.Point{Device: device, Quantity: quantity, At: at.Add(time.Duration(i) * time.Minute), Value: float64(i)}
		if res, err := writeA.Append(ctx, []measuredb.Point{row}); err != nil || res.Accepted != 1 {
			t.Fatalf("write %d through A: %+v, %v", i, res, err)
		}
		// Twice: the second read is the one a cache would answer.
		for read := 0; read < 2; read++ {
			latest, err := readB.Latest(ctx, device, quantity)
			if err != nil || latest.Value != float64(i) {
				t.Fatalf("after write %d, latest through B = %+v, %v", i, latest, err)
			}
			agg, err := readB.Aggregate(ctx, device, quantity)
			if err != nil || agg.Count != i {
				t.Fatalf("after write %d, aggregate through B = %+v, %v", i, agg, err)
			}
		}
	}
}

// pathTally is a RoundTripper counting responses by "<status> <path>".
type pathTally struct {
	mu   sync.Mutex
	seen map[string]int
}

func (c *pathTally) RoundTrip(r *http.Request) (*http.Response, error) {
	rsp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		c.mu.Lock()
		c.seen[fmt.Sprintf("%d %s", rsp.StatusCode, r.URL.Path)]++
		c.mu.Unlock()
	}
	return rsp, err
}

// take returns the counts since the last take.
func (c *pathTally) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.seen
	c.seen = map[string]int{}
	return out
}

// TestBuildAreaModelRoundTrips pins what the paper's query costs on the
// wire and that its two device-data paths tell the same story: a warm
// call is 3 + P requests (P model proxies), P + 1 of them 304s; a device
// the measurements DB has nothing for costs that device's proxy calls
// and nobody else's; with the DB unreachable every device is read from
// its proxy and the call still succeeds, building the same model.
func TestBuildAreaModelRoundTrips(t *testing.T) {
	const buildings, devicesPer = 4, 2
	d, err := Bootstrap(Spec{Buildings: buildings, Networks: 1, DevicesPerBuilding: devicesPer, PollEvery: time.Hour, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	if delivered, dropped := pollAndFlush(t, d); delivered == 0 || dropped != 0 {
		t.Fatalf("device rows: %d delivered, %d dropped", delivered, dropped)
	}
	const modelProxies, devices = buildings + 1, buildings * devicesPer
	seen := &pathTally{seen: map[string]int{}}
	c := &client.Client{MasterURL: d.MasterURL, HTTP: &http.Client{Transport: seen}, MaxAttempts: 1}
	ctx := context.Background()
	opts := client.BuildOptions{IncludeDevices: true, IncludeGIS: true}
	build := func() (*integration.AreaModel, map[string]int) {
		t.Helper()
		model, err := c.BuildAreaModel(ctx, d.Spec.District, client.Area{}, opts)
		if err != nil {
			t.Fatalf("BuildAreaModel: %v", err)
		}
		return model, seen.take()
	}

	_, cold := build()
	wantCold := map[string]int{"200 /v1/query": 1, "200 /v2/query": 1, "200 /v1/features": 1, "200 /v1/model": modelProxies}
	if !reflect.DeepEqual(cold, wantCold) {
		t.Fatalf("cold call = %v, want %v", cold, wantCold)
	}
	fromDB, warm := build()
	wantWarm := map[string]int{"200 /v1/query": 1, "200 /v2/query": 1, "304 /v1/features": 1, "304 /v1/model": modelProxies}
	if !reflect.DeepEqual(warm, wantWarm) {
		t.Fatalf("warm call = %v, want %v (3 + P requests, P + 1 of them 304s)", warm, wantWarm)
	}
	t.Logf("warm call: %d requests for %d model proxies and %d devices", 3+modelProxies, modelProxies, devices)

	// One device's series vanish from the DB: that device alone is read
	// from its proxy — one info, one latest per quantity it senses.
	const lost = "urn:district:turin/building:b01/device:d00"
	st := d.Measure.Store()
	var keys []tsdb.SeriesKey
	for _, key := range tsdb.DeviceRange(st.Catalog(tsdb.ShardOf(lost, st.NumShards())), lost) {
		if key.Device == lost {
			keys = append(keys, key)
		}
	}
	for _, key := range keys {
		st.Drop(key)
	}
	oneLost, counts := build()
	wantWarm["200 /v1/info"], wantWarm["200 /v1/latest"] = 1, len(keys)
	if len(keys) == 0 || !reflect.DeepEqual(counts, wantWarm) {
		t.Fatalf("one device lost from the DB (%d series) = %v, want %v", len(keys), counts, wantWarm)
	}

	// The DB cannot be reached: every device falls back, nothing fails.
	root := ontology.DistrictURI(d.Spec.District)
	if err := d.Master.Ontology().SetProperty(root, ontology.PropMeasureURI, "http://127.0.0.1:1/"); err != nil {
		t.Fatal(err)
	}
	fromProxies, counts := build()
	if counts["200 /v1/info"] != devices || counts["200 /v1/latest"] < 2*devices || counts["200 /v2/query"] != 0 {
		t.Fatalf("unreachable DB = %v, want every one of the %d devices read from its proxy", counts, devices)
	}

	// The two paths agree on every entity and on every measurement; only
	// a device's name differs (the ontology's from the DB path, the
	// proxy's own from the proxy path).
	type sample struct {
		device, quantity string
		at               int64
		value            float64
		unit             dataformat.Unit
	}
	describe := func(m *integration.AreaModel) (entities map[string][3]string, samples map[sample]bool) {
		entities, samples = map[string][3]string{}, map[sample]bool{}
		for i := range m.Entities {
			e := &m.Entities[i]
			protocol, _ := e.Prop("protocol")
			proxyURI, _ := e.Prop("proxy.uri")
			entities[e.URI] = [3]string{string(e.Kind), protocol, proxyURI}
		}
		for _, ms := range m.Measurements {
			samples[sample{ms.Device, string(ms.Quantity), ms.Timestamp.UnixNano(), ms.Value, ms.Unit}] = true
		}
		return entities, samples
	}
	wantEntities, wantSamples := describe(fromProxies)
	if len(wantSamples) < 2*devices {
		t.Fatalf("proxy-built model carries %d samples for %d devices", len(wantSamples), devices)
	}
	for name, m := range map[string]*integration.AreaModel{"DB-built": fromDB, "one-device-lost": oneLost} {
		entities, samples := describe(m)
		if !reflect.DeepEqual(entities, wantEntities) {
			t.Errorf("%s model's entities differ from the proxy-built model's:\n got %v\nwant %v", name, entities, wantEntities)
		}
		if !reflect.DeepEqual(samples, wantSamples) {
			t.Errorf("%s model's measurements differ from the proxy-built model's:\n got %v\nwant %v", name, samples, wantSamples)
		}
	}
	if got := wantEntities[lost]; got[0] != string(dataformat.EntityDevice) || got[1] == "" || got[2] == "" {
		t.Errorf("device %s = %v, want a device with its protocol and proxy URI", lost, got)
	}
}

// With History set the device data is the DB's trailing window — and a
// series holding more samples in the window than one batch series may
// carry is paged to its end, not cut at the batch limit.
func TestBuildAreaModelHistoryPagesPastTheBatchLimit(t *testing.T) {
	d, err := Bootstrap(Spec{Buildings: 1, Networks: 1, DevicesPerBuilding: 1, Protocols: []Protocol{ProtoOPCUA}, PollEvery: time.Hour, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	pollAndFlush(t, d) // the device's own two rows, stamped now
	const device, backfill = "urn:district:turin/building:b00/device:d00", measuredb.MaxPageLimit + 500
	start := time.Now().UTC().Add(-6 * time.Hour).Truncate(time.Second)
	rows := make([]measuredb.Point, backfill)
	for i := range rows {
		rows[i] = measuredb.Point{Device: device, Quantity: "temperature", At: start.Add(time.Duration(i) * time.Second), Value: float64(i)}
	}
	c := d.Client()
	ctx := context.Background()
	if res, err := c.Ingest(d.MeasureURL).Append(ctx, rows); err != nil || res.Accepted != backfill {
		t.Fatalf("backfill: %+v, %v", res, err)
	}
	model, err := c.BuildAreaModel(ctx, d.Spec.District, client.Area{}, client.BuildOptions{IncludeDevices: true, History: 12 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	temps := 0
	for _, m := range model.MeasurementsFor(device) {
		if m.Quantity == dataformat.Temperature {
			temps++
		}
	}
	if temps != backfill+1 {
		t.Fatalf("history carries %d temperature samples, want the %d backfilled and the polled one", temps, backfill)
	}
	// A window that starts after the backfill sees only the polled rows.
	model, err = c.BuildAreaModel(ctx, d.Spec.District, client.Area{}, client.BuildOptions{IncludeDevices: true, History: time.Minute})
	if err != nil || len(model.MeasurementsFor(device)) != 2 {
		t.Fatalf("one-minute history = %d samples (err=%v), want the two polled rows", len(model.MeasurementsFor(device)), err)
	}
}

// TestSimulatedDevicePollsWhatItAdvertises: every protocol's simulated
// device reports on its first poll only quantities its options advertise
// in /v1/info (Senses), and senses each of them.
func TestSimulatedDevicePollsWhatItAdvertises(t *testing.T) {
	for _, proto := range AllProtocols {
		t.Run(string(proto), func(t *testing.T) {
			opts, stop, err := SimulatedDevice(proto, 1, 50*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			defer opts.Driver.Close()
			readings, err := opts.Driver.Poll()
			if err != nil {
				t.Fatal(err)
			}
			polled := map[dataformat.Quantity]bool{}
			for _, r := range readings {
				polled[r.Quantity] = true
			}
			advertised := map[dataformat.Quantity]bool{}
			for _, q := range opts.Senses {
				advertised[q] = true
			}
			if !reflect.DeepEqual(polled, advertised) {
				t.Fatalf("first poll reports %v, the device advertises %v", polled, opts.Senses)
			}
		})
	}
}
