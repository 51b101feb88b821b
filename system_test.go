package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/deviceproxy"
	"repro/internal/master"
	"repro/internal/measuredb"
	"repro/internal/middleware"
	"repro/internal/ontology"
	"repro/internal/proxyhttp"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/tsdb"
	"repro/internal/wal"
)

// System-level integration tests: whole-infrastructure behaviours that
// no single package test can cover — failure recovery, multi-district
// deployments, XML end-to-end, and the measurements history path.

// TestMain guards the whole suite against goroutine leaks: every test
// here boots real services (masters, proxies, hubs, shard workers) and
// tears them down through Close paths — a worker that outlives its
// Close is a shutdown bug no individual assertion would catch. The
// check snapshots the goroutine count before the run, gives the
// schedulers a settle window after it (idle HTTP keep-alives are
// explicitly closed first), and dumps every stack when the count never
// returns near the baseline.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if leaked := goroutineLeak(base); leaked != "" {
			fmt.Fprint(os.Stderr, leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// goroutineLeak waits for the goroutine count to settle back to the
// pre-run baseline (plus slack for runtime helpers the first tests
// start: finalizer, timer, and HTTP transport internals). On timeout it
// returns a report with all stacks; empty means no leak.
func goroutineLeak(base int) string {
	const slack = 4
	http.DefaultClient.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	n := 0
	for {
		n = runtime.NumGoroutine()
		if n <= base+slack {
			return ""
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return fmt.Sprintf("system_test: goroutine leak: %d before the run, %d after the settle window (slack %d)\n\n%s\n",
		base, n, slack, buf)
}

func bootstrap(t *testing.T, spec core.Spec) *core.District {
	t.Helper()
	d, err := core.Bootstrap(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestSystemXMLEndToEnd(t *testing.T) {
	d := bootstrap(t, core.Spec{
		Buildings: 1, DevicesPerBuilding: 1,
		Protocols: []core.Protocol{core.ProtoOPCUA},
		PollEvery: 50 * time.Millisecond, Seed: 31,
	})
	if !d.WaitForSamples(1, 10*time.Second) {
		t.Fatal("no samples")
	}
	// The whole client flow with XML as the negotiated encoding.
	c := &client.Client{MasterURL: d.MasterURL, Encoding: dataformat.XML}
	ctx := context.Background()
	model, err := c.BuildAreaModel(ctx, "turin", client.Area{}, client.BuildOptions{
		IncludeDevices: true, IncludeGIS: true,
	})
	if err != nil {
		t.Fatalf("XML flow: %v", err)
	}
	if len(model.Entities) == 0 || len(model.Measurements) == 0 {
		t.Fatalf("XML flow lost data: %d entities, %d measurements",
			len(model.Entities), len(model.Measurements))
	}
}

func TestSystemHistoryThroughMeasureDB(t *testing.T) {
	d := bootstrap(t, core.Spec{
		Buildings: 1, DevicesPerBuilding: 1,
		Protocols: []core.Protocol{core.ProtoZigBee},
		PollEvery: 30 * time.Millisecond, Seed: 32,
	})
	if !d.WaitForSamples(5, 10*time.Second) {
		t.Fatal("no samples")
	}
	// Wait until the proxies' batched ingest has carried at least 5
	// temperature samples into the global DB (each poll also ships
	// humidity and switch state, so the ingest counter alone is not
	// enough).
	const device = "urn:district:turin/building:b00/device:d00"
	ctx := context.Background()
	history := d.Client().Measurements(d.MeasureURL)
	var page *measuredb.SamplesPage
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var err error
		page, err = history.Samples(ctx, device, "temperature")
		if err == nil && len(page.Samples) >= 5 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if page == nil || len(page.Samples) < 5 {
		n := 0
		if page != nil {
			n = len(page.Samples)
		}
		t.Fatalf("history = %d samples; measuredb stats %+v", n, d.Measure.Stats())
	}
	// And the device proxy's own buffer agrees in magnitude.
	c := d.Client()
	devices, err := c.Catalog().Devices(ctx, "urn:district:turin/building:b00")
	if err != nil || len(devices) == 0 {
		t.Fatalf("devices: %v %v", devices, err)
	}
	ms, err := c.Devices().Data(ctx, devices[0].ProxyURI, dataformat.Temperature, time.Time{}, time.Time{})
	if err != nil || len(ms) < 5 {
		t.Fatalf("local buffer: %d samples, %v", len(ms), err)
	}
}

func TestSystemProxyHeartbeatSurvivesMasterAmnesia(t *testing.T) {
	// A master that forgets a registration (restart) must be repopulated
	// by the proxy's heartbeat loop re-registering.
	m := master.New(master.Options{})
	if _, err := m.Ontology().AddDistrict("turin", "Torino"); err != nil {
		t.Fatal(err)
	}
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	reg := &proxyhttp.Registrar{
		MasterURL: "http://" + addr,
		Registration: registry.Registration{
			ID: "p1", Kind: registry.KindGIS,
			BaseURL: "http://p1/", EntityURI: "urn:district:turin",
		},
		HeartbeatEvery: 20 * time.Millisecond,
	}
	if err := reg.Start(); err != nil {
		t.Fatal(err)
	}
	defer reg.Stop()
	if m.Registry().Len() != 1 {
		t.Fatal("initial registration missing")
	}
	// Simulate master-side amnesia.
	if err := m.Registry().Deregister("p1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Registry().Len() == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("proxy did not re-register after master forgot it")
}

func TestSystemStaleProxySwept(t *testing.T) {
	m := master.New(master.Options{LivenessTTL: 50 * time.Millisecond, SweepEvery: 20 * time.Millisecond})
	if _, err := m.Ontology().AddDistrict("turin", "Torino"); err != nil {
		t.Fatal(err)
	}
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// Register once without heartbeats.
	one := &proxyhttp.Registrar{
		MasterURL: "http://" + addr,
		Registration: registry.Registration{
			ID: "dying", Kind: registry.KindBIM,
			BaseURL: "http://x/", EntityURI: "urn:district:turin",
		},
	}
	if err := one.Register(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m.Registry().Len() == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("stale proxy never swept")
}

func TestSystemMultiDistrict(t *testing.T) {
	// One master can serve several districts, each with its own tree;
	// queries stay scoped.
	m := master.New(master.Options{})
	ont := m.Ontology()
	for _, name := range []string{"turin", "milan"} {
		uri, err := ont.AddDistrict(name, name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := ont.AddEntity(uri, ontology.KindBuilding,
				fmt.Sprintf("b%02d", i), "B", 45+float64(i)*0.01, 7.6); err != nil {
				t.Fatal(err)
			}
		}
	}
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	c := &client.Client{MasterURL: "http://" + addr}
	ctx := context.Background()
	for _, name := range []string{"turin", "milan"} {
		qr, err := c.Catalog().Query(ctx, name, client.Area{})
		if err != nil {
			t.Fatal(err)
		}
		if qr.District != name || len(qr.Entities) != 3 {
			t.Fatalf("%s: %+v", name, qr)
		}
		for _, e := range qr.Entities {
			if want := "urn:district:" + name; e.URI[:len(want)] != want {
				t.Fatalf("cross-district leak: %s in %s query", e.URI, name)
			}
		}
	}
}

// TestSystemDeviceProxyLiveStream subscribes straight to one device
// proxy's stream endpoint — no middleware link, no measurements DB —
// and sees its samples live.
func TestSystemDeviceProxyLiveStream(t *testing.T) {
	d := bootstrap(t, core.Spec{
		Buildings: 1, DevicesPerBuilding: 1,
		Protocols: []core.Protocol{core.ProtoOPCUA},
		PollEvery: time.Hour, Seed: 35, // polls driven by hand below
	})
	c := d.Client()
	ctx := context.Background()
	devices, err := c.Catalog().Devices(ctx, "urn:district:turin/building:b00")
	if err != nil || len(devices) != 1 {
		t.Fatalf("devices: %v %v", devices, err)
	}
	sub, err := c.Streams().SubscribeService(ctx, devices[0].ProxyURI, "measurements/#")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	proxy := d.DeviceProxies[0]
	deadline := time.Now().Add(10 * time.Second)
	for proxy.Stream().Hub().Stats().Subscribers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("proxy stream never saw the subscriber")
		}
		time.Sleep(5 * time.Millisecond)
	}
	proxy.PollOnce()
	select {
	case ev := <-sub.Events:
		doc, err := dataformat.Decode(ev.Payload, dataformat.Sniff(ev.Payload))
		if err != nil || doc.Measurement == nil {
			t.Fatalf("bad live payload: %v", err)
		}
		if doc.Measurement.Device != devices[0].URI {
			t.Fatalf("sample from %s, want %s", doc.Measurement.Device, devices[0].URI)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no live sample from the device proxy stream")
	}
}

// TestSystemBatchActuation drives the batch endpoint through the client
// against a real (simulated OPC-UA) device.
func TestSystemBatchActuation(t *testing.T) {
	d := bootstrap(t, core.Spec{
		Buildings: 1, DevicesPerBuilding: 1,
		Protocols: []core.Protocol{core.ProtoOPCUA},
		PollEvery: time.Hour, Seed: 36,
	})
	c := d.Client()
	ctx := context.Background()
	devices, err := c.Catalog().Devices(ctx, "urn:district:turin/building:b00")
	if err != nil || len(devices) != 1 {
		t.Fatalf("devices: %v %v", devices, err)
	}
	rsp, err := c.Devices().ControlBatch(ctx, devices[0].ProxyURI, []deviceproxy.ControlRequest{
		{Quantity: dataformat.Temperature, Value: 19},
		{Quantity: dataformat.Quantity("no.such.actuator"), Value: 1},
		{Quantity: dataformat.Temperature, Value: 21},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Applied != 2 || len(rsp.Results) != 3 {
		t.Fatalf("batch response = %+v", rsp)
	}
	if !rsp.Results[0].Applied || rsp.Results[1].Applied || !rsp.Results[2].Applied {
		t.Fatalf("per-command outcomes wrong: %+v", rsp.Results)
	}
	if rsp.Results[1].Error == "" {
		t.Fatal("failed command carries no error")
	}
}

func TestSystemDeviceProxyStatsEndpoint(t *testing.T) {
	d := bootstrap(t, core.Spec{
		Buildings: 1, DevicesPerBuilding: 1,
		Protocols: []core.Protocol{core.ProtoEnOcean},
		PollEvery: 30 * time.Millisecond, Seed: 33,
	})
	if !d.WaitForSamples(2, 10*time.Second) {
		t.Fatal("no samples")
	}
	c := d.Client()
	ctx := context.Background()
	devices, err := c.Catalog().Devices(ctx, "urn:district:turin/building:b00")
	if err != nil || len(devices) != 1 {
		t.Fatalf("devices: %v %v", devices, err)
	}
	rsp, err := http.Get(devices[0].ProxyURI + "v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", rsp.StatusCode)
	}
}

func TestSystemOntologyEndpointReflectsRegistrations(t *testing.T) {
	d := bootstrap(t, core.Spec{
		Buildings: 1, DevicesPerBuilding: 1,
		Protocols: []core.Protocol{core.ProtoOPCUA},
		PollEvery: time.Hour, Seed: 34,
	})
	doc, err := (&api.Transport{}).GetDoc(context.Background(), d.MasterURL+"/v1/ontology?uri=urn:district:turin", dataformat.JSON)
	if err != nil {
		t.Fatal(err)
	}
	e := doc.Entity
	if e == nil {
		t.Fatal("no entity")
	}
	// The building node must carry its BIM proxy URI from registration.
	var building *dataformat.Entity
	for i := range e.Children {
		if e.Children[i].Kind == dataformat.EntityBuilding {
			building = &e.Children[i]
		}
	}
	if building == nil {
		t.Fatal("no building in ontology export")
	}
	if v, ok := building.Prop(ontology.PropProxyURI); !ok || v == "" {
		t.Error("building lacks registered proxy URI")
	}
	if len(building.Children) != 1 {
		t.Fatalf("device leaves = %d", len(building.Children))
	}
	if v, ok := building.Children[0].Prop(ontology.PropProxyURI); !ok || v == "" {
		t.Error("device lacks registered proxy URI")
	}
}

// ---------------------------------------------------------------------
// Durable storage layer: crash-recovery goldens
// ---------------------------------------------------------------------

// durableMeasureDB boots a durable measurements DB over dir with full
// fsync, serving on a fresh port. The caller decides whether to Close
// it — NOT closing is the in-process stand-in for a SIGKILL: nothing
// graceful runs, and everything acked was already fsynced.
func durableMeasureDB(t *testing.T, dir string) (*measuredb.Service, string) {
	t.Helper()
	s, err := measuredb.Open(measuredb.Options{
		DataDir:              dir,
		Fsync:                wal.FsyncAlways,
		Shards:               2,
		DisableLegacyAliases: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return s, "http://" + addr
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	rsp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	raw, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, rsp.StatusCode, raw)
	}
	return string(raw)
}

func postDurableIngest(t *testing.T, base, key, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v2/ingest", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", key)
	rsp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	raw, _ := io.ReadAll(rsp.Body)
	return rsp, string(raw)
}

// TestSystemDurableIngestSurvivesRestart is the acked-rows golden: rows
// acked through /v2/ingest with -data-dir set survive a kill+restart
// byte-for-byte (query responses identical pre/post, torn WAL tail
// included), and retrying the acked batch with its Idempotency-Key
// replays from the persisted dedup window instead of double-appending.
func TestSystemDurableIngestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const dev = "urn:district:turin/building:b01/device:dur0"
	body := `{"rows":[
		{"device":"` + dev + `","quantity":"temperature","at":"2015-03-09T10:00:00Z","value":20.5},
		{"device":"` + dev + `","quantity":"temperature","at":"2015-03-09T10:01:00Z","value":21.25},
		{"device":"` + dev + `","quantity":"humidity","at":"2015-03-09T10:00:00Z","value":45}
	]}`

	// "Killed" later: no graceful Close happens before the restart
	// below opens the same data dir — the deferred Close only runs at
	// test end, after every post-restart assertion, so its goroutines
	// do not outlive the test (the TestMain leak guard checks).
	// Closing late adds no bytes: every acked append is already flushed
	// to the OS, a late Close merely fsyncs and releases descriptors.
	s1, url1 := durableMeasureDB(t, dir)
	defer s1.Close()
	rsp, raw := postDurableIngest(t, url1, "restart-key", body)
	if rsp.StatusCode != http.StatusOK || !strings.Contains(raw, `"accepted":3`) {
		t.Fatalf("ingest = %d: %s", rsp.StatusCode, raw)
	}
	samplesPath := "/v2/series/" + url.PathEscape(dev) + "/temperature/samples"
	pre := httpGetBody(t, url1+samplesPath)

	// The kill also tears the tail of the node log mid-frame.
	segs, err := filepath.Glob(filepath.Join(dir, "tsdb", "wal", "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segments under the data dir: %v", err)
	}
	f, err := os.OpenFile(segs[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0x00, 0x00, 0x00, 0xca, 0xfe, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, url2 := durableMeasureDB(t, dir)
	defer s2.Close()
	post := httpGetBody(t, url2+samplesPath)
	if pre != post {
		t.Fatalf("samples differ across restart:\npre:  %s\npost: %s", pre, post)
	}

	// The acked batch retried with its key replays, not re-executes.
	preStats := s2.Store().Stats()
	rsp, raw = postDurableIngest(t, url2, "restart-key", body)
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("retry = %d: %s", rsp.StatusCode, raw)
	}
	if rsp.Header.Get("Idempotent-Replay") != "true" || !strings.Contains(raw, `"replayed":true`) {
		t.Fatalf("retry not replayed: %s", raw)
	}
	if got := s2.Store().Stats(); got.Samples != preStats.Samples {
		t.Fatalf("retry duplicated rows: %d -> %d samples", preStats.Samples, got.Samples)
	}
}

// TestSystemSSEResumeAcrossRestart is the stream golden: a subscriber
// that saw events, went away, and comes back AFTER the service was
// killed and restarted resumes with its pre-restart Last-Event-ID and
// receives exactly the events it missed — once each, no duplicates —
// because the replay ring is journaled next to the tsdb WAL.
func TestSystemSSEResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const dev = "urn:district:turin/building:b02/device:dur1"
	ctx := context.Background()
	row := func(val float64) string {
		return fmt.Sprintf(`{"rows":[{"device":"%s","quantity":"temperature","at":"2015-03-09T10:0%d:00Z","value":%g}]}`,
			dev, int(val), val)
	}
	values := func(evs []middleware.Event) []float64 {
		var out []float64
		for _, ev := range evs {
			doc, err := dataformat.Decode(ev.Payload, dataformat.Sniff(ev.Payload))
			if err != nil || doc.Measurement == nil {
				t.Fatalf("bad stream payload: %v", err)
			}
			out = append(out, doc.Measurement.Value)
		}
		return out
	}
	collectN := func(sub *stream.Subscription, n int) []middleware.Event {
		t.Helper()
		var out []middleware.Event
		deadline := time.After(10 * time.Second)
		for len(out) < n {
			select {
			case ev, ok := <-sub.Events:
				if !ok {
					t.Fatalf("stream ended after %d/%d events", len(out), n)
				}
				out = append(out, ev)
			case <-deadline:
				t.Fatalf("timeout after %d/%d events", len(out), n)
			}
		}
		return out
	}
	waitSubscribers := func(s *measuredb.Service, n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.Stream().Hub().Stats().Subscribers < n {
			if time.Now().After(deadline) {
				t.Fatalf("hub never reached %d subscribers", n)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// "Killed" later: closed only at test end (see the restart test
	// above) so the restart still sees a crash-shaped data dir while
	// the goroutines are reclaimed before the leak guard runs.
	s1, url1 := durableMeasureDB(t, dir)
	defer s1.Close()

	subA, err := stream.Subscribe(ctx, url1, "measurements/#", stream.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribers(s1, 1)
	for _, v := range []float64{1, 2, 3} {
		if rsp, raw := postDurableIngest(t, url1, "", row(v)); rsp.StatusCode != http.StatusOK {
			t.Fatalf("ingest: %s", raw)
		}
	}
	pre := collectN(subA, 3)
	if got := values(pre); got[0] != 1 || got[2] != 3 {
		t.Fatalf("pre-restart events = %v", got)
	}
	// The stamped ID of the last event consumed, not subA.LastID(): the
	// subscription advances that only after the channel send returns.
	lastID := stream.EventID(pre[2])

	// A second subscriber keeps the hub live while A is away (attached
	// BEFORE A goes, so the subscriber count never touches zero and
	// every gap event is journaled as it fans out).
	bctx, bcancel := context.WithCancel(ctx)
	subB, err := stream.Subscribe(bctx, url1, "measurements/#", stream.SubscribeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribers(s1, 2)
	subA.Close()
	for _, v := range []float64{4, 5, 6} {
		if rsp, raw := postDurableIngest(t, url1, "", row(v)); rsp.StatusCode != http.StatusOK {
			t.Fatalf("gap ingest: %s", raw)
		}
	}
	collectN(subB, 3) // the gap events really went out pre-kill
	bcancel()
	subB.Close()

	// Kill + restart, then A resumes with its pre-restart cursor.
	s2, url2 := durableMeasureDB(t, dir)
	defer s2.Close()
	subA2, err := stream.Subscribe(ctx, url2, "measurements/#", stream.SubscribeOptions{AfterID: lastID})
	if err != nil {
		t.Fatal(err)
	}
	defer subA2.Close()
	gap := collectN(subA2, 3)
	if got := values(gap); got[0] != 4 || got[1] != 5 || got[2] != 6 {
		t.Fatalf("resumed gap = %v, want [4 5 6]", got)
	}
	// And the stream continues live past the replayed gap, IDs still
	// monotonic — no duplicates of the gap can follow.
	waitSubscribers(s2, 1)
	if rsp, raw := postDurableIngest(t, url2, "", row(7)); rsp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart ingest: %s", raw)
	}
	next := collectN(subA2, 1)
	if got := values(next); got[0] != 7 {
		t.Fatalf("post-restart event = %v, want [7]", got)
	}
	if stream.EventID(next[0]) <= stream.EventID(gap[2]) {
		t.Fatalf("IDs not monotonic across restart: %d then %d",
			stream.EventID(gap[2]), stream.EventID(next[0]))
	}
}

// ---------------------------------------------------------------------
// Cluster: live shard handoff golden
// ---------------------------------------------------------------------

// clusterHandoffNode boots one durable cluster node against the master,
// serving on a fresh port, with its self URL announced for ownership
// checks.
func clusterHandoffNode(t *testing.T, masterURL string, shards int) (*measuredb.Service, string) {
	t.Helper()
	s, err := measuredb.Open(measuredb.Options{
		DataDir:              t.TempDir(),
		Fsync:                wal.FsyncNone,
		Shards:               shards,
		DisableLegacyAliases: true,
		Cluster: &measuredb.ClusterOptions{
			Master:  masterURL,
			Refresh: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.SetClusterSelf("http://" + addr)
	return s, "http://" + addr
}

// clusterReadJSON drains a 200 response into out and returns the raw
// body beside it.
func clusterReadJSON(t *testing.T, rsp *http.Response, err error, out any) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rsp.Body.Close()
	raw, err := io.ReadAll(rsp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d: %s", rsp.Request.Method, rsp.Request.URL, rsp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	return raw
}

// clusterBatchQuery runs one /v2/query against base and returns the raw
// response bytes plus the decoded document.
func clusterBatchQuery(t *testing.T, base string, req measuredb.BatchQuery) ([]byte, measuredb.BatchResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := http.Post(base+"/v2/query", "application/json", strings.NewReader(string(body)))
	var out measuredb.BatchResponse
	raw := clusterReadJSON(t, rsp, err, &out)
	return raw, out
}

// clusterSamplesPage reads one JSON sample page (target is the full URL,
// of a node or the coordinator) and returns the raw body beside it.
func clusterSamplesPage(t *testing.T, target string) ([]byte, measuredb.SamplesPage) {
	t.Helper()
	rsp, err := http.Get(target)
	var page measuredb.SamplesPage
	raw := clusterReadJSON(t, rsp, err, &page)
	return raw, page
}

// TestSystemClusterHandoffUnderLiveIngest is the kill-free handoff
// golden: a 2-node cluster behind one coordinator keeps accepting keyed
// /v2 writes while one shard is moved live from node 0 to node 1 —
// freeze, archive, replay, epoch flip, release. Afterwards every acked
// row is present exactly once, a bounded /v2/query over a quiesced
// series is byte-for-byte identical across the epoch flip, a page cursor
// cut before the move resumes on the new owner, and a keyed batch
// retried across the move still replays instead of re-executing.
func TestSystemClusterHandoffUnderLiveIngest(t *testing.T) {
	ctx := context.Background()
	m := master.New(master.Options{})
	maddr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	masterURL := "http://" + maddr

	const shards = 4
	n0, url0 := clusterHandoffNode(t, masterURL, shards)
	n1, url1 := clusterHandoffNode(t, masterURL, shards)

	// Everything starts on node 0; the move drags one shard to node 1.
	owners := make([]string, shards)
	for i := range owners {
		owners[i] = url0
	}
	preMap, err := m.ClusterMap().Set(cluster.Map{Shards: shards, Owners: owners})
	if err != nil {
		t.Fatal(err)
	}

	coord, err := measuredb.OpenCoordinator(measuredb.CoordinatorOptions{
		Master: masterURL, Refresh: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	caddr, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coordURL := "http://" + caddr

	devInShard := func(shard int) string {
		for i := 0; ; i++ {
			dev := fmt.Sprintf("urn:district:turin/cluster:c%d/device:d%d", shard, i)
			if tsdb.ShardOf(dev, shards) == shard {
				return dev
			}
		}
	}
	const moveShard = 1
	movDev := devInShard(moveShard) // rides the moving shard
	stayDev := devInShard(2)        // stays on node 0 throughout

	c := &client.Client{MasterURL: masterURL}
	ing := c.Ingest(coordURL)
	base := time.Now().UTC().Add(-time.Hour).Truncate(time.Second)

	// Quiesced series on the moving shard: written once, then only read.
	// Its bounded query is the byte-for-byte golden across the flip.
	static := []measuredb.Point{
		{Device: movDev, Quantity: "humidity", At: base.Add(-30 * time.Minute), Value: 41},
		{Device: movDev, Quantity: "humidity", At: base.Add(-29 * time.Minute), Value: 42.5},
		{Device: movDev, Quantity: "humidity", At: base.Add(-28 * time.Minute), Value: 44},
	}
	if res, err := ing.Append(ctx, static); err != nil || res.Accepted != len(static) {
		t.Fatalf("static seed: %+v, %v", res, err)
	}
	// A keyed stay-shard batch: retried verbatim after the move below to
	// prove the dedup window still replays across the cluster epoch flip.
	dedupRows := []measuredb.Point{
		{Device: stayDev, Quantity: "humidity", At: base.Add(-30 * time.Minute), Value: 7},
	}
	if res, err := ing.Append(ctx, dedupRows, client.WithIdempotencyKey("handoff-dedup")); err != nil || res.Accepted != 1 {
		t.Fatalf("dedup seed: %+v, %v", res, err)
	}
	// Force a block compaction on node 0: the quiesced humidity rows are
	// ~90 minutes old, well past the head window, so they move from the
	// WAL into a columnar block file. The shard handoff below must ship
	// those block bytes for the golden query to survive the flip.
	if err := c.Ops(url0).Compact(ctx, -1); err != nil {
		t.Fatalf("pre-move compaction: %v", err)
	}
	st0, err := c.Ops(url0).StorageStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st0.Durable || st0.Shards[moveShard].Blocks == 0 {
		t.Fatalf("moving shard has no blocks before the move: %+v", st0.Shards[moveShard])
	}
	goldenQuery := measuredb.BatchQuery{
		Selectors: []measuredb.SeriesSelector{{Device: movDev, Quantity: "humidity"}},
		From:      base.Add(-40 * time.Minute),
		To:        base.Add(-20 * time.Minute),
		Limit:     100,
	}
	goldenPre, pre := clusterBatchQuery(t, coordURL, goldenQuery)
	if pre.Series != 1 || pre.Samples != len(static) {
		t.Fatalf("golden pre-move: %d series, %d samples", pre.Series, pre.Samples)
	}
	// Page 1 of a two-page walk over the same series, cut by node 0; page
	// 2 is asked for after the move, when node 1 has to honour the cursor.
	samplesPath := "/v2/series/" + url.PathEscape(movDev) + "/humidity/samples?limit=2"
	_, page1 := clusterSamplesPage(t, coordURL+samplesPath)
	if page1.Count != 2 || page1.NextCursor == "" {
		t.Fatalf("pre-move page 1: %+v", page1)
	}

	// Live keyed ingest through the coordinator: one row per series per
	// batch at distinct timestamps. A batch whose delivery fails is
	// retried with the SAME key until it acks — exactly how a real
	// producer rides out a handoff.
	var (
		mu      sync.Mutex
		acked   []measuredb.Point
		loopErr error
	)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rows := []measuredb.Point{
				{Device: movDev, Quantity: "temperature", At: base.Add(time.Duration(i) * time.Second), Value: float64(i)},
				{Device: stayDev, Quantity: "temperature", At: base.Add(time.Duration(i) * time.Second), Value: float64(-i)},
			}
			key := fmt.Sprintf("handoff-live-%d", i)
			delivered := false
			for attempt := 0; attempt < 50 && !delivered; attempt++ {
				res, err := ing.Append(ctx, rows, client.WithIdempotencyKey(key))
				if err == nil && res.Rejected == 0 {
					delivered = true
					break
				}
				time.Sleep(20 * time.Millisecond)
			}
			mu.Lock()
			if delivered {
				acked = append(acked, rows...)
			} else if loopErr == nil {
				loopErr = fmt.Errorf("batch %d never acked through the handoff", i)
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	time.Sleep(250 * time.Millisecond) // let pre-move batches land
	rep, err := c.Cluster().Move(ctx, moveShard, url1)
	if err != nil {
		t.Fatalf("move: %v", err)
	}
	if rep.From != url0 || rep.To != url1 || rep.Rows == 0 || rep.Epoch <= preMap.Epoch {
		t.Fatalf("move report: %+v (pre epoch %d)", rep, preMap.Epoch)
	}
	time.Sleep(250 * time.Millisecond) // and post-flip batches
	close(stop)
	<-done
	if loopErr != nil {
		t.Fatal(loopErr)
	}

	// The moved shard now lives on node 1 — bytes included — and node 0
	// released (and wiped) its copy.
	movKey := tsdb.SeriesKey{Device: movDev, Quantity: "humidity"}
	if n := n1.Store().Len(movKey); n != len(static) {
		t.Fatalf("target node holds %d static samples, want %d", n, len(static))
	}
	if n := n0.Store().Len(movKey); n != 0 {
		t.Fatalf("source node still holds %d samples after release", n)
	}
	// The block file rode along: the target serves the moved shard from
	// block storage, not just replayed WAL rows.
	st1, err := c.Ops(url1).StorageStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Shards[moveShard].Blocks == 0 {
		t.Fatalf("moved shard has no blocks on the target: %+v", st1.Shards[moveShard])
	}

	// Byte-for-byte golden across the epoch flip.
	goldenPost, _ := clusterBatchQuery(t, coordURL, goldenQuery)
	if string(goldenPre) != string(goldenPost) {
		t.Fatalf("query differs across the flip:\npre:  %s\npost: %s", goldenPre, goldenPost)
	}

	// The walk started before the move ends on the new owner: the last
	// sample, once, and the coordinator's bytes are that node's bytes.
	page2Path := samplesPath + "&cursor=" + url.QueryEscape(page1.NextCursor)
	viaCoord, page2 := clusterSamplesPage(t, coordURL+page2Path)
	if page2.Count != 1 || !page2.Samples[0].At.Equal(static[2].At) || page2.NextCursor != "" {
		t.Fatalf("post-move page 2: %+v, want only the sample at %s", page2, static[2].At)
	}
	if viaNode, _ := clusterSamplesPage(t, url1+page2Path); string(viaCoord) != string(viaNode) {
		t.Fatalf("page 2 differs between coordinator and owner:\ncoordinator: %s\nnode:        %s", viaCoord, viaNode)
	}

	// Every acked live row is present exactly once, on both the moved
	// and the unmoved series.
	perSeries := map[string]map[int64]float64{}
	mu.Lock()
	for _, p := range acked {
		k := p.Device
		if perSeries[k] == nil {
			perSeries[k] = map[int64]float64{}
		}
		perSeries[k][p.At.UnixNano()] = p.Value
	}
	ackedN := len(acked)
	mu.Unlock()
	if ackedN == 0 {
		t.Fatal("no batches acked during the handoff window")
	}
	for dev, want := range perSeries {
		_, out := clusterBatchQuery(t, coordURL, measuredb.BatchQuery{
			Selectors: []measuredb.SeriesSelector{{Device: dev, Quantity: "temperature"}},
			From:      base.Add(-time.Minute),
			To:        base.Add(20 * time.Minute),
			Limit:     tsdb.DefaultPageLimit,
		})
		if len(out.Results) != 1 || out.Results[0].Error != "" {
			t.Fatalf("%s: %+v", dev, out.Results)
		}
		seen := map[int64]int{}
		for _, s := range out.Results[0].Series {
			for _, p := range s.Samples {
				seen[p.At.UnixNano()]++
			}
		}
		for at, val := range want {
			if seen[at] != 1 {
				t.Fatalf("%s: acked row at %s appears %d times (value %v), want exactly once",
					dev, time.Unix(0, at).UTC(), seen[at], val)
			}
		}
	}

	// The pre-move keyed batch retried across the flip still replays.
	stayKey := tsdb.SeriesKey{Device: stayDev, Quantity: "humidity"}
	preLen := n0.Store().Len(stayKey)
	res, err := ing.Append(ctx, dedupRows, client.WithIdempotencyKey("handoff-dedup"))
	if err != nil || res.Accepted != 1 {
		t.Fatalf("dedup retry: %+v, %v", res, err)
	}
	if n := n0.Store().Len(stayKey); n != preLen {
		t.Fatalf("dedup regression: %d -> %d samples after keyed retry", preLen, n)
	}
}
