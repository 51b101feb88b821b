// Package repro holds the benchmark harness that regenerates every
// experiment in DESIGN.md §3 (the paper is a 2-page extended abstract
// with no quantitative tables; Fig. 1(a)/1(b) and the qualitative claims
// of §II/§IV define the experiments — see EXPERIMENTS.md for the
// paper-vs-measured record).
//
// Run with:
//
//	go test -bench=. -benchmem .
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bytes"
	"repro/internal/api"
	"repro/internal/bim"
	"repro/internal/block"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataformat"
	"repro/internal/dbproxy"
	"repro/internal/deviceproxy"
	"repro/internal/gis"
	"repro/internal/integration"
	"repro/internal/master"
	"repro/internal/measuredb"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/protocol/enocean"
	"repro/internal/protocol/ieee802154"
	"repro/internal/protocol/opcua"
	"repro/internal/protocol/zigbee"
	"repro/internal/proxyhttp"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/stream"
	"repro/internal/tsdb"
	"repro/internal/wal"
	"repro/internal/wsn"
)

var benchT0 = time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)

// ---------------------------------------------------------------------
// F1a — Fig. 1(a): end-to-end area query. The client queries the master,
// follows every returned proxy URI, and integrates the comprehensive
// model. Latency should grow with the number of proxies *in the area*,
// not with total district size (the redirection/scalability claim).
// The one poll's rows reach the measurements DB with the batcher's next
// flush (200 ms), so the first iterations read the devices from their
// proxies and the later ones from the DB; models are 304s after the
// first iteration.
// ---------------------------------------------------------------------

func BenchmarkF1a_EndToEndAreaQuery(b *testing.B) {
	for _, buildings := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("buildings=%d", buildings), func(b *testing.B) {
			d, err := core.Bootstrap(core.Spec{
				Buildings:          buildings,
				Networks:           1,
				DevicesPerBuilding: 1,
				Protocols:          []core.Protocol{core.ProtoOPCUA}, // cheapest device path
				PollEvery:          time.Hour,                        // no background sampling noise
				Seed:               7,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			for _, p := range d.DeviceProxies {
				p.PollOnce() // one buffered sample each
			}
			c := d.Client()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model, err := c.BuildAreaModel(ctx, "turin", client.Area{}, client.BuildOptions{
					IncludeDevices: true, IncludeGIS: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(model.Entities) == 0 {
					b.Fatal("empty model")
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// F1b — Fig. 1(b): the device-proxy pipeline per protocol. One PollOnce
// covers the dedicated layer (real protocol round trip), the local
// database append, and the publication on the proxy's own stream hub.
// ---------------------------------------------------------------------

func BenchmarkF1b_DeviceProxyPipeline(b *testing.B) {
	signals := map[dataformat.Quantity]wsn.Signal{
		dataformat.Temperature: {Base: 21},
		dataformat.Humidity:    {Base: 45},
	}
	run := func(b *testing.B, driver deviceproxy.Driver) {
		b.Helper()
		proxy, err := deviceproxy.New(deviceproxy.Options{
			DeviceURI: "urn:district:turin/building:b00/device:bench",
			Driver:    driver,
			PollEvery: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := proxy.Run("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer proxy.Close()
		sub, _, err := proxy.Stream().Hub().Subscribe(measuredb.IngestPattern, 0)
		if err != nil {
			b.Fatal(err)
		}
		go func() { // drained so the subscriber is never evicted; ends when proxy.Close closes the hub
			for range sub.C {
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			proxy.PollOnce()
		}
		b.StopTimer()
		if proxy.Stats().Samples == 0 {
			b.Fatal("pipeline produced no samples")
		}
	}

	b.Run("protocol=ieee802.15.4", func(b *testing.B) {
		radio := ieee802154.NewRadio(ieee802154.RadioOptions{Seed: 1})
		defer radio.Close()
		node, err := wsn.NewNode802154(radio, 1, 0x10, signals, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		drv, err := wsn.NewDriver802154(radio, 1, 0x01, 0x10, len(signals))
		if err != nil {
			b.Fatal(err)
		}
		run(b, drv)
	})
	b.Run("protocol=zigbee", func(b *testing.B) {
		radio := ieee802154.NewRadio(ieee802154.RadioOptions{Seed: 1})
		defer radio.Close()
		node, err := wsn.NewNodeZigbee(radio, 1, 0x20, signals, false, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		drv, err := wsn.NewDriverZigbee(radio, 1, 0x02, 0x20,
			[]dataformat.Quantity{dataformat.Temperature, dataformat.Humidity})
		if err != nil {
			b.Fatal(err)
		}
		run(b, drv)
	})
	b.Run("protocol=enocean", func(b *testing.B) {
		link := &wsn.SerialLink{}
		node := wsn.NewNodeEnOcean(link, enocean.EEPTempHumA50401, 0x100, signals, 1)
		defer node.Close()
		node.Emit()
		drv := wsn.NewDriverEnOcean(link, enocean.EEPTempHumA50401, 0x100, nil)
		run(b, drv)
	})
	b.Run("protocol=opc-ua", func(b *testing.B) {
		node, err := wsn.NewNodeOPCUA(signals, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		drv, err := wsn.NewDriverOPCUA(node.Addr(),
			[]dataformat.Quantity{dataformat.Temperature, dataformat.Humidity}, nil)
		if err != nil {
			b.Fatal(err)
		}
		run(b, drv)
	})
}

// ---------------------------------------------------------------------
// E1 — master query latency vs district size ("scalable" claim): the
// ontology lookup should stay flat-ish as the district grows, because
// the master only resolves and redirects.
// ---------------------------------------------------------------------

func BenchmarkE1_MasterQueryVsDistrictSize(b *testing.B) {
	for _, buildings := range []int{10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("buildings=%d", buildings), func(b *testing.B) {
			ont := ontology.New()
			turin, err := ont.AddDistrict("turin", "Torino")
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < buildings; i++ {
				lat := 45.0 + float64(i%200)*0.0005
				lon := 7.6 + float64(i/200)*0.0005
				uri, err := ont.AddEntity(turin, ontology.KindBuilding, fmt.Sprintf("b%05d", i), "B", lat, lon)
				if err != nil {
					b.Fatal(err)
				}
				_ = ont.SetProperty(uri, ontology.PropProxyURI, "http://proxy/")
			}
			// A fixed-size neighbourhood: ~25 buildings regardless of total.
			area := ontology.Area{MinLat: 45.0, MinLon: 7.6, MaxLat: 45.0025, MaxLon: 7.6025}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := ont.ResolveArea("turin", area)
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
}

// ---------------------------------------------------------------------
// E3 — registration scalability: proxies joining the master node.
// ---------------------------------------------------------------------

func BenchmarkE3_ProxyRegistration(b *testing.B) {
	for _, preload := range []int{10, 1000, 100000} {
		b.Run(fmt.Sprintf("existing=%d", preload), func(b *testing.B) {
			reg := registry.New()
			for i := 0; i < preload; i++ {
				_ = reg.Register(registry.Registration{
					ID: fmt.Sprintf("pre%06d", i), Kind: registry.KindDevice,
					BaseURL: "http://x/", EntityURI: "urn:e",
				})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := reg.Register(registry.Registration{
					ID: fmt.Sprintf("new%09d", i), Kind: registry.KindDevice,
					BaseURL: "http://x/", EntityURI: "urn:e",
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3_RegistrationHTTP includes the master's HTTP path.
func BenchmarkE3_RegistrationHTTP(b *testing.B) {
	m := master.New(master.Options{})
	if _, err := m.Ontology().AddDistrict("turin", "Torino"); err != nil {
		b.Fatal(err)
	}
	addr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reg := &registrarShim{masterURL: "http://" + addr, id: fmt.Sprintf("p%09d", i)}
		if err := reg.register(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E4 — per-protocol translation overhead: native encoding -> decode ->
// common format, the work a device-proxy's dedicated layer does per
// sample (no network, pure codec).
// ---------------------------------------------------------------------

func BenchmarkE4_ProtocolTranslation(b *testing.B) {
	b.Run("protocol=ieee802.15.4", func(b *testing.B) {
		payload := ieee802154.EncodeReading(ieee802154.SensorReading{
			Kind: ieee802154.ReadingTemperature, Value: 21.57, Battery: 90,
		})
		frame := &ieee802154.Frame{
			Type: ieee802154.FrameData, IntraPAN: true,
			DestPAN: 1, DestAddr: 2, SrcAddr: 3, Payload: payload,
		}
		raw, err := frame.Encode()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := ieee802154.Decode(raw)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ieee802154.DecodeReading(f.Payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("protocol=zigbee", func(b *testing.B) {
		zcl, err := zigbee.EncodeReport(1, []zigbee.Attribute{
			{ID: zigbee.AttrMeasuredValue, Type: zigbee.TypeInt16, Value: 2157},
		})
		if err != nil {
			b.Fatal(err)
		}
		aps := (&zigbee.APSFrame{Cluster: zigbee.ClusterTemperature, Profile: zigbee.ProfileHomeAutomation, ZCL: zcl}).Encode()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := zigbee.DecodeAPS(aps)
			if err != nil {
				b.Fatal(err)
			}
			f, err := zigbee.DecodeFrame(a.ZCL)
			if err != nil {
				b.Fatal(err)
			}
			attrs, err := zigbee.DecodeReport(f.Payload)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, _, err := zigbee.Translate(a.Cluster, attrs[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("protocol=enocean", func(b *testing.B) {
		tg, err := enocean.EncodeEEP(enocean.EEPTempHumA50401, 0x100, []enocean.Reading{
			{Quantity: dataformat.Temperature, Value: 21.5},
			{Quantity: dataformat.Humidity, Value: 45},
		})
		if err != nil {
			b.Fatal(err)
		}
		raw := tg.WrapRadio().Encode()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pkt, _, err := enocean.Decode(raw)
			if err != nil {
				b.Fatal(err)
			}
			t2, err := enocean.DecodeTelegram(pkt.Data)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := enocean.DecodeEEP(enocean.EEPTempHumA50401, t2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("protocol=opc-ua", func(b *testing.B) {
		// The OPC UA read includes a real TCP round trip — the wired
		// legacy path is inherently heavier, which is the point of the
		// comparison.
		node, err := wsn.NewNodeOPCUA(map[dataformat.Quantity]wsn.Signal{
			dataformat.Temperature: {Base: 21.5},
		}, nil, 1)
		if err != nil {
			b.Fatal(err)
		}
		defer node.Close()
		c, err := opcua.Dial(node.Addr(), time.Second)
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		ids := []opcua.NodeID{{Namespace: 1, ID: "Controller.temperature"}}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Read(ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// E5 — database-proxy translation: vendor export -> model -> common
// format document, per database kind and output encoding.
// ---------------------------------------------------------------------

func BenchmarkE5_DatabaseTranslation(b *testing.B) {
	building := bim.Synthesize(bim.SynthOptions{Seed: 5, Storeys: 4, SpacesPerStorey: 8, DevicesPerSpace: 2})
	network := sim.Synthesize(sim.SynthOptions{Seed: 5, Substations: 32})
	feature := gis.Feature{
		ID: "urn:district:turin/building:b01", Kind: gis.FeatureBuilding, Name: "B",
		Footprint: []gis.Point{{Lat: 45, Lon: 7}, {Lat: 45.001, Lon: 7}, {Lat: 45.001, Lon: 7.001}, {Lat: 45, Lon: 7.001}},
	}
	for _, enc := range []dataformat.Encoding{dataformat.JSON, dataformat.XML} {
		b.Run(fmt.Sprintf("db=bim/enc=%s", enc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := dbproxy.BuildingEntity(building, "turin")
				if _, err := dataformat.NewEntityDoc(e).Encode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("db=sim/enc=%s", enc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := dbproxy.NetworkEntity(network, "turin")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dataformat.NewEntityDoc(e).Encode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("db=gis/enc=%s", enc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := dbproxy.FeatureEntity(&feature)
				if _, err := dataformat.NewEntityDoc(e).Encode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E6 — the local-database layer (and the global measurement store):
// append and range-query rates of the time-series engine.
// ---------------------------------------------------------------------

// memEngine returns an in-memory one-shard engine holding up to 1<<20
// samples a series, closed with the benchmark.
func memEngine(tb testing.TB) *tsdb.Sharded {
	s := tsdb.NewSharded(tsdb.ShardedOptions{Shards: 1, Store: tsdb.Options{MaxSamplesPerSeries: 1 << 20}})
	tb.Cleanup(s.Close)
	return s
}

// fillSeries appends n samples one second apart from benchT0, valued
// 0..n-1, in one batch.
func fillSeries(tb testing.TB, s tsdb.Engine, key tsdb.SeriesKey, n int) {
	rows := make([]tsdb.Row, n)
	for i := range rows {
		rows[i] = tsdb.Row{Key: key, Sample: tsdb.Sample{At: benchT0.Add(time.Duration(i) * time.Second), Value: float64(i)}}
	}
	if errs := s.AppendBatch(rows); errs != nil {
		tb.Fatal(errs[0])
	}
}

func BenchmarkE6_TimeSeriesEngine(b *testing.B) {
	key := tsdb.SeriesKey{Device: "urn:d", Quantity: "temperature"}
	b.Run("op=append", func(b *testing.B) {
		s := memEngine(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = s.Append(key, tsdb.Sample{At: benchT0.Add(time.Duration(i) * time.Second), Value: float64(i)})
		}
	})
	for _, window := range []int{100, 10000} {
		b.Run(fmt.Sprintf("op=query/window=%d", window), func(b *testing.B) {
			s := memEngine(b)
			fillSeries(b, s, key, 100000)
			from := benchT0.Add(50000 * time.Second)
			to := from.Add(time.Duration(window) * time.Second)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				samples, err := s.Query(key, from, to)
				if err != nil {
					b.Fatal(err)
				}
				if len(samples) == 0 {
					b.Fatal("empty query")
				}
			}
		})
	}
	b.Run("op=aggregate", func(b *testing.B) {
		s := memEngine(b)
		fillSeries(b, s, key, 100000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Aggregate(key, benchT0, benchT0.Add(100000*time.Second)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// E7 — integration merge cost vs number of sources and conflict ratio.
// ---------------------------------------------------------------------

func BenchmarkE7_IntegrationMerge(b *testing.B) {
	makeEntities := func(source int, conflicting bool) []dataformat.Entity {
		out := make([]dataformat.Entity, 20)
		for i := range out {
			e := dataformat.Entity{
				URI:  fmt.Sprintf("urn:district:turin/building:b%02d", i),
				Kind: dataformat.EntityBuilding,
				Name: "B",
			}
			val := "same"
			if conflicting {
				val = fmt.Sprintf("from-source-%d", source)
			}
			e.SetProp("owner", val, "string")
			out[i] = e
		}
		return out
	}
	for _, sources := range []int{2, 16, 64} {
		for _, conflicting := range []bool{false, true} {
			b.Run(fmt.Sprintf("sources=%d/conflicts=%v", sources, conflicting), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m := integration.NewMerger("turin")
					for s := 0; s < sources; s++ {
						for _, e := range makeEntities(s, conflicting) {
							m.AddEntity(fmt.Sprintf("src%d", s), e)
						}
					}
					out := m.Result()
					if len(out.Entities) != 20 {
						b.Fatal("merge lost entities")
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------
// E8 — federation (paper's design: translate at each proxy, integrate at
// the edge, keep every database live) vs naive union (decode every
// vendor export into one central database, re-encoding centrally).
// The union baseline also loses the provenance of conflicting values,
// which the benchmark reports via the conflict counter.
// ---------------------------------------------------------------------

func BenchmarkE8_FederationVsUnion(b *testing.B) {
	const nBuildings = 24
	exports := make([]*bim.Building, nBuildings)
	for i := range exports {
		exports[i] = bim.Synthesize(bim.SynthOptions{
			ID: fmt.Sprintf("b%02d", i), Seed: int64(i + 1),
			Storeys: 3, SpacesPerStorey: 6, DevicesPerSpace: 1,
		})
	}
	b.Run("mode=federated", func(b *testing.B) {
		// Each proxy translates its own database (parallelizable, here
		// shown as the per-source loop); the client merges entities.
		for i := 0; i < b.N; i++ {
			m := integration.NewMerger("turin")
			for s, building := range exports {
				e := dbproxy.BuildingEntity(building, "turin")
				m.AddEntity(fmt.Sprintf("bim%02d", s), e)
			}
			out := m.Result()
			if len(out.Entities) == 0 {
				b.Fatal("no entities")
			}
		}
	})
	b.Run("mode=union", func(b *testing.B) {
		// Central union: re-encode every building into one store through
		// the vendor format (decode+encode both ends), then translate
		// the union — the design §II argues against.
		for i := 0; i < b.N; i++ {
			var union []*bim.Building
			for _, building := range exports {
				var buf bytes.Buffer
				if err := bim.EncodeVendorA(&buf, building); err != nil {
					b.Fatal(err)
				}
				decoded, err := bim.DecodeVendorA(&buf)
				if err != nil {
					b.Fatal(err)
				}
				union = append(union, decoded)
			}
			m := integration.NewMerger("turin")
			for _, building := range union {
				m.AddEntity("central", dbproxy.BuildingEntity(building, "turin"))
			}
			if len(m.Result().Entities) == 0 {
				b.Fatal("no entities")
			}
		}
	})
}

// registrarShim posts one registration without the Registrar's loop.
type registrarShim struct {
	masterURL string
	id        string
}

func (r *registrarShim) register() error {
	reg := proxyhttp.Registrar{
		MasterURL: r.masterURL,
		Registration: registry.Registration{
			ID: r.id, Kind: registry.KindDevice,
			BaseURL: "http://x/", EntityURI: "urn:district:turin",
		},
	}
	return reg.Register()
}

// ---------------------------------------------------------------------
// S1 — stream fan-out: one publisher feeding many concurrent
// subscribers through the SSE hub. The hub holds its lock across the
// whole fan-out, so this measures the per-event cost of sequencing +
// ring append + trie match + N bounded-queue handoffs.
// ---------------------------------------------------------------------

func BenchmarkS1_StreamHubFanout(b *testing.B) {
	for _, subs := range []int{1, 16, 128} {
		b.Run(fmt.Sprintf("subscribers=%d", subs), func(b *testing.B) {
			hub := stream.NewHub(stream.HubOptions{FirstID: 1, QueueLen: 4096})
			defer hub.Close()
			var delivered atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < subs; i++ {
				sub, _, err := hub.Subscribe("measurements/#", 0)
				if err != nil {
					b.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range sub.C {
						delivered.Add(1)
					}
				}()
			}
			ev := middleware.Event{
				Topic:   "measurements/turin/building:b00/device:d00/temperature",
				Payload: []byte(`{"value":21.5}`),
				At:      benchT0,
			}
			// Wave pacing: fully drain every 1024 events, so per-queue
			// backlog stays well under QueueLen and no subscriber is ever
			// evicted — the benchmark must measure fan-out, not eviction.
			waitDrained := func(events int) {
				want := int64(events) * int64(subs)
				for delivered.Load() < want {
					if hub.Stats().Evicted > 0 {
						b.Fatal("benchmark evicted a subscriber")
					}
					runtime.Gosched()
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := hub.Publish(ev); err != nil {
					b.Fatal(err)
				}
				if i%1024 == 1023 {
					waitDrained(i + 1)
				}
			}
			waitDrained(b.N)
			b.StopTimer()
			hub.Close()
			wg.Wait()
		})
	}
}

// ---------------------------------------------------------------------
// S2 — stream fan-out end to end: one publisher on the service hub, 100
// SSE subscribers over real HTTP connections. Reported time is per
// published event fully delivered to all 100 subscribers.
// ---------------------------------------------------------------------

func BenchmarkS2_StreamSSEFanout100(b *testing.B) {
	const subs = 100
	svc, err := stream.NewService(stream.Options{
		Hub: stream.HubOptions{FirstID: 1, QueueLen: 8192, History: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	srv := api.NewServer(api.Options{Service: "bench"})
	svc.Mount(srv)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	for i := 0; i < subs; i++ {
		sub, err := stream.Subscribe(ctx, ts.URL, "measurements/#", stream.SubscribeOptions{Buffer: 1024})
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Close()
		go func() {
			for range sub.Events {
				delivered.Add(1)
			}
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for svc.Hub().Stats().Subscribers < subs {
		if time.Now().After(deadline) {
			b.Fatalf("only %d/%d SSE subscribers attached", svc.Hub().Stats().Subscribers, subs)
		}
		time.Sleep(time.Millisecond)
	}

	ev := middleware.Event{
		Topic:   "measurements/turin/building:b00/device:d00/temperature",
		Payload: []byte(`{"value":21.5}`),
		At:      benchT0,
	}
	// Wave pacing: fully drain every 64 events, so the per-subscriber
	// SSE queues can always absorb the in-flight wave and slow-consumer
	// eviction cannot fire.
	waitDrained := func(events int) {
		want := int64(events) * subs
		for delivered.Load() < want {
			if svc.Hub().Stats().Evicted > 0 {
				b.Fatal("benchmark evicted a subscriber")
			}
			runtime.Gosched()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Hub().Publish(ev); err != nil {
			b.Fatal(err)
		}
		if i%64 == 63 {
			waitDrained(i + 1)
		}
	}
	waitDrained(b.N)
	b.StopTimer()
}

// ---------------------------------------------------------------------
// S3 — the live path's allocation budget: one op is sixteen 64-row POST
// /v2/ingest requests (16 devices × 4 quantities, the live_visibility
// shape) through the service handler into a memory engine, with the stream
// hub journaled and one subscriber draining it — so every row is
// decoded, stored, turned into an event, encoded once, journaled and
// queued. allocs/row covers all of it, the request's own fixed cost
// included; TestHotPathAllocCeilings holds the ceiling.
// ---------------------------------------------------------------------

func BenchmarkS3_IngestPublishAllocs(b *testing.B) {
	benchAllocsPer(b, "row", s3LivePathOp(b))
}

func s3LivePathOp(tb testing.TB) hotPathOp {
	const (
		rowsPerRequest = 64
		requestsPerOp  = 16 // so the pools a GC emptied refill once per 1024 rows, not per 64
		rowsPerOp      = rowsPerRequest * requestsPerOp
	)
	quantities := []string{"temperature", "humidity", "power.active", "illuminance"}
	var body bytes.Buffer
	body.WriteString(`{"rows":[`)
	for i := 0; i < rowsPerRequest; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"device":"urn:district:turin/building:b%02d/device:d%d","quantity":%q,"at":"2015-03-09T10:00:00Z","value":%d.25}`,
			i/8, i/4%2, quantities[i%4], i)
	}
	body.WriteString(`]}`)

	svc := measuredb.New(measuredb.Options{
		DisableLegacyAliases: true,
		Engine: tsdb.NewSharded(tsdb.ShardedOptions{
			Store: tsdb.Options{MaxSamplesPerSeries: 1 << 22},
		}),
		Stream: stream.Options{Hub: stream.HubOptions{Dir: tb.TempDir()}},
	})
	tb.Cleanup(svc.Close)
	sub, _, err := svc.Stream().Hub().Subscribe(measuredb.IngestPattern, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var delivered atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for batch := range sub.C {
			delivered.Add(int64(len(batch)))
		}
	}()
	h := svc.Handler()
	var sent int64
	return hotPathOp{
		perOp: rowsPerOp,
		fn: func() {
			for r := 0; r < requestsPerOp; r++ {
				req := httptest.NewRequest("POST", "/v2/ingest", bytes.NewReader(body.Bytes()))
				req.Header.Set("Content-Type", "application/json")
				w := &discardResponseWriter{h: make(http.Header)}
				h.ServeHTTP(w, req)
				if w.status != 200 {
					tb.Fatalf("ingest status %d", w.status)
				}
				// The subscriber's queue holds four of these batches: let
				// the drainer catch up before the next request, or a host
				// that does not schedule it in time evicts it.
				sent += rowsPerRequest
				for delivered.Load() < sent {
					select {
					case <-drained:
						tb.Fatalf("subscriber gone after %d of %d rows; hub stats %+v", delivered.Load(), sent, svc.Stream().Hub().Stats())
					default:
						runtime.Gosched()
					}
				}
			}
		},
		verify: func() {
			sub.Close()
			<-drained
			if st := svc.Stream().Hub().Stats(); st.Evicted != 0 || delivered.Load() != sent || st.PersistErrors != 0 {
				tb.Fatalf("delivered %d of %d rows; hub stats %+v", delivered.Load(), sent, st)
			}
		},
	}
}

// ---------------------------------------------------------------------
// Q — the /v2 query data plane: cursor iteration vs range flattening in
// the store, batch fan-in over HTTP, and row-at-a-time streaming.
// ---------------------------------------------------------------------

// Q1 — reading one large stored range. Query materializes the whole
// range in a single slice (O(range) memory per call); the iterator
// walks it holding a bounded refill of head points (O(page) memory),
// which is the primitive under /v2 pagination and the NDJSON/CSV
// streams. Both produce the same rows — the contrast is allocation
// shape. The block arms read the same rows cut into one block file:
// iter-block walks them through the engine's scanner, and decode-block
// is the whole-chunk decode the scanner's per-sample cost is judged
// against.
func BenchmarkQ1_TsdbIteratorVsQueryFlatten(b *testing.B) {
	const n = 131072
	key := tsdb.SeriesKey{Device: "urn:d", Quantity: "temperature"}
	s := memEngine(b)
	fillSeries(b, s, key, n)
	from, to := benchT0, benchT0.Add(n*time.Second)
	b.Run("op=query-flatten", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			samples, err := s.Query(key, from, to)
			if err != nil || len(samples) != n {
				b.Fatalf("flatten returned %d samples, err %v", len(samples), err)
			}
		}
	})
	for _, page := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("op=iter/page=%d", page), func(b *testing.B) {
			walk := q1IterOp(b, page).fn
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				walk()
			}
		})
	}
	// A 1,048,576-sample head: a page's refill starts at the segment
	// holding its cursor, so a sample costs what it does in a short head.
	b.Run("op=iter-head/samples=1048576/page=1000", func(b *testing.B) {
		const big = 1 << 20
		s := memEngine(b)
		fillSeries(b, s, key, big)
		walk := iterOp(b, s, key, big, 1000).fn
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			walk()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*big), "ns/sample")
	})
	b.Run("op=iter-block/page=1000", func(b *testing.B) {
		walk := q1BlockIterOp(b, 1000).fn
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			walk()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
	})
	b.Run("op=decode-block", func(b *testing.B) {
		blk, key := q1Block(b)
		pts := make([]block.Point, 0, n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if pts, err = blk.Points(pts[:0], key, math.MinInt64, math.MaxInt64); err != nil || len(pts) != n {
				b.Fatalf("decode returned %d points, err %v", len(pts), err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
	})
}

// q1IterOp is Q1's iterator arm: one call walks a 131,072-sample
// in-memory series through Iter, copying head points page at a time.
// TestHotPathAllocCeilings holds its heap bytes per sample.
func q1IterOp(tb testing.TB, page int) hotPathOp {
	const n = 131072
	key := tsdb.SeriesKey{Device: "urn:d", Quantity: "temperature"}
	s := memEngine(tb)
	fillSeries(tb, s, key, n)
	return iterOp(tb, s, key, n, page)
}

// q1BlockIterOp is the iterator arm over q1BlockEngine's block.
// TestHotPathAllocCeilings holds its heap bytes per sample.
func q1BlockIterOp(tb testing.TB, page int) hotPathOp {
	s, key := q1BlockEngine(tb)
	return iterOp(tb, s, key, 131072, page)
}

// iterOp walks the n samples of key stored from benchT0 through s.Iter
// (perOp is the sample).
func iterOp(tb testing.TB, s *tsdb.Sharded, key tsdb.SeriesKey, n, page int) hotPathOp {
	from, to := benchT0, benchT0.Add(time.Duration(n)*time.Second)
	return hotPathOp{perOp: n, heapBytes: true, fn: func() {
		it := s.Iter(key, from, to, page)
		rows := 0
		for _, ok := it.Next(); ok; _, ok = it.Next() {
			rows++
		}
		if err := it.Err(); err != nil || rows != n {
			tb.Fatalf("iterator returned %d rows, err %v", rows, err)
		}
	}}
}

// q1BlockEngine is a one-shard durable engine holding Q1's 131,072
// samples in one block: they are far older than the head window, so
// one compaction cuts them all.
func q1BlockEngine(tb testing.TB) (*tsdb.Sharded, tsdb.SeriesKey) {
	const n = 131072
	key := tsdb.SeriesKey{Device: "urn:d", Quantity: "temperature"}
	s, err := tsdb.OpenSharded(tsdb.ShardedOptions{Dir: tb.TempDir(), Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	fillSeries(tb, s, key, n)
	if err := s.CompactAll(); err != nil {
		tb.Fatal(err)
	}
	if st := s.ShardStatus(0); st.Blocks != 1 || st.BlockSamples != n {
		tb.Fatalf("rows not in one block: %+v", st)
	}
	return s, key
}

// q1Block opens the block file of q1BlockEngine, closed with the test.
func q1Block(tb testing.TB) (*block.Block, block.Key) {
	s, key := q1BlockEngine(tb)
	names, err := tsdb.BlockFiles(s.ShardDir(0))
	if err != nil || len(names) != 1 {
		tb.Fatalf("block files %v, err %v", names, err)
	}
	blk, err := block.Open(filepath.Join(s.ShardDir(0), names[0]))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = blk.Close() })
	return blk, block.Key{Device: key.Device, Quantity: key.Quantity}
}

// benchV2Service builds a measurements DB (legacy aliases off, as the
// binaries now run) pre-filled with devices×perSeries samples, serves
// it over HTTP, and returns the /v2 sub-client.
func benchV2Service(b *testing.B, devices, perSeries int) (*client.Measurements, func(int) string) {
	b.Helper()
	svc := measuredb.New(measuredb.Options{DisableLegacyAliases: true})
	b.Cleanup(svc.Close)
	device := func(d int) string {
		return fmt.Sprintf("urn:district:turin/building:b%03d/device:d0", d)
	}
	store := svc.Store()
	for d := 0; d < devices; d++ {
		key := tsdb.SeriesKey{Device: device(d), Quantity: "temperature"}
		for i := 0; i < perSeries; i++ {
			if err := store.Append(key, tsdb.Sample{At: benchT0.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	}
	ts := httptest.NewServer(svc.Handler())
	b.Cleanup(ts.Close)
	c := &client.Client{MaxAttempts: 1}
	return c.Measurements(ts.URL), device
}

// Q2 — the dashboard-poll shape that motivated the redesign: reading a
// summary of many series. Per-series issues one /v2 aggregate round
// trip per device; batch resolves every selector in one POST /v2/query
// with aggregate pushdown.
func BenchmarkQ2_V2BatchQueryFanIn(b *testing.B) {
	const devices, perSeries = 120, 50
	mc, device := benchV2Service(b, devices, perSeries)
	ctx := context.Background()

	req := measuredb.BatchQuery{Aggregate: true}
	for d := 0; d < devices; d++ {
		req.Selectors = append(req.Selectors, measuredb.SeriesSelector{Device: device(d), Quantity: "temperature"})
	}
	b.Run(fmt.Sprintf("op=batch-aggregate/selectors=%d", devices), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rsp, err := mc.Query(ctx, req)
			if err != nil || rsp.Series != devices {
				b.Fatalf("batch resolved %+v, err %v", rsp, err)
			}
		}
	})
	b.Run(fmt.Sprintf("op=per-series-aggregate/requests=%d", devices), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for d := 0; d < devices; d++ {
				agg, err := mc.Aggregate(ctx, device(d), "temperature")
				if err != nil || agg.Count != perSeries {
					b.Fatalf("aggregate of device %d = %+v, err %v", d, agg, err)
				}
			}
		}
	})
}

// Q3 — shipping one large range to a client: auto-depaginating JSON
// pages vs one row-at-a-time NDJSON stream. Neither endpoint holds the
// range in memory; the stream also amortizes the HTTP round trips.
func BenchmarkQ3_V2SamplesTransport(b *testing.B) {
	const rows = 50000
	mc, device := benchV2Service(b, 1, rows)
	ctx := context.Background()

	b.Run("op=json-pages/limit=1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it := mc.Iter(ctx, device(0), "temperature", client.WithLimit(1000))
			n := 0
			for _, ok := it.Next(); ok; _, ok = it.Next() {
				n++
			}
			if err := it.Err(); err != nil || n != rows {
				b.Fatalf("depaginated %d rows over %d pages, err %v", n, it.Pages(), err)
			}
		}
	})
	b.Run("op=ndjson-stream", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := mc.Stream(ctx, device(0), "temperature")
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for _, ok := st.Next(); ok; _, ok = st.Next() {
				n++
			}
			err = st.Err()
			st.Close()
			if err != nil || n != rows {
				b.Fatalf("streamed %d rows, err %v", n, err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// I — the /v2 ingest data plane: the ingest transports.
// ---------------------------------------------------------------------

// I2 — shipping samples to the measurements DB over HTTP: the batched
// JSON ingest and the NDJSON streaming writer. Reported time is per row
// delivered and stored.
func BenchmarkI2_V2IngestTransport(b *testing.B) {
	newSvc := func(b *testing.B) (*measuredb.Service, string) {
		b.Helper()
		svc := measuredb.New(measuredb.Options{DisableLegacyAliases: true})
		b.Cleanup(svc.Close)
		ts := httptest.NewServer(svc.Handler())
		b.Cleanup(ts.Close)
		return svc, ts.URL
	}
	row := func(i int) measuredb.Point {
		return measuredb.Point{
			Device:   fmt.Sprintf("urn:district:turin/building:b%03d/device:d0", i%64),
			Quantity: "temperature",
			At:       benchT0.Add(time.Duration(i) * time.Second),
			Value:    float64(i),
		}
	}
	ctx := context.Background()

	b.Run("op=json-batch/rows=1000", func(b *testing.B) {
		svc, url := newSvc(b)
		ic := (&client.Client{MaxAttempts: 1}).Ingest(url)
		b.ResetTimer()
		for sent := 0; sent < b.N; {
			n := 1000
			if left := b.N - sent; left < n {
				n = left
			}
			rows := make([]measuredb.Point, n)
			for i := range rows {
				rows[i] = row(sent + i)
			}
			res, err := ic.Append(ctx, rows)
			if err != nil || res.Rejected != 0 {
				b.Fatalf("append: %+v, err %v", res, err)
			}
			sent += n
		}
		b.StopTimer()
		if svc.Stats().Ingested != uint64(b.N) {
			b.Fatalf("ingested %d of %d", svc.Stats().Ingested, b.N)
		}
	})
	b.Run("op=ndjson-stream", func(b *testing.B) {
		svc, url := newSvc(b)
		ic := (&client.Client{MaxAttempts: 1}).Ingest(url)
		b.ResetTimer()
		st, err := ic.Stream(ctx)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if err := st.Write(row(i)); err != nil {
				b.Fatal(err)
			}
		}
		res, err := st.Close()
		b.StopTimer()
		if err != nil || res.Accepted != b.N {
			b.Fatalf("stream summary %+v, err %v", res, err)
		}
		_ = svc
	})
}

// ---------------------------------------------------------------------
// D — the durable storage layer. D1 prices the WAL under each fsync
// policy against the in-memory engine (same batch shape as the ingest
// path ships: per-device runs through the shard queues). D2 measures
// boot-time recovery against log size — the cost a deployment pays per
// restart when snapshots are disabled, i.e. the worst case the
// snapshot cadence exists to bound.
// ---------------------------------------------------------------------

// durBenchRows fills rows with per-device runs, timestamps advancing
// per iteration so the stores never fold spills.
func durBenchRows(rows []tsdb.Row, keys []tsdb.SeriesKey, iter int) {
	run := len(rows) / len(keys)
	for j := range rows {
		rows[j] = tsdb.Row{
			Key: keys[j/run%len(keys)],
			Sample: tsdb.Sample{
				At:    benchT0.Add(time.Duration(iter*len(rows)+j) * time.Millisecond),
				Value: float64(j),
			},
		}
	}
}

func BenchmarkD1_WALAppend(b *testing.B) {
	const batch = 512
	keys := make([]tsdb.SeriesKey, 16)
	for d := range keys {
		keys[d] = tsdb.SeriesKey{
			Device:   fmt.Sprintf("urn:district:turin/building:b%02d/device:w%d", d/4, d%4),
			Quantity: "temperature",
		}
	}
	for _, mode := range []string{"mem", "none", "interval", "always"} {
		b.Run("fsync="+mode, func(b *testing.B) {
			opts := tsdb.ShardedOptions{
				Shards:        4,
				Store:         tsdb.Options{MaxSamplesPerSeries: 1 << 16},
				SnapshotEvery: -1, // isolate the append path
			}
			if mode != "mem" {
				m, err := wal.ParseMode(mode)
				if err != nil {
					b.Fatal(err)
				}
				opts.Dir = b.TempDir()
				opts.Fsync = m
			}
			eng, err := tsdb.OpenSharded(opts)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			rows := make([]tsdb.Row, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				durBenchRows(rows, keys, i)
				if errs := eng.AppendBatch(rows); errs != nil {
					b.Fatal(errs[0])
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(batch), "rows/op")
		})
	}
}

func BenchmarkD2_Recovery(b *testing.B) {
	const batch = 1024
	keys := make([]tsdb.SeriesKey, 32)
	for d := range keys {
		keys[d] = tsdb.SeriesKey{
			Device:   fmt.Sprintf("urn:district:turin/building:b%02d/device:r%d", d/4, d%4),
			Quantity: "temperature",
		}
	}
	for _, total := range []int{1 << 14, 1 << 17} {
		b.Run(fmt.Sprintf("rows=%d", total), func(b *testing.B) {
			dir := b.TempDir()
			opts := tsdb.ShardedOptions{
				Shards:        4,
				Store:         tsdb.Options{MaxSamplesPerSeries: 1 << 20},
				Dir:           dir,
				SnapshotEvery: -1, // pure log replay: the recovery worst case
			}
			eng, err := tsdb.OpenSharded(opts)
			if err != nil {
				b.Fatal(err)
			}
			rows := make([]tsdb.Row, batch)
			for i := 0; i < total/batch; i++ {
				durBenchRows(rows, keys, i)
				if errs := eng.AppendBatch(rows); errs != nil {
					b.Fatal(errs[0])
				}
			}
			eng.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				re, err := tsdb.OpenSharded(opts)
				if err != nil {
					b.Fatal(err)
				}
				if got := re.Stats().Samples; got != total {
					b.Fatalf("recovered %d rows, want %d", got, total)
				}
				re.Close()
			}
		})
	}
}

// D5 — a keyed /v2/ingest request on a durable 8-shard node under
// -fsync always, its 64 rows on one shard or spread over all eight: the
// price of a request's shard spread on the durable write path. Reported
// time is per request, through the node's handler (no socket).
func BenchmarkD5_KeyedIngestShardSpread(b *testing.B) {
	const rows, shards = 64, 8
	var byShard [shards][]string
	for i, filled := 0, 0; filled < shards; i++ {
		dev := fmt.Sprintf("urn:district:turin/building:b%02d/device:k%d", i%16, i)
		if sh := tsdb.ShardOf(dev, shards); len(byShard[sh]) < rows {
			byShard[sh] = append(byShard[sh], dev)
			if len(byShard[sh]) == rows {
				filled++
			}
		}
	}
	for _, spread := range []int{1, shards} {
		b.Run(fmt.Sprintf("shards=%d", spread), func(b *testing.B) {
			svc, err := measuredb.Open(measuredb.Options{DataDir: b.TempDir(), Fsync: wal.FsyncAlways, Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(svc.Close)
			h := svc.Handler()
			pts := make([]measuredb.Point, rows)
			var body []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range pts {
					pts[j] = measuredb.Point{Device: byShard[j%spread][j], Quantity: "temperature",
						At: benchT0.Add(time.Duration(i) * time.Second), Value: float64(j)}
				}
				body, _ = measuredb.AppendBatch(body[:0], "rows", pts)
				req := httptest.NewRequest(http.MethodPost, "/v2/ingest", bytes.NewReader(body))
				req.Header.Set("Idempotency-Key", fmt.Sprintf("d5-%d", i))
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// O — the observability tax. O1 prices full instrumentation on the
// durable write path: the same AppendBatch waves with metrics off (nil
// registry, no stage collector — every observation site nil-guards to
// nothing) versus fully on (per-shard WAL/fsync histograms, commit
// group sizing, queue-depth gauges, and a per-request stage collector,
// the shape every traced /v2/ingest pays). The acceptance bar is <= 3%
// overhead per row.
// ---------------------------------------------------------------------

func BenchmarkO1_ObsOverhead(b *testing.B) {
	const batch = 512
	keys := make([]tsdb.SeriesKey, 16)
	for d := range keys {
		keys[d] = tsdb.SeriesKey{
			Device:   fmt.Sprintf("urn:district:turin/building:b%02d/device:o%d", d/4, d%4),
			Quantity: "temperature",
		}
	}
	run := func(b *testing.B, reg *obs.Registry, staged bool) {
		eng, err := tsdb.OpenSharded(tsdb.ShardedOptions{
			Shards:        8,
			Store:         tsdb.Options{MaxSamplesPerSeries: 1 << 20},
			Dir:           b.TempDir(),
			Fsync:         wal.FsyncNone,
			SnapshotEvery: -1,
			Metrics:       reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		rows := make([]tsdb.Row, batch)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			durBenchRows(rows, keys, i)
			var errs []error
			if staged {
				errs, _ = eng.AppendBatchNote(rows, &obs.Stages{}, nil)
			} else {
				errs = eng.AppendBatch(rows)
			}
			if errs != nil {
				b.Fatal(errs[0])
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(batch), "rows/op")
	}
	b.Run("obs=off", func(b *testing.B) { run(b, nil, false) })
	b.Run("obs=on", func(b *testing.B) { run(b, obs.NewRegistry(), true) })
}

// ---------------------------------------------------------------------
// C1 — cluster router: the /v2 data plane through the coordinator as
// the cluster widens. In-memory nodes (8 shards each) behind one
// coordinator, shard ownership round-robin; op=ingest ships 512-row
// keyed batches (ns/op is per row), op=query runs a glob aggregate
// batch query over a preloaded corpus (ns/op is per query). nodes=1 is
// the router-overhead baseline: same wire path, no fan-out.
// ---------------------------------------------------------------------

// benchCluster boots nodes in-memory cluster nodes behind a
// coordinator, shards owned round-robin.
func benchCluster(b *testing.B, nodes int) (string, func()) {
	b.Helper()
	const shards = 8
	m := master.New(master.Options{})
	maddr, err := m.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	masterURL := "http://" + maddr
	var svcs []*measuredb.Service
	var nodeURLs []string
	for i := 0; i < nodes; i++ {
		s, err := measuredb.Open(measuredb.Options{
			Shards:               shards,
			DisableLegacyAliases: true,
			Cluster:              &measuredb.ClusterOptions{Master: masterURL},
		})
		if err != nil {
			b.Fatal(err)
		}
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		s.SetClusterSelf("http://" + addr)
		svcs = append(svcs, s)
		nodeURLs = append(nodeURLs, "http://"+addr)
	}
	owners := make([]string, shards)
	for i := range owners {
		owners[i] = nodeURLs[i%nodes]
	}
	if _, err := m.ClusterMap().Set(cluster.Map{Shards: shards, Owners: owners}); err != nil {
		b.Fatal(err)
	}
	coord, err := measuredb.OpenCoordinator(measuredb.CoordinatorOptions{Master: masterURL})
	if err != nil {
		b.Fatal(err)
	}
	caddr, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	return "http://" + caddr, func() {
		coord.Close()
		for _, s := range svcs {
			s.Close()
		}
		m.Close()
	}
}

func BenchmarkC1_ClusterRouter(b *testing.B) {
	const (
		devices  = 256
		batchLen = 512
	)
	devs := make([]string, devices)
	for d := range devs {
		devs[d] = fmt.Sprintf("urn:district:turin/building:b%03d/device:d%d", d/4, d%4)
	}
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d/op=ingest", nodes), func(b *testing.B) {
			coordURL, cleanup := benchCluster(b, nodes)
			defer cleanup()
			ing := (&client.Client{MasterURL: coordURL}).Ingest(coordURL)
			ctx := context.Background()
			rows := make([]measuredb.Point, 0, batchLen)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows = append(rows, measuredb.Point{
					Device: devs[i%devices], Quantity: "temperature",
					At: benchT0.Add(time.Duration(i/devices) * time.Second), Value: float64(i),
				})
				if len(rows) == batchLen || i == b.N-1 {
					if res, err := ing.Append(ctx, rows); err != nil || res.Rejected != 0 {
						b.Fatalf("append: %+v, %v", res, err)
					}
					rows = rows[:0]
				}
			}
		})
		b.Run(fmt.Sprintf("nodes=%d/op=query", nodes), func(b *testing.B) {
			coordURL, cleanup := benchCluster(b, nodes)
			defer cleanup()
			ctx := context.Background()
			ing := (&client.Client{MasterURL: coordURL}).Ingest(coordURL)
			var rows []measuredb.Point
			for d := range devs {
				for j := 0; j < 16; j++ {
					rows = append(rows, measuredb.Point{
						Device: devs[d], Quantity: "temperature",
						At: benchT0.Add(time.Duration(j) * time.Second), Value: float64(j),
					})
				}
				if len(rows) >= 1024 {
					if _, err := ing.Append(ctx, rows); err != nil {
						b.Fatal(err)
					}
					rows = rows[:0]
				}
			}
			if len(rows) > 0 {
				if _, err := ing.Append(ctx, rows); err != nil {
					b.Fatal(err)
				}
			}
			tr := &api.Transport{}
			req := measuredb.BatchQuery{
				Selectors: []measuredb.SeriesSelector{{Device: "*", Quantity: "temperature"}},
				Aggregate: true,
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var out measuredb.BatchResponse
				if err := tr.PostJSON(ctx, coordURL+"/v2/query", req, &out); err != nil {
					b.Fatal(err)
				}
				if out.Series != devices {
					b.Fatalf("series = %d, want %d", out.Series, devices)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// D3/D4 — the columnar block tier. D3 prices the block codec against
// the legacy snapshot codec on the same quantized sensor walk (0.25
// steps — the shape real metering data has) and times the full
// compaction cycle: cut + rollups + head snapshot + WAL truncate. D4
// prices a month-range aggregate served by the block index/rollup tier
// against the same aggregate raw-scanned from memory.
// ---------------------------------------------------------------------

// blockBenchRows builds a deterministic quantized random walk: one row
// per second per series, values stepping by ±0.25 like a discretized
// sensor. Quantized deltas are the case the XOR float codec exists for.
func blockBenchRows(keys []tsdb.SeriesKey, perSeries int, base time.Time) []tsdb.Row {
	rows := make([]tsdb.Row, 0, len(keys)*perSeries)
	vals := make([]float64, len(keys))
	for d := range vals {
		vals[d] = 20 + float64(d)
	}
	for i := 0; i < perSeries; i++ {
		for d, k := range keys {
			switch (i * 7919 / (d + 1)) % 3 {
			case 0:
				vals[d] += 0.25
			case 1:
				vals[d] -= 0.25
			}
			rows = append(rows, tsdb.Row{Key: k, Sample: tsdb.Sample{
				At: base.Add(time.Duration(i) * time.Second), Value: vals[d]}})
		}
	}
	return rows
}

func BenchmarkD3_BlockCodecFootprint(b *testing.B) {
	const perSeries = 8192
	keys := make([]tsdb.SeriesKey, 32)
	for d := range keys {
		keys[d] = tsdb.SeriesKey{
			Device:   fmt.Sprintf("urn:district:turin/building:b%02d/device:c%d", d/4, d%4),
			Quantity: "temperature",
		}
	}
	base := time.Now().UTC().Add(-6 * time.Hour).Truncate(time.Second)
	rows := blockBenchRows(keys, perSeries, base)
	total := len(rows)
	for _, codec := range []string{"snapshot", "block"} {
		b.Run("codec="+codec, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				opts := tsdb.ShardedOptions{
					Shards:        1,
					Store:         tsdb.Options{MaxSamplesPerSeries: 1 << 20},
					Dir:           dir,
					SnapshotEvery: -1, // only the explicit compaction below
				}
				if codec == "snapshot" {
					opts.Blocks = tsdb.BlockPolicy{HeadWindow: -1} // legacy full-store snapshots
				} else {
					opts.Blocks = tsdb.BlockPolicy{HeadWindow: time.Minute}
				}
				eng, err := tsdb.OpenSharded(opts)
				if err != nil {
					b.Fatal(err)
				}
				for off := 0; off < len(rows); off += 4096 {
					end := off + 4096
					if end > len(rows) {
						end = len(rows)
					}
					if errs := eng.AppendBatch(rows[off:end]); errs != nil {
						b.Fatal(errs[0])
					}
				}
				b.StartTimer()
				if err := eng.CompactAll(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				pattern := "*.snap"
				if codec == "block" {
					pattern = "*.blk"
				}
				files, err := filepath.Glob(filepath.Join(dir, "shard-0000", pattern))
				if err != nil || len(files) == 0 {
					b.Fatalf("no %s files after compaction (%v)", pattern, err)
				}
				var onDisk int64
				for _, f := range files {
					st, err := os.Stat(f)
					if err != nil {
						b.Fatal(err)
					}
					onDisk += st.Size()
				}
				b.ReportMetric(float64(onDisk)/float64(total), "bytes/sample")
				eng.Close()
			}
			b.ReportMetric(float64(total), "rows/op")
		})
	}
}

func BenchmarkD4_RollupAggregate(b *testing.B) {
	// One sample per minute for 30 days, ending a day ago: the
	// month-on-a-dashboard query shape.
	const perSeries = 43200
	key := tsdb.SeriesKey{Device: "urn:district:turin/building:b01/device:m0", Quantity: "temperature"}
	base := time.Now().UTC().Add(-31 * 24 * time.Hour).Truncate(time.Minute)
	rows := make([]tsdb.Row, perSeries)
	v := 20.0
	for i := range rows {
		switch (i * 7919) % 3 {
		case 0:
			v += 0.25
		case 1:
			v -= 0.25
		}
		rows[i] = tsdb.Row{Key: key, Sample: tsdb.Sample{
			At: base.Add(time.Duration(i) * time.Minute), Value: v}}
	}
	from, to := base.Add(-time.Hour), base.Add(perSeries*time.Minute+time.Hour)

	b.Run("path=rollup", func(b *testing.B) {
		opts := tsdb.ShardedOptions{
			Shards:        1,
			Store:         tsdb.Options{MaxSamplesPerSeries: 1 << 20},
			Dir:           b.TempDir(),
			SnapshotEvery: -1,
			Blocks:        tsdb.BlockPolicy{HeadWindow: time.Minute},
		}
		eng, err := tsdb.OpenSharded(opts)
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close()
		if errs := eng.AppendBatch(rows); errs != nil {
			b.Fatal(errs[0])
		}
		if err := eng.CompactAll(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agg, err := eng.Aggregate(key, from, to)
			if err != nil || agg.Count != perSeries {
				b.Fatalf("aggregate: %+v, %v", agg, err)
			}
		}
	})
	b.Run("path=raw", func(b *testing.B) {
		mem := memEngine(b)
		if errs := mem.AppendBatch(rows); errs != nil {
			b.Fatal(errs[0])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			agg, err := mem.Aggregate(key, from, to)
			if err != nil || agg.Count != perSeries {
				b.Fatalf("aggregate: %+v, %v", agg, err)
			}
		}
	})
}

// ---------------------------------------------------------------------
// H — the hot-path allocation overhaul: per-row allocation budgets on
// the /v2 ingest decode and query encode planes (pooled scanner and
// row encoders vs the reflecting encoding/json paths they replaced),
// and the generation-keyed result cache's cached-vs-uncached latency.
// TestHotPathAllocCeilings runs the same bodies once and fails on a
// per-row (or per-response) allocation above its ceiling.
// ---------------------------------------------------------------------

// discardResponseWriter sinks a response body without buffering it, so
// MemStats deltas around a handler call measure the handler, not the
// recorder.
type discardResponseWriter struct {
	h      http.Header
	status int
	wire   int // body bytes written
}

func (d *discardResponseWriter) Header() http.Header { return d.h }

func (d *discardResponseWriter) Write(p []byte) (int, error) {
	d.wire += len(p)
	return len(p), nil
}

func (d *discardResponseWriter) WriteHeader(status int) {
	if d.status == 0 {
		d.status = status
	}
}

// hotPathOp is one hot-path body, shared by the benchmark that reports
// on it and by TestHotPathAllocCeilings: fn processes perOp units (rows,
// responses) per call, verify (optional) checks the end state once the
// calls are done.
type hotPathOp struct {
	perOp  int
	fn     func()
	verify func()
	// heapBytes makes the op's budget heap bytes per unit
	// (runtime.MemStats.TotalAlloc) instead of allocations.
	heapBytes bool
}

// mallocsDuring returns the heap allocations fn performs, counted from
// the MemStats delta after a GC.
func mallocsDuring(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// benchAllocsPer times op.fn and reports steady-state heap allocations
// (heap bytes for a heapBytes op) per unit. One untimed warm-up call
// primes pools, interners, and lazily created metrics so the figure is
// the per-unit budget, not first-request setup.
func benchAllocsPer(b *testing.B, unit string, op hotPathOp) {
	b.Helper()
	op.fn()
	b.ReportAllocs()
	measure, metric := mallocsDuring, "allocs/"+unit
	if op.heapBytes {
		measure, metric = heapBytesDuring, "B/"+unit
	}
	n := measure(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.fn()
		}
		b.StopTimer()
	})
	if op.verify != nil {
		op.verify()
	}
	units := float64(b.N) * float64(op.perOp)
	b.ReportMetric(float64(n)/units, metric)
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(units/secs, unit+"s/s")
	}
}

// TestHotPathAllocCeilings is the allocation-regression gate for the
// hot paths: it runs the H1/H2/S3/gzip benchmark bodies a fixed number
// of times and fails when allocations per row (or response) exceed the
// ceiling. The ceilings are acceptance bars, not measured values: H1
// measures about 0.07 allocs/row, H2 0.003 and S3 0.9 (its request's
// fixed cost is spread over only 64 rows), so the headroom absorbs pool
// warm-up and scheduling noise but not a reintroduced per-row
// allocation, which costs at least 1.0. The gzip
// bodies measure 4-5 allocs/response — a writer built per response
// costs about 20 more — and run 200 times, because a GC between the
// warm-up and a single measured response can empty the writer pool and
// bill that response for a new writer. The H4 bodies are per call: a
// client append of 1000 rows measures 38 allocations (two of them the
// encode, the rest the request), a 900-row samples page through the
// node's handler 59 (one of them the body) — encoding/json paid 1,034
// and 904 — and a streamed row read by the client 0.002. A 64-series
// glob aggregate through the node's /v2/query measures 147 allocations
// a response (218 while a BatchResponse was built and reflected over);
// one more allocation per series would cost 64. The same answer read by
// the Go client's Measurements.Query measures 46 allocations a call,
// four of them the in-place decode and the rest the request
// (json.Unmarshal: 381), so a per-series allocation would show here
// too. One series of that tile on a durable engine, an aggregate over a
// block the range covers in part plus the head, measures 0 allocations
// a call (2 while the chunk decoder and the captured-block slice were
// heap-allocated); it runs 200 times for the same pool reason as gzip.
// The durable write path is gated in heap bytes, not allocations: its
// regressions are buffers grown per commit group and per-sample copies,
// few allocations but many bytes. 300 interleaved 1000-row batches
// over 512 series on one durable shard, four compaction cycles
// included, measure 132 B a row — the head's 16 KB segment arrays,
// which a cut empties and the next rows refill, are 128 of them — and
// 600-640 B a row while head samples held a time.Time, each commit
// group grew its WAL record buffer from nil and a cut copied every
// series into a map. A 131,072-sample head walk in 1000-row refills is
// gated in heap bytes too: it measures 0.0075 B a sample, the scanner
// itself (33 B while every page built its own Samples, 164 B while the
// head also built a page the engine then re-merged), and the same walk
// over one block file 0.0013 B.
// CSV encode has no ceiling: its per-row conversions through
// encoding/csv are benchmarked for reference only.
func TestHotPathAllocCeilings(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are only meaningful in a plain, full run")
	}
	for _, tc := range []struct {
		name    string
		ceiling float64 // allocs (heap bytes for a heapBytes op) per row or response
		calls   int
		op      func(testing.TB) hotPathOp
	}{
		{"H1 ingest ndjson", 2.0, 1, func(tb testing.TB) hotPathOp { return h1IngestOp(tb, true, true) }},
		{"H1 ingest json-batch", 2.0, 1, func(tb testing.TB) hotPathOp { return h1IngestOp(tb, false, true) }},
		{"H2 query encode ndjson", 1.0, 1, func(tb testing.TB) hotPathOp { return h2QueryEncodeOp(tb, "ndjson") }},
		{"S3 ingest publish", 3.0, 1, s3LivePathOp},
		{"gzip 100B", 8.0, 200, func(tb testing.TB) hotPathOp { op, _ := gzipOp(tb, 1); return op }},
		{"gzip 8KiB", 8.0, 200, func(tb testing.TB) hotPathOp { op, _ := gzipOp(tb, 177); return op }},
		{"api chain 204", 13.0, 200, apiChainOp},
		{"client append 1000 rows", 64.0, 20, func(tb testing.TB) hotPathOp { return clientAppendOp(tb, false) }},
		{"client stream row", 0.1, 1, func(tb testing.TB) hotPathOp { return clientStreamOp(tb, false) }},
		{"samples page 900 rows", 96.0, 20, func(tb testing.TB) hotPathOp { return samplesPageEncodeOp(tb, false) }},
		{"batch query json", 180.0, 20, batchQueryJSONOp},
		{"batch answer decode", 64.0, 20, func(tb testing.TB) hotPathOp { return clientBatchQueryOp(tb, false) }},
		{"block aggregate", 0.5, 200, blockAggregateOp},
		{"durable write bytes", 200.0, 300, durableWriteOp},
		{"head iter bytes", 100.0, 20, func(tb testing.TB) hotPathOp { return q1IterOp(tb, 1000) }},
		{"block iter bytes", 100.0, 20, func(tb testing.TB) hotPathOp { return q1BlockIterOp(tb, 1000) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			op := tc.op(t)
			op.fn() // warm-up, as in benchAllocsPer
			measure, unit := mallocsDuring, "allocs"
			if op.heapBytes {
				measure, unit = heapBytesDuring, "heap bytes"
			}
			n := measure(func() {
				for i := 0; i < tc.calls; i++ {
					op.fn()
				}
			})
			if op.verify != nil {
				op.verify()
			}
			if per := float64(n) / float64(tc.calls*op.perOp); per > tc.ceiling {
				t.Fatalf("%.3f %s per unit exceeds the ceiling %.1f", per, unit, tc.ceiling)
			}
		})
	}
}

// heapBytesDuring returns the heap bytes fn allocates, counted from the
// MemStats TotalAlloc delta after a GC.
func heapBytesDuring(fn func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// durableWriteOp is the write path in bytes: one call is a 1000-row
// AppendBatch on a durable one-shard engine, rows interleaved over 512
// series (a different series every row, as a poll cycle over many
// devices ships them), each series one second further on per sweep,
// backfilling from 30 days ago. The default snapshot cadence runs a
// compaction cycle every 65536 rows, which cuts every row into a block
// (all are older than the head window), so 300 calls include four
// cycles: WAL encode, head apply, block cut and head snapshot.
func durableWriteOp(tb testing.TB) hotPathOp {
	const series, batch = 512, 1000
	eng, err := tsdb.OpenSharded(tsdb.ShardedOptions{Dir: tb.TempDir(), Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	keys := make([]tsdb.SeriesKey, series)
	for i := range keys {
		keys[i] = tsdb.SeriesKey{Device: fmt.Sprintf("urn:district:turin/building:b%03d/device:d%d", i/2, i%2), Quantity: "temperature"}
	}
	base := time.Now().Add(-30 * 24 * time.Hour).Truncate(time.Second)
	rows := make([]tsdb.Row, batch)
	n := 0
	return hotPathOp{perOp: batch, heapBytes: true, fn: func() {
		for i := range rows {
			rows[i] = tsdb.Row{Key: keys[n%series], Sample: tsdb.Sample{At: base.Add(time.Duration(n/series) * time.Second), Value: float64(n%89) + 0.5}}
			n++
		}
		if errs := eng.AppendBatch(rows); errs != nil {
			tb.Fatal(errs[0])
		}
	}, verify: func() {
		if st := eng.ShardStatus(0); st.Samples != n || (n > 1<<16 && st.Blocks == 0) {
			tb.Fatalf("after %d rows: %+v", n, st)
		}
	}}
}

// BenchmarkDurableWriteBytes reports durableWriteOp's heap bytes per row
// (TestHotPathAllocCeilings holds the ceiling).
func BenchmarkDurableWriteBytes(b *testing.B) {
	benchAllocsPer(b, "row", durableWriteOp(b))
}

// H1 — ingest decode allocations. One op is a full POST /v2/ingest of
// 8192 rows through the service handler (routing and envelope
// included); allocs/row is the steady-state heap cost of decoding,
// validating, and applying one row. The in-place decoder's budget is
// <= 2 allocs/row on both transports. The fallback arm is the other
// side of the decoder's one choice, on record without a ceiling: the
// same rows, each made non-canonical by one escaped string or one
// unknown field, so encoding/json decodes the whole body.
func BenchmarkH1_IngestAllocs(b *testing.B) {
	b.Run("transport=ndjson", func(b *testing.B) { benchAllocsPer(b, "row", h1IngestOp(b, true, true)) })
	b.Run("transport=json-batch", func(b *testing.B) { benchAllocsPer(b, "row", h1IngestOp(b, false, true)) })
	b.Run("transport=json-batch-fallback", func(b *testing.B) { benchAllocsPer(b, "row", h1IngestOp(b, false, false)) })
}

func h1IngestOp(tb testing.TB, ndjson, canonical bool) hotPathOp {
	const (
		devices   = 64
		rowsPerOp = 8192
	)
	var body bytes.Buffer
	contentType := measuredb.NDJSONType
	if !ndjson {
		contentType = "application/json"
		body.WriteString(`{"rows":[`)
	}
	for i := 0; i < rowsPerOp; i++ {
		if !ndjson && i > 0 {
			body.WriteByte(',')
		}
		quantity, extra := "temperature", ""
		if !canonical {
			if i%2 == 0 {
				quantity = `temperatur\u0065`
			} else {
				extra = `,"unit":"C"`
			}
		}
		fmt.Fprintf(&body, `{"device":"urn:district:turin/building:b%03d/device:d0","quantity":"%s","at":"2015-03-09T%02d:%02d:%02dZ","value":%d.25%s}`,
			i%devices, quantity, 10+i/3600%8, i/60%60, i%60, i%97, extra)
		if ndjson {
			body.WriteByte('\n')
		}
	}
	if !ndjson {
		body.WriteString(`]}`)
	}

	svc := measuredb.New(measuredb.Options{
		DisableLegacyAliases: true,
		Engine: tsdb.NewSharded(tsdb.ShardedOptions{
			Store: tsdb.Options{MaxSamplesPerSeries: 1 << 22},
		}),
	})
	tb.Cleanup(svc.Close)
	h := svc.Handler()
	return hotPathOp{perOp: rowsPerOp, fn: func() {
		req := httptest.NewRequest("POST", "/v2/ingest", bytes.NewReader(body.Bytes()))
		req.Header.Set("Content-Type", contentType)
		w := &discardResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.status != 200 {
			tb.Fatalf("ingest status %d", w.status)
		}
	}}
}

// H2 — query encode allocations. One op streams a 50000-row series out
// of GET /v2/.../samples through the service handler into a discarding
// writer; allocs/row is the steady-state encode cost per emitted row.
// The pooled append encoders' budget is <= 1 alloc/row on NDJSON (CSV
// pays two per-row string conversions to encoding/csv and is reported
// for reference, without a ceiling).
func BenchmarkH2_QueryEncodeAllocs(b *testing.B) {
	b.Run("encoding=ndjson", func(b *testing.B) { benchAllocsPer(b, "row", h2QueryEncodeOp(b, "ndjson")) })
	b.Run("encoding=csv", func(b *testing.B) { benchAllocsPer(b, "row", h2QueryEncodeOp(b, "csv")) })
}

func h2QueryEncodeOp(tb testing.TB, encoding string) hotPathOp {
	const rowsPerOp = 50000
	device := "urn:district:turin/building:b000/device:d0"
	svc := measuredb.New(measuredb.Options{
		DisableLegacyAliases: true,
		Engine: tsdb.NewSharded(tsdb.ShardedOptions{
			Store: tsdb.Options{MaxSamplesPerSeries: 1 << 20},
		}),
	})
	tb.Cleanup(svc.Close)
	store := svc.Store()
	key := tsdb.SeriesKey{Device: device, Quantity: "temperature"}
	for i := 0; i < rowsPerOp; i++ {
		if err := store.Append(key, tsdb.Sample{At: benchT0.Add(time.Duration(i) * time.Second), Value: float64(i) + 0.25}); err != nil {
			tb.Fatal(err)
		}
	}
	h := svc.Handler()
	target := "/v2/series/" + url.PathEscape(device) + "/temperature/samples?encoding=" + encoding
	return hotPathOp{perOp: rowsPerOp, fn: func() {
		req := httptest.NewRequest("GET", target, nil)
		w := &discardResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.status != 200 {
			tb.Fatalf("samples status %d", w.status)
		}
	}}
}

// apiChainOp is one request through api.Server's handler, no logger, on
// a route that answers 204 without a body: what the request observer,
// gzip, recover and the router cost a request beyond its handler
// (perOp is the request).
func apiChainOp(tb testing.TB) hotPathOp {
	s := api.NewServer(api.Options{})
	s.HandleFunc(http.MethodGet, "/nothing", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/nothing", nil)
	w := &discardResponseWriter{h: make(http.Header)}
	return hotPathOp{perOp: 1, fn: func() {
		clear(w.h)
		w.status = 0
		h.ServeHTTP(w, req)
		if w.status != http.StatusNoContent {
			tb.Fatalf("status %d", w.status)
		}
	}}
}

// BenchmarkAPIChain reports apiChainOp's allocations per request
// (TestHotPathAllocCeilings holds the ceiling).
func BenchmarkAPIChain(b *testing.B) {
	benchAllocsPer(b, "request", apiChainOp(b))
}

// BenchmarkGzipMiddleware — the response compression path on its own:
// one op is a JSON sample page of the given size written through
// api.Gzip for a client that accepts gzip. 100 B stays under the 1 KiB
// floor and must leave plain without touching the writer pool; 8 KiB
// and 64 KiB are compressed at BestSpeed. wire-bytes/plain-byte is the
// compression ratio; allocs/response is gated by
// TestHotPathAllocCeilings, so a per-response writer (or its 640 KiB
// double reset at level 6, which shows as ns/op) cannot come back
// unnoticed.
func BenchmarkGzipMiddleware(b *testing.B) {
	for _, bc := range []struct {
		name    string
		samples int // ~46 bytes each inside a ~60-byte page envelope
	}{{"body=100B", 1}, {"body=8KiB", 177}, {"body=64KiB", 1424}} {
		b.Run(bc.name, func(b *testing.B) {
			op, ratio := gzipOp(b, bc.samples)
			benchAllocsPer(b, "response", op)
			b.ReportMetric(ratio(), "wire-bytes/plain-byte")
		})
	}
}

// gzipOp writes one samples-entry page through api.Gzip per call; ratio
// reports the last response's wire bytes per plain byte.
func gzipOp(tb testing.TB, samples int) (op hotPathOp, ratio func() float64) {
	page := measuredb.SamplesPage{Device: "urn:d", Quantity: "t", Count: samples}
	for i := 0; i < samples; i++ {
		page.Samples = append(page.Samples, measuredb.Point{
			At: benchT0.Add(time.Duration(i) * time.Second), Value: 20 + float64(i%977)/16})
	}
	body, err := api.EncodeJSON(page)
	if err != nil {
		tb.Fatal(err)
	}
	h := api.Gzip(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
	}))
	req := httptest.NewRequest("GET", "/v2/series/urn:d/t/samples", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := &discardResponseWriter{h: make(http.Header)}
	op = hotPathOp{
		perOp: 1,
		fn: func() {
			clear(w.h)
			w.status, w.wire = 0, 0
			h.ServeHTTP(w, req)
		},
		verify: func() {
			if coded := w.h.Get("Content-Encoding") == "gzip"; coded != (len(body) >= 1024) || (!coded && w.wire != len(body)) {
				tb.Fatalf("%d-byte body: Content-Encoding %q, %d wire bytes", len(body), w.h.Get("Content-Encoding"), w.wire)
			}
		},
	}
	return op, func() float64 { return float64(w.wire) / float64(len(body)) }
}

// H4 — the row codec on its other three ends: the Go client's ingest
// body (client.Ingest.Append), its two sample readers (SampleStream,
// Samples) and the node's JSON samples page. The client ops run against
// a canned in-memory transport, so the figure is the client library —
// request plumbing included — and not a server. Each benchmark carries
// the encoding/json path the codec replaced, over the same input, as its
// codec=encoding-json arm:
//
//	go test -run '^$' -bench 'Client(Append|StreamDecode|SamplesPage|BatchQuery)|SamplesPageEncode' -benchtime 200x .

// cannedTransport answers every request with one body from memory.
type cannedTransport struct {
	contentType string
	body        []byte
}

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK, Header: http.Header{"Content-Type": {c.contentType}},
		Body: io.NopCloser(bytes.NewReader(c.body)), ContentLength: int64(len(c.body)), Request: req,
	}, nil
}

// codecRows is the input of the H4 bodies: n rows shaped like the
// district's (device URNs, readings quantised to 0.01, one-second UTC
// stamps); with device unset they are the at/value rows of one series.
func codecRows(n int, device string) []measuredb.Point {
	rows := make([]measuredb.Point, n)
	for i := range rows {
		rows[i] = measuredb.Point{At: benchT0.Add(time.Duration(i) * time.Second), Value: 18 + float64(i%977)/100}
		if device != "" {
			rows[i].Device, rows[i].Quantity = fmt.Sprintf("%s%02d", device, i%64), "temperature"
		}
	}
	return rows
}

const codecDevice = "urn:district:turin/building:b00/device:m"

// clientAppendOp is one Ingest.Append of 1000 rows (perOp is the call:
// its ceiling is per delivery, the encode's own cost being two
// allocations however many rows); viaJSON is the parent's path, the
// transport's PostJSON over an IngestBatch.
func clientAppendOp(tb testing.TB, viaJSON bool) hotPathOp {
	rows := codecRows(1000, codecDevice)
	ack, _ := json.Marshal(measuredb.IngestResult{Accepted: len(rows)})
	hc := &http.Client{Transport: cannedTransport{"application/json", ack}}
	ic := (&client.Client{HTTP: hc, MaxAttempts: 1}).Ingest("http://canned")
	tr := &api.Transport{Client: hc, MaxAttempts: 1}
	ctx := context.Background()
	return hotPathOp{perOp: 1, fn: func() {
		var res *measuredb.IngestResult
		var err error
		if viaJSON {
			res = new(measuredb.IngestResult)
			err = tr.PostJSON(ctx, "http://canned/v2/ingest", measuredb.IngestBatch{Rows: rows}, res)
		} else {
			res, err = ic.Append(ctx, rows)
		}
		if err != nil || res.Accepted != len(rows) {
			tb.Fatalf("append: %+v, %v", res, err)
		}
	}}
}

func BenchmarkClientAppend(b *testing.B) {
	b.Run("codec=append/rows=1000", func(b *testing.B) { benchAllocsPer(b, "call", clientAppendOp(b, false)) })
	b.Run("codec=encoding-json/rows=1000", func(b *testing.B) { benchAllocsPer(b, "call", clientAppendOp(b, true)) })
}

// clientStreamOp reads one 10000-row NDJSON samples stream to its end;
// viaJSON decodes the same body with a json.Decoder, as SampleStream
// did.
func clientStreamOp(tb testing.TB, viaJSON bool) hotPathOp {
	const rows = 10000
	var body []byte
	for _, p := range codecRows(rows, "") {
		p.Device, p.Quantity = codecDevice+"00", "temperature"
		body = append(measuredb.AppendPoint(body, p), '\n')
	}
	hc := &http.Client{Transport: cannedTransport{measuredb.NDJSONType, body}}
	mc := (&client.Client{HTTP: hc, MaxAttempts: 1}).Measurements("http://canned")
	ctx := context.Background()
	return hotPathOp{perOp: rows, fn: func() {
		n := 0
		if viaJSON {
			rsp, err := hc.Get("http://canned/v2/series/d/q/samples")
			if err != nil {
				tb.Fatal(err)
			}
			dec := json.NewDecoder(rsp.Body)
			for p := (measuredb.Point{}); dec.Decode(&p) == nil; p = (measuredb.Point{}) {
				n++
			}
		} else {
			st, err := mc.Stream(ctx, codecDevice+"00", "temperature")
			if err != nil {
				tb.Fatal(err)
			}
			for _, ok := st.Next(); ok; _, ok = st.Next() {
				n++
			}
			if err := st.Err(); err != nil {
				tb.Fatal(err)
			}
			st.Close()
		}
		if n != rows {
			tb.Fatalf("decoded %d rows of %d", n, rows)
		}
	}}
}

func BenchmarkClientStreamDecode(b *testing.B) {
	b.Run("codec=scanner", func(b *testing.B) { benchAllocsPer(b, "row", clientStreamOp(b, false)) })
	b.Run("codec=encoding-json", func(b *testing.B) { benchAllocsPer(b, "row", clientStreamOp(b, true)) })
}

// samplesPageService holds one series of 2000 samples behind the node's
// handler; its 900-row JSON page is the dashboard's "recent page".
func samplesPageService(tb testing.TB) (h http.Handler, target string) {
	svc := measuredb.New(measuredb.Options{DisableLegacyAliases: true})
	tb.Cleanup(svc.Close)
	key := tsdb.SeriesKey{Device: codecDevice + "00", Quantity: "temperature"}
	for _, p := range codecRows(2000, "") {
		if err := svc.Store().Append(key, tsdb.Sample{At: p.At, Value: p.Value}); err != nil {
			tb.Fatal(err)
		}
	}
	return svc.Handler(), "/v2/series/" + url.PathEscape(key.Device) + "/temperature/samples?limit=900"
}

// clientSamplesPageOp is one Measurements.Samples of a 900-row page;
// viaJSON is the transport's GetJSON into a SamplesPage, as it was.
func clientSamplesPageOp(tb testing.TB, viaJSON bool) hotPathOp {
	h, target := samplesPageService(tb)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
	hc := &http.Client{Transport: cannedTransport{"application/json", w.Body.Bytes()}}
	mc := (&client.Client{HTTP: hc, MaxAttempts: 1}).Measurements("http://canned")
	tr := &api.Transport{Client: hc, MaxAttempts: 1}
	ctx := context.Background()
	return hotPathOp{perOp: 900, fn: func() {
		var page *measuredb.SamplesPage
		var err error
		if viaJSON {
			page = new(measuredb.SamplesPage)
			err = tr.GetJSON(ctx, "http://canned"+target, page)
		} else {
			page, err = mc.Samples(ctx, codecDevice+"00", "temperature", client.WithLimit(900))
		}
		if err != nil || page.Count != 900 || len(page.Samples) != 900 || page.NextCursor == "" {
			tb.Fatalf("page: %+v, %v", page, err)
		}
	}}
}

func BenchmarkClientSamplesPage(b *testing.B) {
	b.Run("codec=scanner/rows=900", func(b *testing.B) { benchAllocsPer(b, "row", clientSamplesPageOp(b, false)) })
	b.Run("codec=encoding-json/rows=900", func(b *testing.B) { benchAllocsPer(b, "row", clientSamplesPageOp(b, true)) })
}

// clientBatchQueryOp is one Measurements.Query of the dashboard tile,
// answered with the node's 64-series aggregate answer (perOp is the
// call); viaJSON is the transport's PostJSON into a BatchResponse, as
// it was. The coordinator reads each node's answer the same way.
func clientBatchQueryOp(tb testing.TB, viaJSON bool) hotPathOp {
	h, body := batchQueryService(tb)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v2/query", bytes.NewReader(body)))
	hc := &http.Client{Transport: cannedTransport{"application/json", w.Body.Bytes()}}
	mc := (&client.Client{HTTP: hc, MaxAttempts: 1}).Measurements("http://canned")
	tr := &api.Transport{Client: hc, MaxAttempts: 1}
	var req measuredb.BatchQuery
	if err := json.Unmarshal(body, &req); err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	return hotPathOp{perOp: 1, fn: func() {
		var rsp *measuredb.BatchResponse
		var err error
		if viaJSON {
			rsp = new(measuredb.BatchResponse)
			err = tr.PostJSON(ctx, "http://canned/v2/query", req, rsp)
		} else {
			rsp, err = mc.Query(ctx, req)
		}
		if err != nil || rsp.Series != batchQueryDevices || len(rsp.Results) != 1 || len(rsp.Results[0].Series) != batchQueryDevices {
			tb.Fatalf("batch query: %+v, %v", rsp, err)
		}
	}}
}

func BenchmarkClientBatchQuery(b *testing.B) {
	b.Run("codec=scanner/series=64", func(b *testing.B) { benchAllocsPer(b, "call", clientBatchQueryOp(b, false)) })
	b.Run("codec=encoding-json/series=64", func(b *testing.B) { benchAllocsPer(b, "call", clientBatchQueryOp(b, true)) })
}

// samplesPageEncodeOp is one GET of the 900-row JSON page through the
// node's handler into a discarding writer (perOp is the response);
// viaJSON renders the same page as the handler did before: copied into
// a SamplesPage and reflected over by api.EncodeJSON.
func samplesPageEncodeOp(tb testing.TB, viaJSON bool) hotPathOp {
	h, target := samplesPageService(tb)
	page := measuredb.SamplesPage{Device: codecDevice + "00", Quantity: "temperature", Samples: codecRows(900, ""), Count: 900, NextCursor: "MTQyNTg5NTIwMzAwMDAwMDAwMDox"}
	return hotPathOp{perOp: 1, fn: func() {
		if viaJSON {
			out := page
			out.Samples = append([]measuredb.Point(nil), page.Samples...)
			if _, err := api.EncodeJSON(out); err != nil {
				tb.Fatal(err)
			}
			return
		}
		w := &discardResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest("GET", target, nil))
		if w.status != 200 || w.wire < 900*40 {
			tb.Fatalf("samples page: status %d, %d bytes", w.status, w.wire)
		}
	}}
}

func BenchmarkSamplesPageEncode(b *testing.B) {
	b.Run("codec=append/rows=900", func(b *testing.B) { benchAllocsPer(b, "response", samplesPageEncodeOp(b, false)) })
	b.Run("codec=encoding-json/rows=900", func(b *testing.B) { benchAllocsPer(b, "response", samplesPageEncodeOp(b, true)) })
}

// batchQueryDevices is the series count of the dashboard tile below.
const batchQueryDevices = 64

// batchQueryService holds 64 series of 100 samples behind the node's
// handler; body is the dashboard tile, one glob selector aggregating
// all of them.
func batchQueryService(tb testing.TB) (h http.Handler, body []byte) {
	svc := measuredb.New(measuredb.Options{DisableLegacyAliases: true, Engine: tsdb.NewSharded(tsdb.ShardedOptions{})})
	tb.Cleanup(svc.Close)
	for d := 0; d < batchQueryDevices; d++ {
		key := tsdb.SeriesKey{Device: fmt.Sprintf("urn:district:turin/building:b%03d/device:d0", d), Quantity: "temperature"}
		for i := 0; i < 100; i++ {
			if err := svc.Store().Append(key, tsdb.Sample{At: benchT0.Add(time.Duration(i) * time.Minute), Value: float64(i) + 0.25}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return svc.Handler(), []byte(`{"selectors":[{"device":"urn:district:turin/*","quantity":"temperature"}],"aggregate":true}`)
}

// batchQueryJSONOp is the dashboard tile on one node: POST /v2/query
// answered as JSON through the node's handler into a discarding writer
// (perOp is the response).
func batchQueryJSONOp(tb testing.TB) hotPathOp {
	h, body := batchQueryService(tb)
	return hotPathOp{perOp: 1, fn: func() {
		w := &discardResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, httptest.NewRequest("POST", "/v2/query", bytes.NewReader(body)))
		if w.status != 200 || w.wire < batchQueryDevices*200 {
			tb.Fatalf("batch query: status %d, %d bytes", w.status, w.wire)
		}
	}}
}

// blockAggregateOp is one series of the dashboard tile on a durable
// engine: Sharded.Aggregate over the last 24 h of a minute-cadence
// series whose first 36 h sit in one block and whose last half hour is
// in the head, so the read folds cached rollup buckets and decodes one
// raw edge (perOp is the call).
func blockAggregateOp(tb testing.TB) hotPathOp {
	const headWindow = 2 * time.Hour
	eng, err := tsdb.OpenSharded(tsdb.ShardedOptions{Dir: tb.TempDir(), Shards: 1, Blocks: tsdb.BlockPolicy{HeadWindow: headWindow}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(eng.Close)
	key := tsdb.SeriesKey{Device: "urn:district:turin/building:b000/device:d0", Quantity: "temperature"}
	now := time.Now()
	fill := func(at time.Time, n int) {
		rows := make([]tsdb.Row, n)
		for i := range rows {
			rows[i] = tsdb.Row{Key: key, Sample: tsdb.Sample{At: at.Add(time.Duration(i) * time.Minute), Value: float64(i%97) + 0.25}}
		}
		if errs := eng.AppendBatch(rows); errs != nil {
			tb.Fatal(errs)
		}
	}
	fill(now.Add(-headWindow-36*time.Hour).Truncate(time.Minute), 36*60)
	if err := eng.CompactAll(); err != nil {
		tb.Fatal(err)
	}
	fill(now.Add(-30*time.Minute), 30)
	from := now.Add(-24*time.Hour - 17*time.Minute)
	return hotPathOp{perOp: 1, fn: func() {
		if a, err := eng.Aggregate(key, from, now); err != nil || a.Count < 22*60 {
			tb.Fatalf("block aggregate: %+v, %v", a, err)
		}
	}}
}

// BenchmarkBatchQueryJSON reports batchQueryJSONOp's time and heap
// allocations per response.
func BenchmarkBatchQueryJSON(b *testing.B) {
	b.Run("glob-aggregate/series=64", func(b *testing.B) { benchAllocsPer(b, "response", batchQueryJSONOp(b)) })
}

// H3 — the generation-keyed result cache. The op is a full GET
// /v2/.../aggregate through the handler over a 200k-sample series; with
// the cache on, every request after the first is a key build, two
// atomic loads, and a pre-encoded body write. The acceptance bar is
// >= 5x latency improvement cached vs uncached (byte-identity of the
// responses is asserted by the measuredb test suite, not here).
func BenchmarkH3_CachedAggregate(b *testing.B) {
	const perSeries = 200000
	device := "urn:district:turin/building:b000/device:d0"
	key := tsdb.SeriesKey{Device: device, Quantity: "temperature"}
	target := "/v2/series/" + url.PathEscape(device) + "/temperature/aggregate"
	for _, mode := range []struct {
		name  string
		bytes int64
	}{{"cache=off", 0}, {"cache=on", 64 << 20}} {
		b.Run(mode.name, func(b *testing.B) {
			svc := measuredb.New(measuredb.Options{
				DisableLegacyAliases: true,
				QCacheBytes:          mode.bytes,
				Engine: tsdb.NewSharded(tsdb.ShardedOptions{
					Store: tsdb.Options{MaxSamplesPerSeries: 1 << 20},
				}),
			})
			b.Cleanup(svc.Close)
			store := svc.Store()
			for i := 0; i < perSeries; i++ {
				if err := store.Append(key, tsdb.Sample{At: benchT0.Add(time.Duration(i) * time.Second), Value: float64(i % 977)}); err != nil {
					b.Fatal(err)
				}
			}
			h := svc.Handler()
			do := func() {
				req := httptest.NewRequest("GET", target, nil)
				w := &discardResponseWriter{h: make(http.Header)}
				h.ServeHTTP(w, req)
				if w.status != 200 {
					b.Fatalf("aggregate status %d", w.status)
				}
			}
			do() // fill the cache (and fault in the head pages) untimed
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do()
			}
		})
	}
}
