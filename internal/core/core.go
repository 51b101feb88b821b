// Package core is the framework facade of the reproduction: it wires
// every subsystem of the paper's infrastructure — master node with its
// ontology, event streaming, global measurements database, GIS / BIM
// / SIM Database-proxies, and device-proxies over simulated WSN hardware
// — into one running district. It is the paper's "infrastructure model"
// as a callable API: examples, the districtsim binary, the integration
// tests and the benchmark harness all bootstrap districts through it.
package core

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/bim"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/dataformat"
	"repro/internal/dbproxy"
	"repro/internal/deviceproxy"
	"repro/internal/gis"
	"repro/internal/master"
	"repro/internal/measuredb"
	"repro/internal/ontology"
	"repro/internal/protocol/enocean"
	"repro/internal/protocol/ieee802154"
	"repro/internal/sim"
	"repro/internal/tsdb"
	"repro/internal/wal"
	"repro/internal/wsn"
)

// Protocol names the device technologies the bootstrap can deploy.
type Protocol string

// Deployable protocols, matching the paper's proxy list.
const (
	ProtoIEEE802154 Protocol = "ieee802.15.4"
	ProtoZigBee     Protocol = "zigbee"
	ProtoEnOcean    Protocol = "enocean"
	ProtoOPCUA      Protocol = "opc-ua"
)

// AllProtocols is the default deployment rotation.
var AllProtocols = []Protocol{ProtoZigBee, ProtoIEEE802154, ProtoEnOcean, ProtoOPCUA}

// Spec sizes a synthetic district.
type Spec struct {
	// District is the district identifier (default "turin").
	District string
	// Buildings is the number of buildings (default 3).
	Buildings int
	// Networks is the number of distribution networks (default 1).
	Networks int
	// DevicesPerBuilding is the number of sensor devices per building
	// (default 2), rotated over Protocols.
	DevicesPerBuilding int
	// Protocols is the deployment rotation (default AllProtocols).
	Protocols []Protocol
	// PollEvery is the device-proxy sampling period (default 200ms).
	PollEvery time.Duration
	// Seed drives all synthetic generation (default 1).
	Seed int64
	// LegacyAliases keeps the unversioned route aliases on every
	// service. Off by default: the infrastructure is /v1+/v2-only, the
	// -legacy-aliases flag of the drivers is the escape hatch.
	LegacyAliases bool
	// MeasureReadRate, when positive, rate-limits the measurements DB's
	// cheap read routes per client IP (requests/second, the "read"
	// tier). MeasureBatchRate does the same for POST /v2/query (the
	// "batch" tier, typically much lower — each batch fans out over
	// many series), and MeasureWriteRate for the /v2 ingest plane (the
	// "write" tier). Per-tier limiter stats surface in /v1/metrics.
	MeasureReadRate  float64
	MeasureBatchRate float64
	MeasureWriteRate float64
	// MeasureShards partitions the measurements DB's storage engine by
	// device hash (0 = the engine default).
	MeasureShards int
	// MeasureNodes deploys the measurements DB as a multi-host cluster:
	// this many shard-owning nodes behind one coordinator, with the
	// master publishing a round-robin shard map. 0 or 1 keeps the
	// classic single-service deployment. MeasureURL then points at the
	// coordinator; the /v2 surface is unchanged for clients.
	MeasureNodes int
	// DataDir enables the durable storage layer under the measurements
	// DB (in <DataDir>/measuredb): the node log + per-shard snapshots
	// beneath the tsdb engine, whose records carry the ingest
	// idempotency window's notes too, and a journaled stream replay ring
	// (SSE Last-Event-ID resume survives a service restart). Empty keeps
	// the district fully in-memory — the
	// default, so existing tests and benches are unaffected.
	DataDir string
	// FsyncMode is the WAL fsync policy: "none" (default — acked writes
	// survive a process kill, not a machine crash), "interval", or
	// "always" (fsync before ack, group-committed per node-log group).
	FsyncMode string
	// SnapshotEvery snapshots each tsdb shard's head after this many
	// applied rows (0 = engine default).
	SnapshotEvery int
	// HeadWindow bounds how much recent data each storage shard keeps in
	// its RAM head with DataDir set; older samples compact into columnar
	// block files (0 = engine default, 30m; negative disables blocks).
	HeadWindow time.Duration
	// RetentionRaw is how long raw samples are kept before compaction
	// demotes them to 1m/1h rollups (0 = forever).
	RetentionRaw time.Duration
	// RetentionRollup is how long rollups of raw-expired data are kept
	// before they are dropped entirely (0 = forever).
	RetentionRollup time.Duration
	// QCacheBytes bounds the measurements DB's generation-keyed query
	// result cache, per node in a clustered deployment (the coordinator
	// caches nothing). 0 (the default) disables it, preserving uncached
	// behavior exactly.
	QCacheBytes int64
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof
	// on the master, measurements DB, and every device proxy.
	EnablePprof bool
}

func (s *Spec) withDefaults() Spec {
	out := *s
	if out.District == "" {
		out.District = "turin"
	}
	if out.Buildings <= 0 {
		out.Buildings = 3
	}
	if out.Networks <= 0 {
		out.Networks = 1
	}
	if out.DevicesPerBuilding <= 0 {
		out.DevicesPerBuilding = 2
	}
	if len(out.Protocols) == 0 {
		out.Protocols = AllProtocols
	}
	if out.PollEvery <= 0 {
		out.PollEvery = 200 * time.Millisecond
	}
	if out.Seed == 0 {
		out.Seed = 1
	}
	return out
}

// District is a fully wired, running district infrastructure.
type District struct {
	// Spec is the effective (defaulted) specification.
	Spec Spec
	// Master is the master node; MasterURL its HTTP base URL.
	Master    *master.Master
	MasterURL string
	// Measure is the global measurements database service. In a
	// clustered deployment (Spec.MeasureNodes > 1) it is nil:
	// MeasureNodes holds the shard owners, Coordinator the router, and
	// MeasureURL points at the coordinator.
	Measure    *measuredb.Service
	MeasureURL string
	// MeasureNodes and MeasureNodeURLs are the cluster's shard-owning
	// nodes (clustered deployments only).
	MeasureNodes    []*measuredb.Service
	MeasureNodeURLs []string
	// Coordinator is the cluster's query/ingest router (clustered
	// deployments only).
	Coordinator *measuredb.Coordinator
	// GIS is the district geographic database proxy.
	GIS *dbproxy.GISProxy
	// BIMs and SIMs are the per-building / per-network proxies.
	BIMs []*dbproxy.BIMProxy
	SIMs []*dbproxy.SIMProxy
	// DeviceProxies are the running device proxies, one per device.
	DeviceProxies []*deviceproxy.Proxy

	ingest *client.Batcher
	// delivered and dropped count the rows the shared batcher shipped to
	// the measurements DB and the rows of batches it failed to deliver.
	delivered, dropped atomic.Uint64
	closers            []func()
}

// Bootstrap builds and starts a synthetic district per the spec.
// The returned District owns every component; Close tears it all down.
func Bootstrap(spec Spec) (*District, error) {
	spec = spec.withDefaults()
	d := &District{Spec: spec}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	// Master node: the unique entry point.
	d.Master = master.New(master.Options{
		DisableLegacyAliases: !spec.LegacyAliases,
		EnablePprof:          spec.EnablePprof,
	})
	addr, err := d.Master.Serve("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("core: master: %w", err)
	}
	d.MasterURL = "http://" + addr
	d.closers = append(d.closers, d.Master.Close)

	// Global measurements database, written through /v2/ingest.
	limiter := func(rate float64) *api.RateLimiter {
		if rate <= 0 {
			return nil
		}
		return api.NewRateLimiter(rate, int(rate*2)+1)
	}
	newMeasureOpts := func(dataDir string, clusterOpts *measuredb.ClusterOptions) (measuredb.Options, error) {
		mopts := measuredb.Options{
			DisableLegacyAliases: !spec.LegacyAliases,
			EnablePprof:          spec.EnablePprof,
			Shards:               spec.MeasureShards,
			ReadLimiter:          limiter(spec.MeasureReadRate),
			BatchLimiter:         limiter(spec.MeasureBatchRate),
			WriteLimiter:         limiter(spec.MeasureWriteRate),
			QCacheBytes:          spec.QCacheBytes,
			Cluster:              clusterOpts,
		}
		if spec.DataDir != "" {
			mode, err := wal.ParseMode(spec.FsyncMode)
			if err != nil {
				return mopts, fmt.Errorf("core: %w", err)
			}
			mopts.DataDir = filepath.Join(spec.DataDir, dataDir)
			mopts.Fsync = mode
			mopts.SnapshotEvery = spec.SnapshotEvery
			mopts.Blocks = tsdb.BlockPolicy{
				HeadWindow:      spec.HeadWindow,
				RetentionRaw:    spec.RetentionRaw,
				RetentionRollup: spec.RetentionRollup,
			}
		}
		return mopts, nil
	}
	if spec.MeasureNodes > 1 {
		if err := d.bootstrapMeasureCluster(spec, newMeasureOpts); err != nil {
			return nil, err
		}
	} else {
		mopts, err := newMeasureOpts("measuredb", nil)
		if err != nil {
			return nil, err
		}
		d.Measure, err = measuredb.Open(mopts)
		if err != nil {
			return nil, fmt.Errorf("core: measuredb: %w", err)
		}
		measureAddr, err := d.Measure.Serve("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("core: measuredb: %w", err)
		}
		d.MeasureURL = "http://" + measureAddr
		d.closers = append(d.closers, d.Measure.Close)
	}

	// The device proxies' write path: one shared auto-flushing /v2
	// ingest batcher. It closes — final flush included — before the
	// measurements DB does, and after the proxies stop sampling.
	d.ingest = (&client.Client{}).Ingest(d.MeasureURL).Batcher(client.BatcherOptions{
		MaxRows:    512,
		FlushEvery: 200 * time.Millisecond,
		OnError: func(rows int, err error) {
			d.dropped.Add(uint64(rows))
			slog.Warn("ingest flush dropped rows", "service", "core", "rows", rows, "err", err)
		},
		OnResult: func(res *measuredb.IngestResult) {
			d.delivered.Add(uint64(res.Accepted + res.Rejected))
		},
	})
	d.closers = append(d.closers, d.ingest.Close)

	// Ontology root.
	ont := d.Master.Ontology()
	districtURI, err := ont.AddDistrict(spec.District, spec.District)
	if err != nil {
		return nil, err
	}
	_ = ont.SetProperty(districtURI, ontology.PropMeasureURI, d.MeasureURL+"/")

	// GIS database + proxy.
	gisStore := gis.NewStore(0)
	d.GIS = dbproxy.NewGISProxy(spec.District, gisStore)
	d.GIS.SetLegacyAliases(spec.LegacyAliases)
	gisAddr, err := d.GIS.Run("127.0.0.1:0", d.MasterURL)
	if err != nil {
		return nil, fmt.Errorf("core: gis proxy: %w", err)
	}
	_ = ont.SetProperty(districtURI, ontology.PropGISURI, "http://"+gisAddr+"/")
	d.closers = append(d.closers, d.GIS.Close)

	// Buildings: BIM + BIM proxy + ontology node + GIS footprint + devices.
	for b := 0; b < spec.Buildings; b++ {
		if err := d.addBuilding(districtURI, b); err != nil {
			return nil, err
		}
	}

	// Distribution networks: SIM + SIM proxy + ontology node.
	for n := 0; n < spec.Networks; n++ {
		network := sim.Synthesize(sim.SynthOptions{
			ID:          fmt.Sprintf("dh%02d", n),
			Substations: spec.Buildings,
			Seed:        spec.Seed + int64(n)*1000,
		})
		proxy, err := dbproxy.NewSIMProxy(spec.District, network)
		if err != nil {
			return nil, err
		}
		proxy.SetLegacyAliases(spec.LegacyAliases)
		plant := network.Plant()
		netURI, err := ont.AddEntity(districtURI, ontology.KindNetwork, network.ID, network.Name, plant.Lat, plant.Lon)
		if err != nil {
			return nil, err
		}
		if _, err := proxy.Run("127.0.0.1:0", d.MasterURL); err != nil {
			return nil, fmt.Errorf("core: sim proxy %s: %w", network.ID, err)
		}
		_ = netURI
		d.SIMs = append(d.SIMs, proxy)
		d.closers = append(d.closers, proxy.Close)
	}
	ok = true
	return d, nil
}

// bootstrapMeasureCluster deploys the measurements DB as
// Spec.MeasureNodes shard-owning nodes behind one coordinator: each
// node runs the full sharded engine (unowned shards stay empty), the
// master publishes a round-robin shard map, and the coordinator routes
// the /v2 plane over it.
func (d *District) bootstrapMeasureCluster(spec Spec, newMeasureOpts func(string, *measuredb.ClusterOptions) (measuredb.Options, error)) error {
	shards := spec.MeasureShards
	if shards <= 0 {
		shards = tsdb.DefaultShards
	}
	for i := 0; i < spec.MeasureNodes; i++ {
		mopts, err := newMeasureOpts(fmt.Sprintf("measuredb-%d", i), &measuredb.ClusterOptions{Master: d.MasterURL})
		if err != nil {
			return err
		}
		mopts.Shards = shards // every node must agree on the shard count
		node, err := measuredb.Open(mopts)
		if err != nil {
			return fmt.Errorf("core: measuredb node %d: %w", i, err)
		}
		d.closers = append(d.closers, node.Close)
		addr, err := node.Serve("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("core: measuredb node %d: %w", i, err)
		}
		nodeURL := "http://" + addr
		node.SetClusterSelf(nodeURL)
		d.MeasureNodes = append(d.MeasureNodes, node)
		d.MeasureNodeURLs = append(d.MeasureNodeURLs, nodeURL)
	}
	// Publish the initial round-robin map before any ingest starts, so
	// the very first routed write already sees the real topology.
	owners := make([]string, shards)
	for i := range owners {
		owners[i] = d.MeasureNodeURLs[i%len(d.MeasureNodeURLs)]
	}
	if _, err := d.Master.ClusterMap().Set(cluster.Map{Shards: shards, Owners: owners}); err != nil {
		return fmt.Errorf("core: publish shard map: %w", err)
	}
	coord, err := measuredb.OpenCoordinator(measuredb.CoordinatorOptions{
		Master:      d.MasterURL,
		EnablePprof: spec.EnablePprof,
	})
	if err != nil {
		return fmt.Errorf("core: coordinator: %w", err)
	}
	d.Coordinator = coord
	d.closers = append(d.closers, coord.Close)
	addr, err := coord.Serve("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("core: coordinator: %w", err)
	}
	d.MeasureURL = "http://" + addr
	return nil
}

// addBuilding creates one building with its BIM proxy and devices.
func (d *District) addBuilding(districtURI string, index int) error {
	spec := d.Spec
	ont := d.Master.Ontology()
	building := bim.Synthesize(bim.SynthOptions{
		ID:              fmt.Sprintf("b%02d", index),
		Storeys:         2,
		SpacesPerStorey: 2,
		DevicesPerSpace: 0,
		Seed:            spec.Seed + int64(index)*77,
	})
	buildingURI, err := ont.AddEntity(districtURI, ontology.KindBuilding, building.ID, building.Name, building.Lat, building.Lon)
	if err != nil {
		return err
	}
	// GIS footprint: a small square around the building position.
	const half = 0.0004
	err = d.GIS.Store().Add(gis.Feature{
		ID: buildingURI, Kind: gis.FeatureBuilding, Name: building.Name,
		Footprint: []gis.Point{
			{Lat: building.Lat - half, Lon: building.Lon - half},
			{Lat: building.Lat + half, Lon: building.Lon - half},
			{Lat: building.Lat + half, Lon: building.Lon + half},
			{Lat: building.Lat - half, Lon: building.Lon + half},
		},
	})
	if err != nil {
		return err
	}

	// Devices (and their URIs inside the BIM spaces).
	for i := 0; i < spec.DevicesPerBuilding; i++ {
		proto := spec.Protocols[i%len(spec.Protocols)]
		deviceID := fmt.Sprintf("d%02d", i)
		deviceURI := ontology.DeviceURI(buildingURI, deviceID)
		// Place the device in a BIM space round-robin.
		st := &building.Storeys[i%len(building.Storeys)]
		sp := &st.Spaces[i%len(st.Spaces)]
		sp.Devices = append(sp.Devices, deviceURI)

		if _, err := ont.AddDevice(buildingURI, deviceID, fmt.Sprintf("%s sensor %d", proto, i), building.Lat, building.Lon); err != nil {
			return err
		}
		if err := d.addDevice(deviceURI, proto, spec.Seed+int64(index*100+i)); err != nil {
			return fmt.Errorf("core: device %s: %w", deviceURI, err)
		}
	}

	proxy, err := dbproxy.NewBIMProxy(spec.District, building)
	if err != nil {
		return err
	}
	proxy.SetLegacyAliases(spec.LegacyAliases)
	if _, err := proxy.Run("127.0.0.1:0", d.MasterURL); err != nil {
		return fmt.Errorf("core: bim proxy %s: %w", building.ID, err)
	}
	d.BIMs = append(d.BIMs, proxy)
	d.closers = append(d.closers, proxy.Close)
	return nil
}

// SimulatedDevice wires one simulated device of proto — its radio or
// serial link, a node sensing wsn.DefaultSignals, and the driver that
// polls it — and returns the device-proxy options the device decides:
// Name, Driver, Senses, Actuates and PollEvery. The caller sets the
// rest and calls stop once the proxy is closed.
func SimulatedDevice(proto Protocol, seed int64, poll time.Duration) (opts deviceproxy.Options, stop func(), err error) {
	signals := wsn.DefaultSignals()
	opts = deviceproxy.Options{
		Name:      string(proto) + " device",
		Senses:    []dataformat.Quantity{dataformat.Temperature, dataformat.Humidity},
		PollEvery: poll,
	}
	switch proto {
	case ProtoIEEE802154:
		radio := ieee802154.NewRadio(ieee802154.RadioOptions{Seed: seed})
		node, err := wsn.NewNode802154(radio, 0x0D15, 0x0010, signals, seed)
		if err != nil {
			radio.Close()
			return opts, nil, err
		}
		if opts.Driver, err = wsn.NewDriver802154(radio, 0x0D15, 0x0001, 0x0010, len(signals)); err != nil {
			node.Close()
			radio.Close()
			return opts, nil, err
		}
		return opts, func() { node.Close(); radio.Close() }, nil
	case ProtoZigBee:
		opts.Senses = append(opts.Senses, dataformat.SwitchState)
		opts.Actuates = []dataformat.Quantity{dataformat.SwitchState}
		radio := ieee802154.NewRadio(ieee802154.RadioOptions{Seed: seed})
		node, err := wsn.NewNodeZigbee(radio, 0x0D15, 0x0020, signals, true, seed)
		if err != nil {
			radio.Close()
			return opts, nil, err
		}
		if opts.Driver, err = wsn.NewDriverZigbee(radio, 0x0D15, 0x0002, 0x0020, opts.Senses); err != nil {
			node.Close()
			radio.Close()
			return opts, nil, err
		}
		return opts, func() { node.Close(); radio.Close() }, nil
	case ProtoEnOcean:
		link := &wsn.SerialLink{}
		sender := uint32(0x01800000) + uint32(seed&0xFFFF)
		node := wsn.NewNodeEnOcean(link, enocean.EEPTempHumA50401, sender, signals, seed)
		node.Start(poll / 2)
		node.Emit() // make the first poll succeed immediately
		opts.Driver = wsn.NewDriverEnOcean(link, enocean.EEPTempHumA50401, sender, nil)
		return opts, node.Close, nil
	case ProtoOPCUA:
		opts.Actuates = []dataformat.Quantity{dataformat.Temperature}
		node, err := wsn.NewNodeOPCUA(signals, opts.Actuates, seed)
		if err != nil {
			return opts, nil, err
		}
		if opts.Driver, err = wsn.NewDriverOPCUA(node.Addr(), opts.Senses, opts.Actuates); err != nil {
			node.Close()
			return opts, nil, err
		}
		return opts, node.Close, nil
	default:
		return opts, nil, fmt.Errorf("core: unknown protocol %q", proto)
	}
}

// addDevice spins one simulated device and its device proxy.
func (d *District) addDevice(deviceURI string, proto Protocol, seed int64) error {
	opts, stop, err := SimulatedDevice(proto, seed, d.Spec.PollEvery)
	if err != nil {
		return err
	}
	d.closers = append(d.closers, stop)
	opts.DeviceURI = deviceURI
	opts.MasterURL = d.MasterURL
	opts.DisableLegacyAliases = !d.Spec.LegacyAliases
	opts.EnablePprof = d.Spec.EnablePprof
	opts.Writer = d.ingest
	proxy, err := deviceproxy.New(opts)
	if err != nil {
		return err
	}
	if _, err := proxy.Run("127.0.0.1:0"); err != nil {
		return err
	}
	d.DeviceProxies = append(d.DeviceProxies, proxy)
	d.closers = append(d.closers, proxy.Close)
	return nil
}

// Client returns an end-user client bound to the district's master.
func (d *District) Client() *client.Client {
	return &client.Client{MasterURL: d.MasterURL}
}

// WaitForSamples blocks until every device proxy has buffered at least
// n samples or the timeout elapses; it reports whether the goal was met.
func (d *District) WaitForSamples(n uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, p := range d.DeviceProxies {
			if p.Stats().Samples < n {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// IngestRows reports the device write path's delivery outcome so far:
// rows the shared batcher delivered to the measurements DB, and rows of
// batches it dropped because the delivery failed.
func (d *District) IngestRows() (delivered, dropped uint64) {
	return d.delivered.Load(), d.dropped.Load()
}

// Close tears the district down in reverse construction order.
func (d *District) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.closers = nil
}
