// Package master implements the master node of the infrastructure: "the
// unique entry point of the system" (paper §II). It maintains the
// district ontology, accepts proxy registrations, and answers area
// queries by returning the URIs of the proxies' web services for the
// matching entities — redirecting clients rather than aggregating data,
// which is the core scalability argument of the design.
package master

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/dataformat"
	"repro/internal/middleware"
	"repro/internal/obs"
	"repro/internal/ontology"
	"repro/internal/registry"
	"repro/internal/stream"
)

func init() {
	// Domain sentinels → HTTP statuses for the unified error envelope.
	api.RegisterStatus(registry.ErrInvalid, http.StatusBadRequest)
	api.RegisterStatus(registry.ErrNotFound, http.StatusNotFound)
}

// Options configure a master node.
type Options struct {
	// LivenessTTL bounds how stale a proxy may be and still be linked
	// into query responses. Zero means 5 minutes.
	LivenessTTL time.Duration
	// SweepEvery is the stale-registration sweep period. Zero disables
	// the background sweeper (sweeps still happen lazily).
	SweepEvery time.Duration
	// Logger receives operational messages; nil silences them.
	Logger *log.Logger
	// DisableLegacyAliases drops the unversioned route aliases; only
	// versioned paths are then served.
	DisableLegacyAliases bool
	// Stream tunes the master's streaming subsystem; setting Hub.Dir
	// re-backs the registry-event replay ring with an on-disk log, so
	// `districtctl watch` resumes survive a master restart.
	Stream stream.Options
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof.
	EnablePprof bool
}

// Master is the ontology + registry service.
type Master struct {
	opts   Options
	ont    *ontology.Ontology
	reg    *registry.Registry
	apiS   *api.Server
	stream *stream.Service
	// shardMap is the cluster shard-map source of truth ("the unique
	// entry point of the system" also hands out measurement placement).
	shardMap *cluster.Registry

	mu     sync.Mutex
	srv    *http.Server
	ln     net.Listener
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// New creates a master node with an empty ontology.
func New(opts Options) *Master {
	if opts.LivenessTTL <= 0 {
		opts.LivenessTTL = 5 * time.Minute
	}
	m := &Master{
		opts:     opts,
		ont:      ontology.New(),
		reg:      registry.New(),
		shardMap: cluster.NewRegistry(),
		stopCh:   make(chan struct{}),
	}
	// Registry lifecycle events stream to remote subscribers (districtctl
	// watch "registry/#", dashboards) through the master's own hub. This
	// can only fail opening a durable replay ring — an unusable
	// deployment, reported loudly at build time.
	var err error
	if m.stream, err = stream.NewService(opts.Stream); err != nil {
		panic("master: stream service: " + err.Error())
	}
	m.apiS = m.buildAPI()
	return m
}

// Stream exposes the master's streaming service; registry lifecycle
// topics are published on its hub.
func (m *Master) Stream() *stream.Service { return m.stream }

// publishEvent emits one registry lifecycle event on the master's hub.
func (m *Master) publishEvent(topic string, v any) {
	payload, err := json.Marshal(v)
	if err != nil {
		return
	}
	// Best-effort: the hub counts a refusal (closed during shutdown).
	_ = m.stream.Hub().Publish(middleware.Event{
		Topic:   topic,
		Payload: payload,
		Headers: map[string]string{"content-type": "application/json"},
	})
}

// Ontology exposes the district forest for programmatic construction
// (the districtsim bootstrap and the tests build districts through it).
func (m *Master) Ontology() *ontology.Ontology { return m.ont }

// Registry exposes the proxy registry.
func (m *Master) Registry() *registry.Registry { return m.reg }

// ClusterMap exposes the shard-map registry (districtsim's bootstrap
// publishes the initial placement through it in-process).
func (m *Master) ClusterMap() *cluster.Registry { return m.shardMap }

// Metrics exposes the per-route API metrics.
func (m *Master) Metrics() *api.Metrics { return m.apiS.Metrics() }

// SetLegacyAliases toggles the unversioned route aliases at runtime.
func (m *Master) SetLegacyAliases(enabled bool) { m.apiS.SetLegacyAliases(enabled) }

// logf logs when a logger is configured.
func (m *Master) logf(format string, args ...any) {
	if m.opts.Logger != nil {
		m.opts.Logger.Printf(format, args...)
	}
}

// apiLogger adapts the optional *log.Logger for the API layer.
func (m *Master) apiLogger() api.Logger {
	if m.opts.Logger == nil {
		return nil
	}
	return m.opts.Logger
}

// buildAPI registers the master's endpoints on the unified API layer.
// Every route is served under /v1/... with the bare path kept as a
// legacy alias:
//
//	POST   /v1/register    body: registry.Registration JSON
//	DELETE /v1/register?id=...
//	POST   /v1/heartbeat?id=...
//	GET    /v1/query?district=...&minLat=&minLon=&maxLat=&maxLon=
//	GET    /v1/devices?entity=<uri>
//	GET    /v1/ontology?uri=<uri>     (Accept: application/json|xml)
//	GET    /v1/districts
//	GET    /v1/proxies
//	GET    /v1/metrics, /v1/healthz
func (m *Master) buildAPI() *api.Server {
	s := api.NewServer(api.Options{
		Service:              "master",
		Logger:               m.apiLogger(),
		DisableLegacyAliases: m.opts.DisableLegacyAliases,
		EnablePprof:          m.opts.EnablePprof,
	})
	reg := obs.NewRegistry()
	m.stream.RegisterMetrics(reg)
	reg.GaugeFunc("repro_registry_proxies",
		"Proxy registrations currently held by the master.", nil,
		func() float64 { return float64(len(m.reg.List())) })
	s.Metrics().AttachRegistry(reg)

	s.Handle(http.MethodPost, "/register", api.Body(m.register))
	s.Handle(http.MethodDelete, "/register", api.Query(m.deregister))
	s.Handle(http.MethodPost, "/heartbeat", api.Query(m.heartbeat))
	s.Get("/query", m.query)
	s.Get("/devices", m.devices)
	s.Get("/ontology", m.ontologyDoc)
	s.Get("/districts", func(ctx context.Context, q url.Values) (any, error) {
		return m.ont.Districts(), nil
	})
	s.Get("/proxies", func(ctx context.Context, q url.Values) (any, error) {
		return m.reg.List(), nil
	})
	reg.GaugeFunc("repro_cluster_map_epoch",
		"Epoch of the published cluster shard map (0 = single-node, no map).", nil,
		func() float64 {
			cur, ok := m.shardMap.Current()
			if !ok {
				return 0
			}
			return float64(cur.Epoch)
		})
	s.Get("/cluster/map", func(ctx context.Context, q url.Values) (any, error) {
		cur, ok := m.shardMap.Current()
		if !ok {
			return nil, api.NotFound(errors.New("no cluster map published (single-node deployment)"))
		}
		return cur, nil
	})
	s.Handle(http.MethodPost, "/cluster/map", api.Body(m.setClusterMap))
	s.Handle(http.MethodPost, "/cluster/move", api.Body(m.moveShard))
	m.stream.Mount(s)
	return s
}

// setClusterMap publishes a whole shard map (epoch assigned by the
// registry) and announces it on the hub so watchers see the flip.
func (m *Master) setClusterMap(ctx context.Context, in cluster.Map) (cluster.Map, error) {
	out, err := m.shardMap.Set(in)
	if err != nil {
		return cluster.Map{}, api.BadRequest(err)
	}
	m.logf("master: cluster map set: epoch=%d shards=%d nodes=%v", out.Epoch, out.Shards, out.Nodes())
	m.publishEvent("cluster/map", out)
	return out, nil
}

// clusterMove is the body of POST /v1/cluster/move — the flip step of a
// shard handoff, called once the shard's data is in place on the
// target node.
type clusterMove struct {
	Shard int    `json:"shard"`
	Node  string `json:"node"`
}

func (m *Master) moveShard(ctx context.Context, in clusterMove) (cluster.Map, error) {
	out, err := m.shardMap.Move(in.Shard, in.Node)
	if err != nil {
		return cluster.Map{}, api.BadRequest(err)
	}
	m.logf("master: cluster map: shard %d -> %s (epoch %d)", in.Shard, in.Node, out.Epoch)
	m.publishEvent("cluster/map", out)
	return out, nil
}

// Handler returns the master's HTTP API.
func (m *Master) Handler() http.Handler { return m.apiS.Handler() }

// Serve binds the HTTP API to addr and returns the bound address.
func (m *Master) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: m.Handler(), ReadHeaderTimeout: 10 * time.Second}
	m.mu.Lock()
	m.srv = srv
	m.ln = ln
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			m.logf("master: serve: %v", err)
		}
	}()
	if m.opts.SweepEvery > 0 {
		m.wg.Add(1)
		go m.sweepLoop()
	}
	m.logf("master: listening on %s", ln.Addr())
	return ln.Addr().String(), nil
}

func (m *Master) sweepLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.opts.SweepEvery)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if n := m.reg.Sweep(m.opts.LivenessTTL); n > 0 {
				m.logf("master: swept %d stale proxies", n)
				m.publishEvent("registry/swept", map[string]int{"swept": n})
			}
		case <-m.stopCh:
			return
		}
	}
}

// Close shuts the HTTP server down.
func (m *Master) Close() {
	m.mu.Lock()
	srv := m.srv
	close(m.stopCh)
	m.mu.Unlock()
	if srv != nil {
		srv.Close()
	}
	m.wg.Wait()
	if err := m.stream.Close(); err != nil {
		m.logf("master: stream close: %v", err)
	}
}

// register accepts a proxy registration and links the proxy's URL into
// the ontology node it serves.
func (m *Master) register(ctx context.Context, reg registry.Registration) (map[string]string, error) {
	if err := m.reg.Register(reg); err != nil {
		return nil, err
	}
	// Link the proxy into the ontology when the entity exists. A
	// registration for a not-yet-modelled entity is kept in the
	// registry only; the ontology stays authoritative.
	if _, err := m.ont.Get(reg.EntityURI); err == nil {
		_ = m.ont.SetProperty(reg.EntityURI, ontology.PropProxyURI, reg.BaseURL)
		if reg.Protocol != "" {
			_ = m.ont.SetProperty(reg.EntityURI, ontology.PropProtocol, reg.Protocol)
		}
	}
	m.logf("master: registered %s (%s) at %s", reg.ID, reg.Kind, reg.BaseURL)
	m.publishEvent("registry/registered", reg)
	return map[string]string{"status": "registered", "id": reg.ID}, nil
}

// deregister removes a registration by id.
func (m *Master) deregister(ctx context.Context, q url.Values) (map[string]string, error) {
	id := q.Get("id")
	if err := m.reg.Deregister(id); err != nil {
		return nil, err
	}
	m.publishEvent("registry/deregistered", map[string]string{"id": id})
	return map[string]string{"status": "deregistered", "id": id}, nil
}

// heartbeat refreshes a registration's liveness.
func (m *Master) heartbeat(ctx context.Context, q url.Values) (map[string]string, error) {
	if err := m.reg.Heartbeat(q.Get("id")); err != nil {
		return nil, err
	}
	return map[string]string{"status": "ok"}, nil
}

// parseArea reads the optional bounding-box query parameters.
func parseArea(q url.Values) (ontology.Area, error) {
	raw := [4]string{q.Get("minLat"), q.Get("minLon"), q.Get("maxLat"), q.Get("maxLon")}
	if raw[0] == "" && raw[1] == "" && raw[2] == "" && raw[3] == "" {
		return ontology.Area{}, nil
	}
	var vals [4]float64
	for i, s := range raw {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return ontology.Area{}, fmt.Errorf("bad bounding box parameter %d: %q", i, s)
		}
		vals[i] = v
	}
	a := ontology.Area{MinLat: vals[0], MinLon: vals[1], MaxLat: vals[2], MaxLon: vals[3]}
	if a.MinLat > a.MaxLat || a.MinLon > a.MaxLon {
		return ontology.Area{}, errors.New("inverted bounding box")
	}
	return a, nil
}

// QueryResponse is the master's answer to an area query.
type QueryResponse struct {
	District string `json:"district"`
	// GISURI and MeasureURI are the district-level proxy services.
	GISURI     string                `json:"gisUri,omitempty"`
	MeasureURI string                `json:"measureUri,omitempty"`
	Entities   []ontology.Resolution `json:"entities"`
}

// query resolves an area to entity resolutions with proxy URIs.
func (m *Master) query(ctx context.Context, q url.Values) (any, error) {
	district := q.Get("district")
	if district == "" {
		return nil, api.BadRequest(errors.New("missing district parameter"))
	}
	area, err := parseArea(q)
	if err != nil {
		return nil, api.BadRequest(err)
	}
	entities, err := m.ont.ResolveArea(district, area)
	if err != nil {
		return nil, api.NotFound(err)
	}
	rsp := QueryResponse{District: district, Entities: entities}
	rootURI := ontology.DistrictURI(district)
	if v, ok := m.ont.Property(rootURI, ontology.PropGISURI); ok {
		rsp.GISURI = v
	}
	if v, ok := m.ont.Property(rootURI, ontology.PropMeasureURI); ok {
		rsp.MeasureURI = v
	}
	return rsp, nil
}

// devices resolves an entity to its device leaves.
func (m *Master) devices(ctx context.Context, q url.Values) (any, error) {
	entity := q.Get("entity")
	if entity == "" {
		return nil, api.BadRequest(errors.New("missing entity parameter"))
	}
	devices, err := m.ont.ResolveDevices(entity)
	if err != nil {
		return nil, api.NotFound(err)
	}
	return devices, nil
}

// ontologyDoc returns a subtree as a common-format entity document
// (content-negotiated JSON/XML).
func (m *Master) ontologyDoc(ctx context.Context, q url.Values) (any, error) {
	uri := q.Get("uri")
	if uri == "" {
		return nil, api.BadRequest(errors.New("missing uri parameter"))
	}
	e, err := m.ont.Entity(uri)
	if err != nil {
		return nil, api.NotFound(err)
	}
	return dataformat.NewEntityDoc(e), nil
}
