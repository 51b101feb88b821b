// Package dbproxy implements the Database-proxies of the paper: web
// services translating heterogeneous district databases (BIM, SIM, GIS)
// into the common open format and registering them on the master node.
// Every proxy serves its routes through the unified service-API layer
// (internal/api): versioned /v1 paths with legacy aliases, uniform
// error envelopes, and the standard middleware chain.
package dbproxy

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/bim"
	"repro/internal/dataformat"
	"repro/internal/gis"
	"repro/internal/ontology"
	"repro/internal/proxyhttp"
	"repro/internal/registry"
	"repro/internal/sim"
)

// common carries the plumbing all Database-proxies share.
type common struct {
	srv  proxyhttp.Server
	apiS *api.Server
	reg  *proxyhttp.Registrar
}

// conditional makes a model route revalidatable. The ETag names the
// model version, the negotiated encoding and the query, so a request
// whose If-None-Match still matches is answered 304 before next
// translates, solves, encodes or compresses anything. The version is
// read before the model: a mutation racing the request can label the
// newer body with the older tag (one spare refetch), never the reverse.
// The tag is weak because the gzip and identity codings share it.
func conditional(version func() uint64, next http.Handler) http.Handler {
	// Tells these versions from those of an earlier process that served
	// another model at the same address.
	born := time.Now().UnixNano()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		query := fnv.New64a()
		_, _ = query.Write([]byte(r.URL.RawQuery)) // a hash.Hash never fails a write
		etag := fmt.Sprintf(`W/"%x-%x-%s-%x"`, born, version(), api.NegotiateEncoding(r), query.Sum64())
		if !api.NotModified(w, r, etag) {
			next.ServeHTTP(w, r)
		}
	})
}

// Metrics exposes the per-route API metrics.
func (c *common) Metrics() *api.Metrics { return c.apiS.Metrics() }

// SetLegacyAliases toggles the unversioned route aliases at runtime
// (the -legacy-aliases escape hatch of cmd/dbproxy).
func (c *common) SetLegacyAliases(enabled bool) { c.apiS.SetLegacyAliases(enabled) }

// run starts the web service and, when masterURL is set, registration.
func (c *common) run(addr, masterURL string, handler http.Handler, r registry.Registration) (string, error) {
	bound, err := c.srv.Serve(addr, handler)
	if err != nil {
		return "", err
	}
	if masterURL != "" {
		r.BaseURL = "http://" + bound + "/"
		c.reg = &proxyhttp.Registrar{MasterURL: masterURL, Registration: r}
		if err := c.reg.Start(); err != nil {
			c.srv.Close()
			return "", err
		}
	}
	return bound, nil
}

// close stops registration and the web service.
func (c *common) close() {
	if c.reg != nil {
		c.reg.Stop()
	}
	c.srv.Close()
}

// BIMProxy serves one building's information model.
type BIMProxy struct {
	common
	district string
	mu       sync.RWMutex
	building *bim.Building
}

// NewBIMProxy wraps a decoded building model.
func NewBIMProxy(district string, b *bim.Building) (*BIMProxy, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	p := &BIMProxy{district: district, building: b}
	p.apiS = p.buildAPI()
	return p, nil
}

// EntityURI returns the building's ontology URI.
func (p *BIMProxy) EntityURI() string {
	return ontology.EntityURI(p.district, ontology.KindBuilding, p.building.ID)
}

// Handler returns the proxy's web interface:
//
//	GET /v1/model     the translated building (entity document, JSON/XML;
//	                  ETag / If-None-Match, one version: it never changes)
//	GET /v1/devices   device URIs placed in the building
//	GET /v1/metrics, /v1/healthz   (legacy unversioned aliases included)
func (p *BIMProxy) buildAPI() *api.Server {
	s := api.NewServer(api.Options{Service: "dbproxy-bim"})
	s.Handle(http.MethodGet, "/model", conditional(func() uint64 { return 0 },
		api.Query(func(ctx context.Context, q url.Values) (any, error) {
			p.mu.RLock()
			e := BuildingEntity(p.building, p.district)
			p.mu.RUnlock()
			return dataformat.NewEntityDoc(e), nil
		})))
	s.Get("/devices", func(ctx context.Context, q url.Values) (any, error) {
		p.mu.RLock()
		uris := p.building.DeviceURIs()
		p.mu.RUnlock()
		entities := make([]dataformat.Entity, len(uris))
		for i, uri := range uris {
			entities[i] = dataformat.Entity{URI: uri, Kind: dataformat.EntityDevice}
		}
		return dataformat.NewEntitySetDoc(entities), nil
	})
	return s
}

// Handler returns the proxy's web interface.
func (p *BIMProxy) Handler() http.Handler { return p.apiS.Handler() }

// Run starts the proxy and registers with the master when given.
func (p *BIMProxy) Run(addr, masterURL string) (string, error) {
	return p.run(addr, masterURL, p.Handler(), registry.Registration{
		ID:        "bim:" + p.building.ID,
		Kind:      registry.KindBIM,
		EntityURI: p.EntityURI(),
	})
}

// Close stops the proxy.
func (p *BIMProxy) Close() { p.close() }

// SIMProxy serves one distribution network's model.
type SIMProxy struct {
	common
	district string
	mu       sync.RWMutex
	network  *sim.Network
	version  atomic.Uint64 // bumped by every SetDemand
}

// NewSIMProxy wraps a decoded network model.
func NewSIMProxy(district string, n *sim.Network) (*SIMProxy, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	p := &SIMProxy{district: district, network: n}
	p.apiS = p.buildAPI()
	return p, nil
}

// EntityURI returns the network's ontology URI.
func (p *SIMProxy) EntityURI() string {
	return ontology.EntityURI(p.district, ontology.KindNetwork, p.network.ID)
}

// SetDemand updates a substation demand (used by scenario drivers).
func (p *SIMProxy) SetDemand(nodeID string, kw float64) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.version.Add(1)
	return p.network.SetDemand(nodeID, kw)
}

// Handler returns the proxy's web interface:
//
//	GET /v1/model      the translated network with solved flows (ETag /
//	                   If-None-Match; SetDemand moves the version)
//	GET /v1/solution   the raw steady-state solution (JSON)
//	GET /v1/metrics, /v1/healthz   (legacy unversioned aliases included)
func (p *SIMProxy) buildAPI() *api.Server {
	s := api.NewServer(api.Options{Service: "dbproxy-sim"})
	s.Handle(http.MethodGet, "/model", conditional(p.version.Load,
		api.Query(func(ctx context.Context, q url.Values) (any, error) {
			p.mu.RLock()
			e, err := NetworkEntity(p.network, p.district)
			p.mu.RUnlock()
			if err != nil {
				return nil, api.Internal(err)
			}
			return dataformat.NewEntityDoc(e), nil
		})))
	s.Get("/solution", func(ctx context.Context, q url.Values) (any, error) {
		p.mu.RLock()
		sol, err := p.network.Solve()
		p.mu.RUnlock()
		if err != nil {
			return nil, api.Internal(err)
		}
		return sol, nil
	})
	return s
}

// Handler returns the proxy's web interface.
func (p *SIMProxy) Handler() http.Handler { return p.apiS.Handler() }

// Run starts the proxy and registers with the master when given.
func (p *SIMProxy) Run(addr, masterURL string) (string, error) {
	return p.run(addr, masterURL, p.Handler(), registry.Registration{
		ID:        "sim:" + p.network.ID,
		Kind:      registry.KindSIM,
		EntityURI: p.EntityURI(),
	})
}

// Close stops the proxy.
func (p *SIMProxy) Close() { p.close() }

// GISProxy serves a district's geographic database.
type GISProxy struct {
	common
	district string
	store    *gis.Store
}

// NewGISProxy wraps a GIS store.
func NewGISProxy(district string, store *gis.Store) *GISProxy {
	p := &GISProxy{district: district, store: store}
	p.apiS = p.buildAPI()
	return p
}

// EntityURI returns the district URI the GIS serves.
func (p *GISProxy) EntityURI() string { return ontology.DistrictURI(p.district) }

// Store exposes the underlying store (simulation wiring).
func (p *GISProxy) Store() *gis.Store { return p.store }

// Handler returns the proxy's web interface:
//
//	GET /v1/features?minLat=&minLon=&maxLat=&maxLon=   bbox query
//	GET /v1/features?lat=&lon=&radius=                 radius query
//	        (both: ETag / If-None-Match; a store mutation moves the version)
//	GET /v1/feature?id=...
//	GET /v1/metrics, /v1/healthz   (legacy unversioned aliases included)
func (p *GISProxy) buildAPI() *api.Server {
	s := api.NewServer(api.Options{Service: "dbproxy-gis"})
	s.Handle(http.MethodGet, "/features", conditional(p.store.Version, api.Query(p.features)))
	s.Get("/feature", p.feature)
	return s
}

// Handler returns the proxy's web interface.
func (p *GISProxy) Handler() http.Handler { return p.apiS.Handler() }

func (p *GISProxy) features(ctx context.Context, q url.Values) (any, error) {
	var feats []gis.Feature
	var err error
	switch {
	case q.Get("radius") != "":
		lat, err1 := strconv.ParseFloat(q.Get("lat"), 64)
		lon, err2 := strconv.ParseFloat(q.Get("lon"), 64)
		radius, err3 := strconv.ParseFloat(q.Get("radius"), 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, api.BadRequest(errors.New("radius query needs lat, lon, radius"))
		}
		feats, err = p.store.QueryRadius(gis.Point{Lat: lat, Lon: lon}, radius)
	case q.Get("minLat") != "":
		var box gis.BBox
		sides := [4]*float64{&box.MinLat, &box.MinLon, &box.MaxLat, &box.MaxLon}
		for i, name := range [4]string{"minLat", "minLon", "maxLat", "maxLon"} {
			if *sides[i], err = strconv.ParseFloat(q.Get(name), 64); err != nil {
				return nil, api.BadRequest(fmt.Errorf("bad %s %q", name, q.Get(name)))
			}
		}
		feats, err = p.store.QueryBBox(box)
	default:
		return nil, api.BadRequest(errors.New("need a bbox or radius query"))
	}
	if err != nil {
		return nil, api.BadRequest(err)
	}
	entities := make([]dataformat.Entity, len(feats))
	for i := range feats {
		entities[i] = FeatureEntity(&feats[i])
	}
	return dataformat.NewEntitySetDoc(entities), nil
}

func (p *GISProxy) feature(ctx context.Context, q url.Values) (any, error) {
	id := q.Get("id")
	if id == "" {
		return nil, api.BadRequest(errors.New("missing id parameter"))
	}
	f, err := p.store.Get(id)
	if err != nil {
		return nil, api.NotFound(err)
	}
	return dataformat.NewEntityDoc(FeatureEntity(&f)), nil
}

// Run starts the proxy and registers with the master when given.
func (p *GISProxy) Run(addr, masterURL string) (string, error) {
	return p.run(addr, masterURL, p.Handler(), registry.Registration{
		ID:        "gis:" + p.district,
		Kind:      registry.KindGIS,
		EntityURI: p.EntityURI(),
	})
}

// Close stops the proxy.
func (p *GISProxy) Close() { p.close() }
