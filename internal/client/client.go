// Package client is the end-user application library: the consumer side
// of the paper's architecture. It queries the master node for an area,
// receives the proxies' web-service URIs, fetches each proxy's
// translated model and data directly (the master redirects, it does not
// aggregate), and integrates everything into a comprehensive AreaModel
// via the integration engine.
//
// The library is organised as typed sub-clients over one shared
// transport, mirroring the service surfaces:
//
//	c.Catalog()                  master node: area queries, device
//	                             resolution, ontology, registrations
//	c.Measurements(baseURL)      measurements DB /v2 query data plane:
//	                             batch query, cursor pages, auto-
//	                             depaginating iterator, NDJSON streaming
//	c.Ingest(baseURL)            measurements DB /v2 ingest data plane:
//	                             batched appends, auto-flushing batch
//	                             builder, NDJSON streaming writer,
//	                             idempotent retries
//	c.Devices()                  device proxies: info/latest/data reads
//	                             and (batch) actuation
//	c.Streams()                  live SSE subscriptions + publish ingress
//	c.Ops(baseURL)               any service's ops surface: metrics
//	                             snapshots and retained trace spans
//
// All methods take a context.Context, speak the versioned /v1 and /v2
// APIs, and ride the shared retrying transport (internal/api):
// transient failures back off exponentially with jitter, and concurrent
// proxy fetches reuse pooled keep-alive connections under the
// configured concurrency bound.
package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/integration"
)

// Client talks to one master node and the proxies it redirects to. It
// is the root of the sub-client family; the sub-clients share its
// transport, encoding, and retry configuration.
type Client struct {
	// MasterURL is the master node's base URL.
	MasterURL string
	// HTTP overrides the transport's pooled HTTP client.
	HTTP *http.Client
	// Encoding selects the preferred proxy encoding (default JSON).
	Encoding dataformat.Encoding
	// Concurrency bounds parallel proxy fetches (default 8).
	Concurrency int
	// MaxAttempts bounds tries per request (default 3; 1 disables
	// retries). BaseDelay/MaxDelay tune the backoff.
	MaxAttempts int
	// BaseDelay is the first backoff step (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 2s).
	MaxDelay time.Duration

	trOnce sync.Once
	tr     *api.Transport
}

// Area is a bounding box for area queries; the zero Area means the
// whole district.
type Area struct {
	MinLat, MinLon, MaxLat, MaxLon float64
}

// Empty reports whether the area is the whole-district marker.
func (a Area) Empty() bool { return a == Area{} }

// Errors returned by the client.
var ErrMaster = errors.New("client: master request failed")

// transport lazily builds the shared typed transport.
func (c *Client) transport() *api.Transport {
	c.trOnce.Do(func() {
		c.tr = &api.Transport{
			Client:      c.HTTP,
			MaxAttempts: c.MaxAttempts,
			BaseDelay:   c.BaseDelay,
			MaxDelay:    c.MaxDelay,
		}
	})
	return c.tr
}

func (c *Client) enc() dataformat.Encoding {
	if c.Encoding == "" {
		return dataformat.JSON
	}
	return c.Encoding
}

// masterURL builds a versioned master endpoint URL.
func (c *Client) masterURL(pathAndQuery string) string {
	return api.URL(c.MasterURL, pathAndQuery)
}

// getJSON fetches a master JSON endpoint into v.
func (c *Client) getJSON(ctx context.Context, rawURL string, v any) error {
	if err := c.transport().GetJSON(ctx, rawURL, v); err != nil {
		var se *api.StatusError
		if errors.As(err, &se) {
			return fmt.Errorf("%w: %s: %d %s", ErrMaster, se.URL, se.Status, se.Body)
		}
		return fmt.Errorf("%w: %v", ErrMaster, err)
	}
	return nil
}

// FetchModel retrieves a Database-proxy's translated model document
// (BIM building, SIM network).
func (c *Client) FetchModel(ctx context.Context, proxyURI string) (*dataformat.Entity, error) {
	doc, err := c.transport().GetDoc(ctx, joinURL(proxyURI, "model"), c.enc())
	if err != nil {
		return nil, err
	}
	if doc.Entity == nil {
		return nil, fmt.Errorf("client: %s returned a %q document, want entity", proxyURI, doc.Kind)
	}
	return doc.Entity, nil
}

// FetchGISFeatures retrieves the GIS features of an area.
func (c *Client) FetchGISFeatures(ctx context.Context, gisURI string, area Area) ([]dataformat.Entity, error) {
	u := joinURL(gisURI, "features")
	if area.Empty() {
		// The GIS proxy requires a box; ask for the whole world.
		area = Area{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	}
	u += fmt.Sprintf("?minLat=%g&minLon=%g&maxLat=%g&maxLon=%g",
		area.MinLat, area.MinLon, area.MaxLat, area.MaxLon)
	doc, err := c.transport().GetDoc(ctx, u, c.enc())
	if err != nil {
		return nil, err
	}
	return doc.Entities, nil
}

// ---------------------------------------------------------------------
// Integration flow
// ---------------------------------------------------------------------

// BuildOptions tune BuildAreaModel.
type BuildOptions struct {
	// IncludeDevices fetches each entity's device list and the latest
	// sample of every sensed quantity from the device proxies.
	IncludeDevices bool
	// History, when positive, additionally fetches each device's
	// buffered samples over the trailing window.
	History time.Duration
	// IncludeGIS fetches the district GIS features for the area.
	IncludeGIS bool
}

// BuildAreaModel runs the full end-user flow of the paper: master query
// → parallel proxy fetches → integration into a comprehensive model.
// Cancelling ctx aborts in-flight fetches and backoff sleeps.
func (c *Client) BuildAreaModel(ctx context.Context, district string, area Area, opts BuildOptions) (*integration.AreaModel, error) {
	qr, err := c.Catalog().Query(ctx, district, area)
	if err != nil {
		return nil, err
	}
	merger := integration.NewMerger(district)
	conc := c.Concurrency
	if conc <= 0 {
		conc = 8
	}
	sem := make(chan struct{}, conc)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error
	fail := func(err error) {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	for _, res := range qr.Entities {
		if res.ProxyURI == "" {
			continue // entity not yet served by any proxy
		}
		if ctx.Err() != nil {
			fail(ctx.Err())
			break
		}
		res := res
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			model, err := c.FetchModel(ctx, res.ProxyURI)
			if err != nil {
				fail(fmt.Errorf("model of %s: %w", res.URI, err))
				return
			}
			merger.AddEntity(res.ProxyURI, *model)
			if opts.IncludeDevices {
				c.fetchDevices(ctx, merger, res.URI, opts, fail)
			}
		}()
	}
	if opts.IncludeGIS && qr.GISURI != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			features, err := c.FetchGISFeatures(ctx, qr.GISURI, area)
			if err != nil {
				fail(fmt.Errorf("gis features: %w", err))
				return
			}
			for _, f := range features {
				merger.AddEntity(qr.GISURI, f)
			}
		}()
	}
	wg.Wait()
	model := merger.Result()
	if len(errs) > 0 {
		return model, errors.Join(errs...)
	}
	return model, nil
}

// fetchDevices pulls device info + data for one entity's devices.
func (c *Client) fetchDevices(ctx context.Context, merger *integration.Merger, entityURI string, opts BuildOptions, fail func(error)) {
	devices, err := c.Catalog().Devices(ctx, entityURI)
	if err != nil {
		fail(fmt.Errorf("devices of %s: %w", entityURI, err))
		return
	}
	dc := c.Devices()
	for _, d := range devices {
		if d.ProxyURI == "" {
			continue
		}
		if ctx.Err() != nil {
			fail(ctx.Err())
			return
		}
		info, err := dc.Info(ctx, d.ProxyURI)
		if err != nil {
			fail(fmt.Errorf("info of %s: %w", d.URI, err))
			continue
		}
		e := dataformat.Entity{URI: d.URI, Kind: dataformat.EntityDevice, Name: info.Name}
		e.SetProp("protocol", info.Protocol, "string")
		e.SetProp("proxy.uri", d.ProxyURI, "uri")
		merger.AddEntity(d.ProxyURI, e)
		for _, q := range info.Senses {
			if opts.History > 0 {
				ms, err := dc.Data(ctx, d.ProxyURI, q, time.Now().Add(-opts.History), time.Time{})
				if err == nil {
					merger.AddMeasurements(d.ProxyURI, ms)
					continue
				}
			}
			m, err := dc.Latest(ctx, d.ProxyURI, q)
			if err != nil {
				continue // no sample yet is not an integration failure
			}
			merger.AddMeasurements(d.ProxyURI, []dataformat.Measurement{*m})
		}
	}
}
