// Package client is the end-user application library: the consumer side
// of the paper's architecture. It queries the master node for an area,
// receives the URIs of the area's model and device proxies in that one
// answer, fetches each proxy's translated model directly (the master
// redirects, it does not aggregate; a model the client already holds is
// revalidated, not re-sent), reads the devices' data from the global
// measurements database in one batch query (from a device's own proxy
// only when the database has nothing for it), and integrates everything
// into a comprehensive AreaModel via the integration engine.
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
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/dataformat"
	"repro/internal/integration"
	"repro/internal/measuredb"
	"repro/internal/ontology"
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

	docs sync.Map // encoding + " " + route → heldDoc; see fetchDoc
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

// streamHTTP is the HTTP client for bodies sent or read as they flow:
// the caller's transport (pooling, TLS) without its whole-request
// timeout, which would cut a long body mid-way, or the shared
// streaming client. Such a call is bounded by its context.
func (c *Client) streamHTTP() *http.Client {
	if c.HTTP != nil {
		return &http.Client{Transport: c.HTTP.Transport, Jar: c.HTTP.Jar}
	}
	return api.StreamHTTPClient()
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

// heldDoc is the last document a Database-proxy route answered, the URL
// (query included) it answered it to and the ETag it came under.
type heldDoc struct {
	url, etag string
	doc       *dataformat.Document
}

// fetchDoc reads a Database-proxy document, revalidating the copy the
// client holds from its last fetch of the same URL in the same encoding:
// an unchanged model costs the proxy a 304 and the client no decode. One
// document is held per route and encoding (a new query on a route
// replaces the last), so the client holds no more than the proxies it
// has talked to serve.
func (c *Client) fetchDoc(ctx context.Context, u string) (*dataformat.Document, error) {
	enc := c.enc()
	route, _, _ := strings.Cut(u, "?")
	key := string(enc) + " " + route
	var held heldDoc
	if v, ok := c.docs.Load(key); ok && v.(heldDoc).url == u {
		held = v.(heldDoc)
	}
	doc, etag, err := c.transport().GetDocIfChanged(ctx, u, enc, held.etag)
	if err != nil {
		return nil, err
	}
	if doc == nil {
		return held.doc, nil // 304: what we hold is current
	}
	if etag != "" {
		c.docs.Store(key, heldDoc{url: u, etag: etag, doc: doc})
	}
	return doc, nil
}

// FetchModel retrieves a Database-proxy's translated model document
// (BIM building, SIM network). An unchanged model is answered from the
// copy the client holds, so the returned entity is shared with later
// calls: read it, copy before changing it.
func (c *Client) FetchModel(ctx context.Context, proxyURI string) (*dataformat.Entity, error) {
	doc, err := c.fetchDoc(ctx, joinURL(proxyURI, "model"))
	if err != nil {
		return nil, err
	}
	if doc.Entity == nil {
		return nil, fmt.Errorf("client: %s returned a %q document, want entity", proxyURI, doc.Kind)
	}
	return doc.Entity, nil
}

// FetchGISFeatures retrieves the GIS features of an area; like
// FetchModel's, the result is shared with later calls.
func (c *Client) FetchGISFeatures(ctx context.Context, gisURI string, area Area) ([]dataformat.Entity, error) {
	u := joinURL(gisURI, "features")
	if area.Empty() {
		// The GIS proxy requires a box; ask for the whole world.
		area = Area{MinLat: -90, MinLon: -180, MaxLat: 90, MaxLon: 180}
	}
	u += fmt.Sprintf("?minLat=%g&minLon=%g&maxLat=%g&maxLon=%g",
		area.MinLat, area.MinLon, area.MaxLat, area.MaxLon)
	doc, err := c.fetchDoc(ctx, u)
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
	// IncludeDevices adds each entity's devices and the latest sample of
	// every quantity they sense.
	IncludeDevices bool
	// History, when positive, adds each device's samples over the
	// trailing window instead of only the latest.
	History time.Duration
	// IncludeGIS fetches the district GIS features for the area.
	IncludeGIS bool
}

// BuildAreaModel runs the full end-user flow of the paper: master query
// → parallel proxy fetches → integration into a comprehensive model.
// The master's one answer names the area's model proxies, its device
// proxies and the district services, so a call is 3 + P requests for P
// model proxies: the area query, a model per proxy (a 304 once the
// client holds it), the GIS features, and one batch query to the global
// measurements database for every device's data. Only a device the
// database cannot answer for is read from its own proxy. Cancelling ctx
// aborts in-flight fetches and backoff sleeps; failed parts are
// reported beside the partial model.
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
	// spawn runs task under the concurrency bound. Once ctx is done it
	// starts nothing more; the cancellation is reported once, below.
	spawn := func(task func()) {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			task()
		}()
	}

	var devices []ontology.Resolution
	if opts.IncludeDevices {
		for _, res := range qr.Entities {
			for _, d := range res.Devices {
				if d.ProxyURI != "" {
					devices = append(devices, d)
				}
			}
		}
	}
	// The database read goes first: it is the longest single request and
	// everything else overlaps it.
	var measured map[string]bool
	if len(devices) > 0 && qr.MeasureURI != "" {
		spawn(func() { measured = c.measuredDevices(ctx, merger, qr.MeasureURI, devices, opts.History) })
	}
	for _, res := range qr.Entities {
		if res.ProxyURI == "" {
			continue // entity not yet served by any proxy
		}
		spawn(func() {
			model, err := c.FetchModel(ctx, res.ProxyURI)
			if err != nil {
				fail(fmt.Errorf("model of %s: %w", res.URI, err))
				return
			}
			merger.AddEntity(res.ProxyURI, *model)
		})
	}
	if opts.IncludeGIS && qr.GISURI != "" {
		spawn(func() {
			features, err := c.FetchGISFeatures(ctx, qr.GISURI, area)
			if err != nil {
				fail(fmt.Errorf("gis features: %w", err))
				return
			}
			for _, f := range features {
				merger.AddEntity(qr.GISURI, f)
			}
		})
	}
	wg.Wait()
	for _, d := range devices {
		if !measured[d.URI] {
			spawn(func() { c.deviceFromProxy(ctx, merger, d, opts.History, fail) })
		}
	}
	wg.Wait()

	return merger.Result(), errors.Join(append(errs, ctx.Err())...) // Join drops nils
}

// deviceEntity is a device as the area model carries it.
func deviceEntity(uri, name, protocol, proxyURI string) dataformat.Entity {
	e := dataformat.Entity{URI: uri, Kind: dataformat.EntityDevice, Name: name}
	e.SetProp(ontology.PropProtocol, protocol, "string")
	e.SetProp(ontology.PropProxyURI, proxyURI, "uri")
	return e
}

// measuredDevices reads the devices' data from the global measurements
// database, one batch query per MaxBatchSelectors devices (each series'
// latest sample, or with history > 0 its trailing window), and merges
// every device it could answer for: the database holds a series of it
// and its registration told the master its protocol. Any other device,
// failures included, is left out of the returned set.
func (c *Client) measuredDevices(ctx context.Context, merger *integration.Merger, measureURI string, devices []ontology.Resolution, history time.Duration) map[string]bool {
	meas := c.Measurements(measureURI)
	req := measuredb.BatchQuery{Latest: history <= 0}
	if history > 0 {
		req.From, req.Limit = time.Now().Add(-history), measuredb.MaxPageLimit
	}
	done := make(map[string]bool, len(devices))
	for len(devices) > 0 {
		chunk := devices[:min(len(devices), measuredb.MaxBatchSelectors)]
		devices = devices[len(chunk):]
		req.Selectors = req.Selectors[:0]
		for _, d := range chunk {
			req.Selectors = append(req.Selectors, measuredb.SeriesSelector{Device: d.URI})
		}
		rsp, err := meas.Query(ctx, req)
		if err != nil || len(rsp.Results) != len(chunk) {
			continue
		}
		for i, res := range rsp.Results {
			d := chunk[i]
			protocol := d.Extra[ontology.PropProtocol]
			if res.Error != "" || len(res.Series) == 0 || protocol == "" {
				continue
			}
			if ms, err := meas.measurements(ctx, res.Series, protocol, req.From); err == nil {
				merger.AddEntity(c.MasterURL, deviceEntity(d.URI, d.Name, protocol, d.ProxyURI))
				merger.AddMeasurements(measureURI, ms)
				done[d.URI] = true
			}
		}
	}
	return done
}

// measurements turns batch series back into common-format measurements
// the way the database's own documents are built: canonical unit, the
// database as source. A series the batch cut at its limit is read again
// whole, from `from`, through the depaginating iterator.
func (m *Measurements) measurements(ctx context.Context, series []measuredb.BatchSeries, protocol string, from time.Time) ([]dataformat.Measurement, error) {
	out := []dataformat.Measurement{}
	for _, bs := range series {
		points := bs.Samples
		if bs.Truncated {
			points = points[:0]
			it := m.Iter(ctx, bs.Device, bs.Quantity, WithRange(from, time.Time{}), WithLimit(measuredb.MaxPageLimit))
			for p, ok := it.Next(); ok; p, ok = it.Next() {
				points = append(points, p)
			}
			if err := it.Err(); err != nil {
				return nil, err
			}
		}
		unit, _ := dataformat.CanonicalUnit(dataformat.Quantity(bs.Quantity))
		for _, p := range points {
			out = append(out, dataformat.Measurement{
				Source: m.base, Device: bs.Device, Protocol: protocol,
				Quantity: dataformat.Quantity(bs.Quantity), Unit: unit,
				Value: p.Value, Timestamp: p.At,
			})
		}
	}
	return out, nil
}

// deviceFromProxy reads one device from its own proxy: its description,
// then per sensed quantity the trailing window (history > 0) or the
// latest sample.
func (c *Client) deviceFromProxy(ctx context.Context, merger *integration.Merger, d ontology.Resolution, history time.Duration, fail func(error)) {
	dc := c.Devices()
	info, err := dc.Info(ctx, d.ProxyURI)
	if err != nil {
		fail(fmt.Errorf("info of %s: %w", d.URI, err))
		return
	}
	merger.AddEntity(d.ProxyURI, deviceEntity(d.URI, info.Name, info.Protocol, d.ProxyURI))
	for _, q := range info.Senses {
		if history > 0 {
			ms, err := dc.Data(ctx, d.ProxyURI, q, time.Now().Add(-history), time.Time{})
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
