package measuredb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/proxyhttp"
	"repro/internal/tsdb"
)

// Coordinator is the cluster's query/ingest router: a measuredb-shaped
// /v2 surface that owns no shards. It resolves the master-published
// shard map and fans each request out to the owner nodes — an exact
// device routes straight to its one owner, globs scatter to every node
// and k-way merge — so /v2 clients see one database however many hosts
// hold it.
//
// Routing is epoch-aware end to end: every forwarded request carries
// X-Cluster-Epoch, a node that rejects it with a retryable cluster
// envelope (stale epoch, shard frozen mid-handoff, ownership moved)
// triggers a map refresh and a bounded re-route. Page cursors are the
// nodes' own: they are value-based, so a cursor cut under one owner
// resumes correctly against the next.
//
// Ingest is exactly-once end to end when the client sends an
// Idempotency-Key: the batch is partitioned per owner and forwarded
// under derived sub-keys ("<key>@<node>"), so a coordinator-level retry
// — or the client replaying the whole request after a 503 — replays
// already-applied partitions from each node's idempotency window
// instead of re-appending them.
type Coordinator struct {
	res *cluster.Resolver
	t   *api.Transport

	srv  proxyhttp.Server
	apiS *api.Server
	reg  *obs.Registry

	fanout     map[string]*obs.Histogram // per-route fan-out latency
	mu         sync.Mutex
	fwdErrs    map[string]*obs.Counter // per-node forward errors
	fwdRetries map[string]*obs.Counter // per-node ownership retries
}

// CoordinatorOptions configure a cluster coordinator.
type CoordinatorOptions struct {
	// Master is the base URL publishing /v1/cluster/map (required).
	Master string
	// Logger receives access-log lines; nil silences them.
	Logger api.Logger
	// Refresh is the shard-map cache TTL (0 = cluster.DefaultRefresh).
	Refresh time.Duration
	// Transport overrides the fan-out transport. The default keeps
	// per-call retries short so the coordinator's own refresh-and-reroute
	// loop — which can actually fix an ownership error — drives recovery.
	Transport *api.Transport
	// EnablePprof mounts /debug/pprof on the coordinator's interface.
	EnablePprof bool
	// SlowRequest is the span-duration threshold above which requests
	// are logged (0 = 1s; negative disables).
	SlowRequest time.Duration
}

// coordinator fan-out and retry bounds.
const (
	// coordIngestAttempts bounds refresh-and-reroute rounds per ingest
	// request; rows still undeliverable after that fail the request with
	// a retryable envelope.
	coordIngestAttempts = 4
	// coordReadAttempts bounds re-routes of read fan-outs.
	coordReadAttempts = 2
)

// OpenCoordinator starts a coordinator over the cluster whose map the
// master publishes.
func OpenCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Master == "" {
		return nil, errors.New("coordinator requires a master URL")
	}
	t := opts.Transport
	if t == nil {
		t = &api.Transport{MaxAttempts: 2, BaseDelay: 25 * time.Millisecond, MaxDelay: 250 * time.Millisecond}
	}
	c := &Coordinator{
		res:        cluster.NewResolver(opts.Master, t, opts.Refresh),
		t:          t,
		reg:        obs.NewRegistry(),
		fanout:     make(map[string]*obs.Histogram),
		fwdErrs:    make(map[string]*obs.Counter),
		fwdRetries: make(map[string]*obs.Counter),
	}
	for _, route := range []string{"series", "samples", "latest", "aggregate", "query", "ingest", "put_samples", "stats"} {
		c.fanout[route] = c.reg.Histogram("repro_cluster_fanout_seconds",
			"Coordinator fan-out latency per route (resolve + forward + merge).",
			obs.LatencyBuckets, obs.Labels{"route": route})
	}
	c.reg.GaugeFunc("repro_cluster_map_epoch",
		"Epoch of the coordinator's cached shard map (0 = not yet resolved).", nil,
		func() float64 { return float64(c.res.CachedEpoch()) })
	c.apiS = c.buildAPI(opts)
	return c, nil
}

// forwardErr bumps the per-node forward-failure counter, lazily
// creating the labelset (node cardinality is bounded by cluster size).
func (c *Coordinator) forwardErr(node string) {
	c.mu.Lock()
	ctr := c.fwdErrs[node]
	if ctr == nil {
		ctr = c.reg.Counter("repro_cluster_forward_errors_total",
			"Forwarded requests that failed, by owner node.", obs.Labels{"node": node})
		c.fwdErrs[node] = ctr
	}
	c.mu.Unlock()
	ctr.Inc()
}

// forwardRetry bumps the per-node reroute counter.
func (c *Coordinator) forwardRetry(node string) {
	c.mu.Lock()
	ctr := c.fwdRetries[node]
	if ctr == nil {
		ctr = c.reg.Counter("repro_cluster_forward_retries_total",
			"Forwards re-routed after a map refresh, by the node that rejected.", obs.Labels{"node": node})
		c.fwdRetries[node] = ctr
	}
	c.mu.Unlock()
	ctr.Inc()
}

// buildAPI mounts the coordinator's /v2 surface (mirroring mountV2) and
// the v1 odds and ends clients expect from a measuredb base URL.
func (c *Coordinator) buildAPI(opts CoordinatorOptions) *api.Server {
	srv := api.NewServer(api.Options{
		Service:     "measuredb-coordinator",
		Logger:      opts.Logger,
		EnablePprof: opts.EnablePprof,
		SlowRequest: opts.SlowRequest,
	})
	srv.Metrics().AttachRegistry(c.reg)
	srv.HandleV2(http.MethodGet, "/series", http.HandlerFunc(c.v2Series))
	srv.HandleV2(http.MethodGet, "/series/{device}/{quantity}/samples", c.deviceProxy("samples"))
	srv.HandleV2(http.MethodGet, "/series/{device}/{quantity}/latest", c.deviceProxy("latest"))
	srv.HandleV2(http.MethodGet, "/series/{device}/{quantity}/aggregate", c.deviceProxy("aggregate"))
	srv.HandleV2(http.MethodPost, "/query", http.HandlerFunc(c.v2Query))
	srv.HandleV2(http.MethodPost, "/ingest", http.HandlerFunc(c.v2Ingest))
	srv.HandleV2(http.MethodPut, "/series/{device}/{quantity}/samples", c.deviceProxy("put_samples"))
	srv.Get("/stats", c.stats)
	srv.Get("/cluster/map", func(ctx context.Context, q url.Values) (any, error) {
		return c.resolve(ctx)
	})
	return srv
}

// Handler returns the coordinator's web interface.
func (c *Coordinator) Handler() http.Handler { return c.apiS.Handler() }

// Serve binds the web interface and returns the bound address.
func (c *Coordinator) Serve(addr string) (string, error) {
	return c.srv.Serve(addr, c.Handler())
}

// Close stops the web interface.
func (c *Coordinator) Close() { c.srv.Close() }

// resolve returns the freshest shard map available, surfacing "no map
// yet" as a retryable condition — a cluster client may simply have
// started before the topology was published.
func (c *Coordinator) resolve(ctx context.Context) (cluster.Map, error) {
	m, err := c.res.Get(ctx)
	if err != nil {
		return cluster.Map{}, &api.Error{Status: http.StatusServiceUnavailable, Code: "no_cluster_map",
			Err: fmt.Errorf("no shard map: %w", err)}
	}
	return m, nil
}

// observe records one route's fan-out latency.
func (c *Coordinator) observe(route string, start time.Time) {
	if h := c.fanout[route]; h != nil {
		h.ObserveDuration(time.Since(start))
	}
}

// ---------------------------------------------------------------------
// Forwarding plumbing
// ---------------------------------------------------------------------

// reroutable reports whether a forward error should trigger a map
// refresh and re-route: the node said so explicitly (a retryable
// cluster envelope), any 503, or the node was plain unreachable — in
// every case the freshest map is the coordinator's best next move.
func reroutable(err error) bool {
	var se *api.StatusError
	if !errors.As(err, &se) {
		return true // transport-level failure: node gone, maybe moved
	}
	return se.Status == http.StatusServiceUnavailable
}

// writeUpstream relays a forward failure to the client, preserving the
// node's envelope (status, code, message) when there is one.
func writeUpstream(w http.ResponseWriter, r *http.Request, err error) {
	var se *api.StatusError
	if !errors.As(err, &se) {
		api.WriteError(w, r, api.WithStatus(http.StatusBadGateway, err))
		return
	}
	if se.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	var env api.Envelope
	if json.Unmarshal([]byte(se.Body), &env) == nil && env.Error != "" {
		api.WriteError(w, r, &api.Error{Status: se.Status, Code: env.Code, Err: errors.New(env.Error)})
		return
	}
	api.WriteErrorStatus(w, r, se.Status, errors.New(se.Body))
}

// forward performs one epoch-stamped call to a node and returns the
// 2xx response with its body unread (the caller closes it), bumping the
// per-node error counter on failure. Hops inside the cluster ask for
// identity coding: the edge compresses once for clients that want it,
// so a node deflating for the coordinator to inflate is pure waste.
func (c *Coordinator) forward(ctx context.Context, method, u string, epoch uint64, header http.Header, body []byte) (*http.Response, error) {
	if header == nil {
		header = http.Header{}
	}
	header.Set(cluster.EpochHeader, strconv.FormatUint(epoch, 10))
	header.Set("Accept-Encoding", "identity")
	rsp, err := c.t.Open(ctx, method, u, header, body)
	if err != nil {
		c.forwardErr(nodeOf(u))
	}
	return rsp, err
}

// forwardBody is forward for the callers that decode the whole reply.
func (c *Coordinator) forwardBody(ctx context.Context, method, u string, epoch uint64, header http.Header, body []byte) ([]byte, error) {
	rsp, err := c.forward(ctx, method, u, epoch, header, body)
	if err != nil {
		return nil, err
	}
	defer rsp.Body.Close()
	return c.readBody(rsp)
}

// readBody reads a node reply whole (bounded by api.MaxResponseBytes).
func (c *Coordinator) readBody(rsp *http.Response) ([]byte, error) {
	raw, err := api.ReadBody(rsp.Body)
	if err != nil {
		return nil, c.readErr(rsp, err)
	}
	return raw, nil
}

// readErr counts a reply that failed mid-body against its node.
func (c *Coordinator) readErr(rsp *http.Response, err error) error {
	c.forwardErr(nodeOf(rsp.Request.URL.String()))
	return fmt.Errorf("read %s %s: %w", rsp.Request.Method, rsp.Request.URL, err)
}

// nodeOf reduces a forwarded URL to its node base for metric labels.
func nodeOf(u string) string {
	if p, err := url.Parse(u); err == nil && p.Host != "" {
		return p.Scheme + "://" + p.Host
	}
	return u
}

// ---------------------------------------------------------------------
// Per-device routes: one owner, straight proxy
// ---------------------------------------------------------------------

// deviceProxy forwards one exact-device route to the shard owner,
// re-resolving and re-routing once when the owner rejects with a
// retryable cluster envelope (or fails before its first body byte).
// Every body — JSON pages, NDJSON and CSV ranges of any size — is
// copied through verbatim as it arrives.
func (c *Coordinator) deviceProxy(route string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer c.observe(route, time.Now())
		p := api.ParamsOf(r)
		device, quantity := p.Get("device"), p.Get("quantity")
		if device == "" || quantity == "" {
			api.WriteError(w, r, api.BadRequest(errors.New("missing device or quantity path segment")))
			return
		}
		var body []byte
		if r.Body != nil && (r.Method == http.MethodPut || r.Method == http.MethodPost) {
			var err error
			if body, err = readAll(w, r); err != nil {
				api.WriteError(w, r, api.BadRequest(err))
				return
			}
		}
		suffix := route
		if route == "put_samples" { // PUT shares the samples path
			suffix = "samples"
		}
		path := "/series/" + url.PathEscape(device) + "/" + url.PathEscape(quantity) + "/" + suffix + "?" + r.URL.Query().Encode()
		var lastErr error
		for attempt := 0; attempt < coordReadAttempts; attempt++ {
			m, err := c.resolve(r.Context())
			if err != nil {
				api.WriteError(w, r, err)
				return
			}
			owner := m.Owner(m.ShardFor(device))
			u := api.URL2(owner, path)
			header := http.Header{}
			for _, h := range []string{"Accept", "Content-Type", "Idempotency-Key"} {
				if v := r.Header.Get(h); v != "" {
					header.Set(h, v)
				}
			}
			rsp, err := c.forward(r.Context(), r.Method, u, m.Epoch, header, body)
			if err == nil {
				if err = c.relay(w, rsp); err == nil {
					return
				}
			}
			lastErr = err
			if !reroutable(err) {
				break
			}
			c.forwardRetry(nodeOf(owner))
			c.res.Refresh(r.Context())
		}
		writeUpstream(w, r, lastErr)
	})
}

// relayBufPool recycles the copy buffers of streamed relays.
var relayBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32<<10)
	return &b
}}

// relay writes a successful node response back to the client: the body
// streams through the pooled 32 KiB buffer as it arrives, however
// large. An error means the node failed before anything was relayed, so
// the caller may still re-route; once the first byte has gone out, a
// node failure can only abort the client connection — ending the
// response normally would pass a cut body off as whole.
func (c *Coordinator) relay(w http.ResponseWriter, rsp *http.Response) error {
	defer rsp.Body.Close()
	ct := rsp.Header.Get("Content-Type")
	bp := relayBufPool.Get().(*[]byte)
	defer relayBufPool.Put(bp)
	buf := *bp
	started := false
	for {
		n, rerr := rsp.Body.Read(buf)
		if rerr != nil && rerr != io.EOF {
			if err := c.readErr(rsp, rerr); !started {
				return err
			}
			panic(http.ErrAbortHandler)
		}
		if !started {
			started = true
			if ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.WriteHeader(rsp.StatusCode)
		}
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return nil // client went away
			}
		}
		if rerr != nil {
			return nil
		}
	}
}

// readAll buffers a bounded request body.
func readAll(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBody))
	if err != nil {
		return nil, fmt.Errorf("bad request body: %v", err)
	}
	return raw, nil
}

// ---------------------------------------------------------------------
// GET /v2/series: scatter the catalog, merge sorted
// ---------------------------------------------------------------------

func (c *Coordinator) v2Series(w http.ResponseWriter, r *http.Request) {
	defer c.observe("series", time.Now())
	q := r.URL.Query()
	limit, err := pageLimit(q)
	if err != nil {
		api.WriteError(w, r, api.BadRequest(err))
		return
	}
	m, rerr := c.resolve(r.Context())
	if rerr != nil {
		api.WriteError(w, r, rerr)
		return
	}
	nodes := m.Nodes()
	pages := make([]*SeriesPage, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			u := api.URL2(node, "/series?"+q.Encode())
			raw, err := c.forwardBody(r.Context(), http.MethodGet, u, m.Epoch, nil, nil)
			if err != nil {
				errs[i] = err
				return
			}
			var page SeriesPage
			if err := json.Unmarshal(raw, &page); err != nil {
				errs[i] = fmt.Errorf("bad series page from %s: %v", node, err)
				return
			}
			pages[i] = &page
		}(i, node)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			writeUpstream(w, r, err)
			return
		}
	}
	merged, more := mergeSeriesPages(pages, limit)
	out := SeriesPage{Series: merged, Count: len(merged)}
	if more && len(merged) > 0 {
		last := merged[len(merged)-1]
		out.NextCursor = encodeSeriesCursor(tsdb.SeriesKey{Device: last.Device, Quantity: last.Quantity})
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// mergeSeriesPages k-way merges per-node sorted catalog pages, cut to
// limit. Keys are disjoint across nodes except mid-handoff, when both
// the frozen source and the restored target list the shard — adjacent
// duplicates collapse keeping the larger sample count.
func mergeSeriesPages(pages []*SeriesPage, limit int) (out []SeriesInfo, more bool) {
	pos := make([]int, len(pages))
	for {
		best := -1
		for i, p := range pages {
			if p == nil || pos[i] >= len(p.Series) {
				// A node page cut at its own limit has more behind it.
				if p != nil && p.NextCursor != "" && pos[i] >= len(p.Series) {
					more = true
				}
				continue
			}
			if best < 0 || seriesInfoLess(p.Series[pos[i]], pages[best].Series[pos[best]]) {
				best = i
			}
		}
		if best < 0 {
			return out, more
		}
		next := pages[best].Series[pos[best]]
		pos[best]++
		if n := len(out); n > 0 && out[n-1].Device == next.Device && out[n-1].Quantity == next.Quantity {
			if next.Samples > out[n-1].Samples {
				out[n-1].Samples = next.Samples
			}
			continue
		}
		if len(out) == limit {
			return out, true
		}
		out = append(out, next)
	}
}

func seriesInfoLess(a, b SeriesInfo) bool {
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	return a.Quantity < b.Quantity
}

// ---------------------------------------------------------------------
// POST /v2/query: per-selector routing, k-way result merge
// ---------------------------------------------------------------------

func (c *Coordinator) v2Query(w http.ResponseWriter, r *http.Request) {
	defer c.observe("query", time.Now())
	var req BatchQuery
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBody)).Decode(&req); err != nil {
		api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad request body: %v", err)))
		return
	}
	if _, err := planBatch(req); err != nil {
		api.WriteError(w, r, err)
		return
	}
	ndjson := false
	switch enc := r.URL.Query().Get("encoding"); {
	case enc == "ndjson" || (enc == "" && api.NegotiateMediaType(r.Header.Get("Accept"), "application/json", NDJSONType) == NDJSONType):
		ndjson = true
	case enc == "" || enc == "json":
	default:
		api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad encoding %q (want json or ndjson)", enc)))
		return
	}
	var out BatchResponse
	var lastErr error
	for attempt := 0; attempt < coordReadAttempts; attempt++ {
		m, rerr := c.resolve(r.Context())
		if rerr != nil {
			api.WriteError(w, r, rerr)
			return
		}
		out, lastErr = c.fanQuery(r.Context(), m, req)
		if lastErr == nil {
			break
		}
		if !reroutable(lastErr) {
			writeUpstream(w, r, lastErr)
			return
		}
		c.res.Refresh(r.Context())
	}
	if lastErr != nil {
		writeUpstream(w, r, lastErr)
		return
	}
	if ndjson {
		c.streamMergedBatch(w, out)
		return
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// fanQuery partitions the selectors over the map — exact devices to
// their one owner, globs to every node — runs the per-node batches
// concurrently, and merges per-selector results back into request
// order.
func (c *Coordinator) fanQuery(ctx context.Context, m cluster.Map, req BatchQuery) (BatchResponse, error) {
	nodes := m.Nodes()
	type nodeReq struct {
		sels []SeriesSelector
		idx  []int // global selector index per entry
	}
	perNode := make(map[string]*nodeReq, len(nodes))
	fanned := make([]bool, len(req.Selectors)) // true: scattered to all nodes
	for i, sel := range req.Selectors {
		var targets []string
		if sel.Device != "" && !hasGlob(sel.Device) {
			targets = []string{m.Owner(m.ShardFor(sel.Device))}
		} else {
			targets = nodes
			fanned[i] = true
		}
		for _, node := range targets {
			nr := perNode[node]
			if nr == nil {
				nr = &nodeReq{}
				perNode[node] = nr
			}
			nr.sels = append(nr.sels, sel)
			nr.idx = append(nr.idx, i)
		}
	}

	type nodeRes struct {
		node string
		rsp  BatchResponse
		err  error
	}
	results := make([]nodeRes, 0, len(perNode))
	for node := range perNode {
		results = append(results, nodeRes{node: node})
	}
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			node := results[i].node
			nr := perNode[node]
			// Only the selectors are replaced, so a field added to
			// BatchQuery reaches the nodes without an edit here.
			part := req
			part.Selectors = nr.sels
			body, _ := json.Marshal(part)
			u := api.URL2(node, "/query")
			h := http.Header{"Content-Type": {"application/json"}}
			raw, err := c.forwardBody(ctx, http.MethodPost, u, m.Epoch, h, body)
			if err != nil {
				results[i].err = err
				return
			}
			results[i].err = json.Unmarshal(raw, &results[i].rsp)
		}(i)
	}
	wg.Wait()

	parts := make([][]BatchResult, len(req.Selectors))
	for _, nr := range results {
		if nr.err != nil {
			return BatchResponse{}, nr.err
		}
		idx := perNode[nr.node].idx
		if len(nr.rsp.Results) != len(idx) {
			return BatchResponse{}, fmt.Errorf("node %s returned %d results for %d selectors", nr.node, len(nr.rsp.Results), len(idx))
		}
		for local, g := range idx {
			parts[g] = append(parts[g], nr.rsp.Results[local])
		}
	}
	out := BatchResponse{Results: make([]BatchResult, len(req.Selectors))}
	for i := range parts {
		out.Results[i] = mergeBatchResults(req.Selectors[i], parts[i])
		for j := range out.Results[i].Series {
			out.Series++
			out.Samples += out.Results[i].Series[j].sampleCount()
		}
	}
	return out, nil
}

// mergeBatchResults folds one selector's per-node results into one:
// series lists k-way merge by key (disjoint across nodes, duplicate
// keys mid-handoff collapse keeping the fuller copy), and "no matching
// series" from one node is dropped when another node matched.
func mergeBatchResults(sel SeriesSelector, parts []BatchResult) BatchResult {
	out := BatchResult{Selector: sel}
	if len(parts) == 1 {
		out.Series, out.Error = parts[0].Series, parts[0].Error
		return out
	}
	pos := make([]int, len(parts))
	for {
		best := -1
		for i, p := range parts {
			if pos[i] >= len(p.Series) {
				continue
			}
			if best < 0 || batchSeriesLess(p.Series[pos[i]], parts[best].Series[pos[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		next := parts[best].Series[pos[best]]
		pos[best]++
		if n := len(out.Series); n > 0 && out.Series[n-1].Device == next.Device && out.Series[n-1].Quantity == next.Quantity {
			if next.sampleCount() > out.Series[n-1].sampleCount() {
				out.Series[n-1] = next
			}
			continue
		}
		out.Series = append(out.Series, next)
	}
	if len(out.Series) == 0 {
		for _, p := range parts {
			if p.Error != "" {
				out.Error = p.Error
				break
			}
		}
		if out.Error == "" {
			out.Error = "no matching series"
		}
	}
	return out
}

func batchSeriesLess(a, b BatchSeries) bool {
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	return a.Quantity < b.Quantity
}

// streamMergedBatch renders a merged batch response as NDJSON rows plus
// the summary trailer — same wire shape as a node's streamed batch,
// materialized from the merged result (per-series rows are already
// limit-bounded, so memory stays bounded too).
func (c *Coordinator) streamMergedBatch(w http.ResponseWriter, out BatchResponse) {
	w.Header().Set("Content-Type", NDJSONType+"; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	emit := func(row BatchRow) bool { return enc.Encode(row) == nil }
	for i := range out.Results {
		res := &out.Results[i]
		if res.Error != "" {
			if !emit(BatchRow{Selector: i, Error: res.Error}) {
				return
			}
			continue
		}
		for j := range res.Series {
			bs := &res.Series[j]
			row := BatchRow{Selector: i, Device: bs.Device, Quantity: bs.Quantity}
			switch {
			case bs.Aggregate != nil:
				row.Aggregate = bs.Aggregate
				if !emit(row) {
					return
				}
			case bs.Buckets != nil:
				for bi := range bs.Buckets {
					row.Bucket = &bs.Buckets[bi]
					if !emit(row) {
						return
					}
				}
			default:
				for si := range bs.Samples {
					at, v := bs.Samples[si].At, bs.Samples[si].Value
					row.At, row.Value = &at, &v
					if !emit(row) {
						return
					}
				}
				if bs.Truncated {
					if !emit(BatchRow{Selector: i, Device: bs.Device, Quantity: bs.Quantity, Truncated: true}) {
						return
					}
				}
			}
		}
	}
	_ = enc.Encode(BatchTrailer{Summary: true, Series: out.Series, Samples: out.Samples})
}

// ---------------------------------------------------------------------
// POST /v2/ingest: partition by owner, forward, remap row errors
// ---------------------------------------------------------------------

// pendingRow is one not-yet-delivered ingest row with its position in
// the client's request body.
type pendingRow struct {
	idx int
	p   Point
}

func (c *Coordinator) v2Ingest(w http.ResponseWriter, r *http.Request) {
	defer c.observe("ingest", time.Now())
	key := r.Header.Get("Idempotency-Key")
	var res IngestResult
	reject := func(row int, msg string) {
		res.Rejected++
		if len(res.Errors) < maxIngestErrors {
			res.Errors = append(res.Errors, RowError{Row: row, Error: msg})
		} else {
			res.ErrorsTruncated = true
		}
	}
	var pending []pendingRow
	malformed, err := decodeIngest(w, r, func(p Point) {
		pending = append(pending, pendingRow{idx: len(pending), p: p})
	})
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	total := len(pending)
	if malformed != "" {
		reject(total, malformed)
	}

	var lastErr error
	for attempt := 0; attempt < coordIngestAttempts && len(pending) > 0; attempt++ {
		m, rerr := c.resolve(r.Context())
		if rerr != nil {
			api.WriteError(w, r, rerr)
			return
		}
		var failed []pendingRow
		failed, lastErr = c.fanIngest(r.Context(), m, key, pending, &res, reject)
		if lastErr == nil && len(failed) == 0 {
			pending = nil
			break
		}
		pending = failed
		if lastErr != nil && !reroutable(lastErr) {
			writeUpstream(w, r, lastErr)
			return
		}
		c.res.Refresh(r.Context())
	}
	if len(pending) > 0 {
		// Some rows never reached an owner. The request fails whole with
		// a retryable envelope: a keyed client retry replays the applied
		// partitions from each node's idempotency window (sub-keys) and
		// re-attempts only what is still missing — exactly-once stands.
		w.Header().Set("Retry-After", "1")
		err := lastErr
		if err == nil {
			err = errors.New("rows undeliverable after re-routing")
		}
		api.WriteError(w, r, &api.Error{Status: http.StatusServiceUnavailable, Code: "rows_undelivered",
			Err: fmt.Errorf("%d of %d rows not yet applied: %v; retry with the same Idempotency-Key", len(pending), total, err)})
		return
	}
	sortRowErrors(res.Errors)
	api.WriteJSON(w, http.StatusOK, res)
}

// fanIngest delivers one round: partitions pending rows by owner,
// forwards the partitions concurrently under derived idempotency
// sub-keys, folds per-row outcomes into res (indices remapped to the
// client's request), and returns the rows whose owner call failed.
func (c *Coordinator) fanIngest(ctx context.Context, m cluster.Map, key string, pending []pendingRow, res *IngestResult, reject func(int, string)) ([]pendingRow, error) {
	perNode := make(map[string][]pendingRow)
	for _, pr := range pending {
		node := m.Owner(m.ShardFor(pr.p.Device))
		perNode[node] = append(perNode[node], pr)
	}
	type nodeOut struct {
		node string
		rows []pendingRow
		rsp  IngestResult
		err  error
	}
	outs := make([]nodeOut, 0, len(perNode))
	for node, rows := range perNode {
		outs = append(outs, nodeOut{node: node, rows: rows})
	}
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o := &outs[i]
			// The bytes encoding/json renders an IngestBatch to, through the
			// one row encoder: the last row's separator becomes the closing
			// bracket.
			body := append(make([]byte, 0, 128*len(o.rows)), `{"rows":[`...)
			for _, pr := range o.rows {
				body = append(AppendPoint(body, pr.p), ',')
			}
			body[len(body)-1] = ']'
			body = append(body, '}')
			h := http.Header{"Content-Type": {"application/json"}}
			if key != "" {
				// Derived sub-key: stable per (client key, node), so this
				// partition replays instead of re-applying on any retry.
				h.Set("Idempotency-Key", key+"@"+o.node)
			}
			u := api.URL2(o.node, "/ingest")
			raw, err := c.forwardBody(ctx, http.MethodPost, u, m.Epoch, h, body)
			if err != nil {
				o.err = err
				return
			}
			o.err = json.Unmarshal(raw, &o.rsp)
		}(i)
	}
	wg.Wait()
	var failed []pendingRow
	var lastErr error
	for _, o := range outs {
		if o.err != nil {
			c.forwardRetry(nodeOf(o.node))
			failed = append(failed, o.rows...)
			lastErr = o.err
			continue
		}
		res.Accepted += o.rsp.Accepted
		for _, re := range o.rsp.Errors {
			if re.Row >= 0 && re.Row < len(o.rows) {
				reject(o.rows[re.Row].idx, re.Error)
			}
		}
		// Rejected rows beyond the node's error cap still count.
		for extra := o.rsp.Rejected - len(o.rsp.Errors); extra > 0; extra-- {
			res.Rejected++
			res.ErrorsTruncated = true
		}
	}
	return failed, lastErr
}

// sortRowErrors orders per-row errors by request position.
func sortRowErrors(errs []RowError) {
	sort.Slice(errs, func(i, j int) bool { return errs[i].Row < errs[j].Row })
}

// ---------------------------------------------------------------------
// GET /v1/stats: sum the cluster
// ---------------------------------------------------------------------

// stats fans /v1/stats over the nodes and sums the counters into the
// familiar single-node shape (stream stats stay per-node).
func (c *Coordinator) stats(ctx context.Context, q url.Values) (any, error) {
	defer c.observe("stats", time.Now())
	m, err := c.resolve(ctx)
	if err != nil {
		return nil, err
	}
	nodes := m.Nodes()
	parts := make([]Stats, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			errs[i] = c.t.GetJSON(ctx, api.URL(node, "/stats"), &parts[i])
		}(i, node)
	}
	wg.Wait()
	var out Stats
	for i := range parts {
		if errs[i] != nil {
			return nil, api.WithStatus(http.StatusBadGateway,
				fmt.Errorf("stats from %s: %v", nodes[i], errs[i]))
		}
		out.Ingested += parts[i].Ingested
		out.Rejected += parts[i].Rejected
		out.Store.Series += parts[i].Store.Series
		out.Store.Samples += parts[i].Store.Samples
		out.Store.DroppedRows += parts[i].Store.DroppedRows
		out.DedupPersistErrors += parts[i].DedupPersistErrors
	}
	out.Store.Shards = m.Shards
	return out, nil
}
