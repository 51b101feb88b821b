package measuredb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
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
// hold it; POST /v2/query answers, through the node's own handler body,
// what one node holding every series would.
//
// Routing is epoch-aware end to end: every forwarded request carries
// X-Cluster-Epoch, a node that rejects it with a retryable cluster
// envelope (stale epoch, shard frozen mid-handoff, ownership moved)
// triggers a map refresh and a bounded re-route (reroute). Page
// cursors are the nodes' own: they are value-based, so a cursor cut
// under one owner resumes correctly against the next.
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

// writeUpstream writes a failed answer: a node's refusal relayed with
// its envelope (status, code, message) when there is one, an error that
// already carries a status (no shard map yet) as it is, and any other
// forward failure as a 502.
func writeUpstream(w http.ResponseWriter, r *http.Request, err error) {
	var se *api.StatusError
	if !errors.As(err, &se) {
		var ae *api.Error
		if !errors.As(err, &ae) {
			err = api.WithStatus(http.StatusBadGateway, err)
		}
		api.WriteError(w, r, err)
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

// forwardJSON is forward for the callers that decode the whole reply
// (bounded by api.MaxResponseBytes) into out. A node's /v2/query answer
// is read in place (DecodeBatchResponse); any other reply is
// json.Unmarshal's.
func (c *Coordinator) forwardJSON(ctx context.Context, method, u string, epoch uint64, header http.Header, body []byte, out any) error {
	rsp, err := c.forward(ctx, method, u, epoch, header, body)
	if err != nil {
		return err
	}
	defer rsp.Body.Close()
	raw, err := api.ReadBody(rsp.Body)
	if err != nil {
		return c.readErr(rsp, err)
	}
	switch out := out.(type) {
	case *BatchResponse:
		err = DecodeBatchResponse(raw, out)
	default:
		err = json.Unmarshal(raw, out)
	}
	if err != nil {
		return fmt.Errorf("bad reply from %s: %v", nodeOf(u), err)
	}
	return nil
}

// readErr counts a reply that failed mid-body against its node.
func (c *Coordinator) readErr(rsp *http.Response, err error) error {
	c.forwardErr(nodeOf(rsp.Request.URL.String()))
	return fmt.Errorf("read %s %s: %w", rsp.Request.Method, rsp.Request.URL, err)
}

// reroute runs one read against the freshest shard map. call returns
// the node whose call failed with the failure; a reroutable one (see
// reroutable) is counted against that node, refreshes the map and
// retries, coordReadAttempts calls in all.
func (c *Coordinator) reroute(ctx context.Context, call func(m cluster.Map) (node string, err error)) error {
	var err error
	for attempt := 0; attempt < coordReadAttempts; attempt++ {
		m, rerr := c.resolve(ctx)
		if rerr != nil {
			return rerr
		}
		var node string
		if node, err = call(m); err == nil || !reroutable(err) {
			return err
		}
		c.forwardRetry(nodeOf(node))
		c.res.Refresh(ctx)
	}
	return err
}

// fanOut runs call for every node concurrently and returns the first
// failure in node order, with its node.
func fanOut(nodes []string, call func(i int) error) (string, error) {
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i := range nodes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = call(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nodes[i], err
		}
	}
	return "", nil
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
		suffix := strings.TrimPrefix(route, "put_") // PUT shares the samples path
		path := "/series/" + api.PathSegment(device) + "/" + api.PathSegment(quantity) + "/" + suffix + "?" + r.URL.Query().Encode()
		header := http.Header{}
		for _, h := range []string{"Accept", "Content-Type", "Idempotency-Key"} {
			if v := r.Header.Get(h); v != "" {
				header.Set(h, v)
			}
		}
		err := c.reroute(r.Context(), func(m cluster.Map) (string, error) {
			owner := m.Owner(m.ShardFor(device))
			rsp, err := c.forward(r.Context(), r.Method, api.URL2(owner, path), m.Epoch, header, body)
			if err == nil {
				err = c.relay(w, rsp)
			}
			return owner, err
		})
		if err != nil {
			writeUpstream(w, r, err)
		}
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
	var pages []*SeriesPage
	err = c.reroute(r.Context(), func(m cluster.Map) (string, error) {
		nodes := m.Nodes()
		pages = make([]*SeriesPage, len(nodes))
		return fanOut(nodes, func(i int) error {
			pages[i] = new(SeriesPage)
			return c.forwardJSON(r.Context(), http.MethodGet, api.URL2(nodes[i], "/series?"+q.Encode()), m.Epoch, nil, nil, pages[i])
		})
	})
	if err != nil {
		writeUpstream(w, r, err)
		return
	}
	merged, more := mergeSeriesPages(pages, limit)
	out := SeriesPage{Series: merged, Count: len(merged)}
	if more && len(merged) > 0 {
		last := merged[len(merged)-1]
		out.NextCursor = encodeSeriesCursor(tsdb.SeriesKey{Device: last.Device, Quantity: last.Quantity})
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// mergeSeriesPages merges per-node sorted catalog pages (kmerge, the
// fuller copy of a mid-handoff duplicate kept) and cuts them to limit.
func mergeSeriesPages(pages []*SeriesPage, limit int) (out []SeriesInfo, more bool) {
	lists := make([][]SeriesInfo, len(pages))
	for i, p := range pages {
		if p != nil {
			// A node page cut at its own limit has more behind it.
			lists[i], more = p.Series, more || p.NextCursor != ""
		}
	}
	out = kmerge(lists, func(si *SeriesInfo) tsdb.SeriesKey {
		return tsdb.SeriesKey{Device: si.Device, Quantity: si.Quantity}
	}, func(si *SeriesInfo) int { return si.Samples })
	if len(out) > limit {
		return out[:limit], true
	}
	return out, more
}

// ---------------------------------------------------------------------
// POST /v2/query: per-selector routing, k-way result merge
// ---------------------------------------------------------------------

// v2Query answers a batch with what one node holding every series would
// answer: the nodes' merged results, rendered by the node's own batch
// writers (serveBatch).
func (c *Coordinator) v2Query(w http.ResponseWriter, r *http.Request) {
	defer c.observe("query", time.Now())
	serveBatch(w, r, func(plan batchPlan, _ []byte, out batchWriter) error {
		var results []BatchResult
		err := c.reroute(r.Context(), func(m cluster.Map) (node string, err error) {
			results, node, err = c.fanQuery(r.Context(), m, plan.req)
			return node, err
		})
		if err != nil {
			return err
		}
		for i := range results {
			res := &results[i]
			out.selector(i, res.Selector)
			for j := range res.Series {
				out.series(&res.Series[j])
			}
			out.end(res.Error)
		}
		return nil
	})
}

// fanQuery partitions the selectors over the map — exact devices to
// their one owner, globs to every node — runs the per-node batches
// concurrently as JSON (so each node's result cache serves its part),
// and merges each selector's parts in m.Nodes() order. A failure names
// the node it came from.
func (c *Coordinator) fanQuery(ctx context.Context, m cluster.Map, req BatchQuery) ([]BatchResult, string, error) {
	nodes := m.Nodes()
	sels := make([][]SeriesSelector, len(nodes))
	idx := make([][]int, len(nodes)) // request index of each node's selectors
	for i, sel := range req.Selectors {
		for k, node := range nodes {
			if sel.Device != "" && !hasGlob(sel.Device) && node != m.OwnerOf(sel.Device) {
				continue
			}
			sels[k] = append(sels[k], sel)
			idx[k] = append(idx[k], i)
		}
	}
	answers := make([]BatchResponse, len(nodes))
	if node, err := fanOut(nodes, func(k int) error {
		if len(idx[k]) == 0 {
			return nil
		}
		// Only the selectors are replaced, so a field added to
		// BatchQuery reaches the nodes without an edit here.
		part := req
		part.Selectors = sels[k]
		body, _ := json.Marshal(part)
		h := http.Header{"Content-Type": {"application/json"}}
		if err := c.forwardJSON(ctx, http.MethodPost, api.URL2(nodes[k], "/query"), m.Epoch, h, body, &answers[k]); err != nil {
			return err
		}
		if n := len(answers[k].Results); n != len(idx[k]) {
			return fmt.Errorf("node %s returned %d results for %d selectors", nodes[k], n, len(idx[k]))
		}
		return nil
	}); err != nil {
		return nil, node, err
	}
	parts := make([][]BatchResult, len(req.Selectors))
	for k := range nodes {
		for local, i := range idx[k] {
			parts[i] = append(parts[i], answers[k].Results[local])
		}
	}
	out := make([]BatchResult, len(req.Selectors))
	for i := range parts {
		out[i] = mergeBatchResults(req.Selectors[i], parts[i])
	}
	return out, "", nil
}

// mergeBatchResults folds one selector's per-node results, given in
// m.Nodes() order, into what one node holding all their series would
// answer: the series merged by key (kmerge, the fuller copy of a
// mid-handoff duplicate kept), the first read error standing even
// beside matched series, and "no matching series" only when no node
// matched.
func mergeBatchResults(sel SeriesSelector, parts []BatchResult) BatchResult {
	lists := make([][]BatchSeries, len(parts))
	for i := range parts {
		lists[i] = parts[i].Series
	}
	out := BatchResult{Selector: sel, Series: kmerge(lists, func(bs *BatchSeries) tsdb.SeriesKey {
		return tsdb.SeriesKey{Device: bs.Device, Quantity: bs.Quantity}
	}, (*BatchSeries).sampleCount)}
	for _, p := range parts {
		if p.Error != "" && p.Error != noMatch {
			out.Error = p.Error
			return out
		}
	}
	if len(out.Series) == 0 {
		out.Error = noMatch
	}
	return out
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
		res.reject(total, malformed)
	}

	var lastErr error
	for attempt := 0; attempt < coordIngestAttempts && len(pending) > 0; attempt++ {
		m, rerr := c.resolve(r.Context())
		if rerr != nil {
			api.WriteError(w, r, rerr)
			return
		}
		var failed []pendingRow
		failed, lastErr = c.fanIngest(r.Context(), m, key, pending, &res)
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
	slices.SortFunc(res.Errors, func(a, b RowError) int { return a.Row - b.Row })
	api.WriteJSON(w, http.StatusOK, res)
}

// fanIngest delivers one round: partitions pending rows by owner,
// forwards the partitions concurrently under derived idempotency
// sub-keys, folds per-row outcomes into res (indices remapped to the
// client's request), and returns the rows whose owner call failed.
func (c *Coordinator) fanIngest(ctx context.Context, m cluster.Map, key string, pending []pendingRow, res *IngestResult) ([]pendingRow, error) {
	perNode := make(map[string][]pendingRow)
	for _, pr := range pending {
		node := m.OwnerOf(pr.p.Device)
		perNode[node] = append(perNode[node], pr)
	}
	nodes := slices.Sorted(maps.Keys(perNode))
	rsps := make([]IngestResult, len(nodes))
	errs := make([]error, len(nodes))
	_, _ = fanOut(nodes, func(i int) error {
		// The bytes encoding/json renders an IngestBatch to, through the
		// one row encoder: the last row's separator becomes the closing
		// bracket.
		rows := perNode[nodes[i]]
		body := append(make([]byte, 0, 128*len(rows)), `{"rows":[`...)
		for _, pr := range rows {
			body = append(AppendPoint(body, pr.p), ',')
		}
		body[len(body)-1] = ']'
		body = append(body, '}')
		h := http.Header{"Content-Type": {"application/json"}}
		if key != "" {
			// Derived sub-key: stable per (client key, node), so this
			// partition replays instead of re-applying on any retry.
			h.Set("Idempotency-Key", key+"@"+nodes[i])
		}
		errs[i] = c.forwardJSON(ctx, http.MethodPost, api.URL2(nodes[i], "/ingest"), m.Epoch, h, body, &rsps[i])
		return errs[i]
	})
	var failed []pendingRow
	var lastErr error
	for i, node := range nodes {
		rows, rsp := perNode[node], &rsps[i]
		if errs[i] != nil {
			c.forwardRetry(nodeOf(node))
			failed = append(failed, rows...)
			lastErr = errs[i]
			continue
		}
		res.Accepted += rsp.Accepted
		for _, re := range rsp.Errors {
			if re.Row >= 0 && re.Row < len(rows) {
				res.reject(rows[re.Row].idx, re.Error)
			}
		}
		if extra := rsp.Rejected - len(rsp.Errors); extra > 0 {
			// Rejected rows beyond the node's error cap still count.
			res.Rejected += extra
			res.ErrorsTruncated = true
		}
	}
	return failed, lastErr
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
	if node, err := fanOut(nodes, func(i int) error {
		return c.t.GetJSON(ctx, api.URL(nodes[i], "/stats"), &parts[i])
	}); err != nil {
		return nil, api.WithStatus(http.StatusBadGateway, fmt.Errorf("stats from %s: %v", node, err))
	}
	var out Stats
	for i := range parts {
		out.Ingested += parts[i].Ingested
		out.Rejected += parts[i].Rejected
		out.Store.Series += parts[i].Store.Series
		out.Store.Samples += parts[i].Store.Samples
		out.Store.DroppedRows += parts[i].Store.DroppedRows
	}
	out.Store.Shards = m.Shards
	return out, nil
}
