package measuredb

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
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
// /v2 surface that owns no shards. Every route runs through one
// fan-out, scatter: it places the request's items (an ingest's rows, a
// batch's selectors, or the one item of any other route) on shards —
// an exact device or a row on its device's shard, a glob, the catalog
// and the stats on every shard — forwards each owner its items and
// folds the answers, so /v2 clients see one database however many
// hosts hold it; POST /v2/query answers, through the node's own handler
// body, what one node holding every series would.
//
// Routing is epoch-aware end to end: every forwarded request carries
// X-Cluster-Epoch, and a node that rejects it with a retryable cluster
// envelope (stale epoch, shard frozen mid-handoff, ownership moved), or
// cannot be reached, triggers a map refresh and a bounded re-route of
// that node's shards alone. Page cursors are the nodes' own: they are
// value-based, so a cursor cut under one owner resumes correctly
// against the next.
//
// Keyed ingest forwards each owner's rows under a derived sub-key
// ("<key>@<node>"), so a client replaying the whole request after a 503
// replays the partitions that landed from each node's idempotency
// window instead of re-appending them — unless a failed partition's
// shard moved to a node that already holds another partition under the
// same key (see API.md, Caveats).
type Coordinator struct {
	res *cluster.Resolver
	t   *api.Transport
	// relayT is t on the streaming client: a per-device relay copies a
	// body of any size through as it arrives, which the pooled client's
	// whole-request timeout would cut mid-read.
	relayT *api.Transport

	srv  proxyhttp.Server
	apiS *api.Server
	reg  *obs.Registry

	fanout map[string]*obs.Histogram // per-route fan-out latency
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
	relayT := *t
	if relayT.Client == nil {
		relayT.Client = api.StreamHTTPClient()
	}
	c := &Coordinator{
		res:    cluster.NewResolver(opts.Master, t, opts.Refresh),
		t:      t,
		relayT: &relayT,
		reg:    obs.NewRegistry(),
		fanout: make(map[string]*obs.Histogram),
	}
	for _, route := range []string{"series", "samples", "latest", "aggregate", "query", "ingest", "stats"} {
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
	srv.HandleV2(http.MethodPut, "/series/{device}/{quantity}/samples", http.HandlerFunc(c.v2Ingest))
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

// forward performs one epoch-stamped call to a node over t and returns
// the 2xx response with its body unread (the caller closes it), bumping the
// per-node error counter on failure. Hops inside the cluster ask for
// identity coding: the edge compresses once for clients that want it,
// so a node deflating for the coordinator to inflate is pure waste.
func (c *Coordinator) forward(ctx context.Context, t *api.Transport, method, u string, epoch uint64, header http.Header, body []byte) (*http.Response, error) {
	if header == nil {
		header = http.Header{}
	}
	header.Set(cluster.EpochHeader, strconv.FormatUint(epoch, 10))
	header.Set("Accept-Encoding", "identity")
	rsp, err := t.Open(ctx, method, u, header, body)
	if err != nil {
		c.forwardErr(u)
	}
	return rsp, err
}

// forwardJSON is forward for the callers that decode the whole reply
// (bounded by api.MaxResponseBytes) into out. A node's /v2/query answer
// is read in place (DecodeBatchResponse); any other reply is
// json.Unmarshal's.
func (c *Coordinator) forwardJSON(ctx context.Context, method, u string, epoch uint64, header http.Header, body []byte, out any) error {
	rsp, err := c.forward(ctx, c.t, method, u, epoch, header, body)
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
	c.forwardErr(rsp.Request.URL.String())
	return fmt.Errorf("read %s %s: %w", rsp.Request.Method, rsp.Request.URL, err)
}

// forwardErr counts a failed forward to the URL u against its node.
// Node cardinality is bounded by cluster size.
func (c *Coordinator) forwardErr(u string) {
	c.reg.Counter("repro_cluster_forward_errors_total",
		"Forwarded requests that failed, by owner node.", obs.Labels{"node": nodeOf(u)}).Inc()
}

// everyShard is the placement of an item every shard must answer: a
// glob selector, the catalog, the stats.
const everyShard = -1

// placed is one (item, shard) pair of a scatter.
type placed struct{ item, shard int }

// scatter runs one request's n items over the shard map, in at most
// attempts rounds. place maps item i to the one shard it needs, or to
// everyShard. Each round resolves the map, groups the pending (item,
// shard) pairs by owner and calls call for every owner with its items,
// each once and in order: concurrently, except that a lone owner is
// called on the caller's goroutine, so a relay may abort the handler.
// The answers are folded (fold may be nil) in node order.
//
// A failure that reroutable allows is counted against its node,
// refreshes the map, and only that node's pairs are placed again in
// the next round, so an owner that answered is asked again only for a
// shard that moved to it; any other failure ends the request. An answer
// a node gives twice must therefore fold once: series and results merge
// by key (kmerge), stats keep one slot per node. The error is the first
// failure, in node order, of the last round. No items need no map.
func scatter[A any](c *Coordinator, ctx context.Context, n, attempts int,
	place func(m *cluster.Map, i int) int,
	call func(node string, epoch uint64, items []int) (A, error),
	fold func(node string, items []int, a A)) error {
	var pending []placed
	var err error
	for round := 0; round < attempts && n > 0; round++ {
		m, rerr := c.resolve(ctx)
		if rerr != nil {
			return rerr
		}
		if round == 0 {
			for i := 0; i < n; i++ {
				if s := place(&m, i); s != everyShard {
					pending = append(pending, placed{i, s})
					continue
				}
				for s := range m.Shards {
					pending = append(pending, placed{i, s})
				}
			}
		}
		nodes, items, pairs := byOwner(&m, pending)
		answers, errs := make([]A, len(nodes)), make([]error, len(nodes))
		if len(nodes) == 1 {
			answers[0], errs[0] = call(nodes[0], m.Epoch, items[0])
		} else {
			var wg sync.WaitGroup
			for k := range nodes {
				wg.Add(1)
				go func() {
					defer wg.Done()
					answers[k], errs[k] = call(nodes[k], m.Epoch, items[k])
				}()
			}
			wg.Wait()
		}
		pending, err = nil, nil
		for k, node := range nodes {
			switch {
			case errs[k] == nil:
				if fold != nil {
					fold(node, items[k], answers[k])
				}
				continue
			case !reroutable(errs[k]):
				return errs[k]
			case err == nil:
				err = errs[k]
			}
			c.reg.Counter("repro_cluster_forward_retries_total",
				"Forwards re-routed after a map refresh, by the node that rejected.", obs.Labels{"node": nodeOf(node)}).Inc()
			pending = append(pending, pairs[k]...)
		}
		if len(pending) == 0 {
			return nil
		}
		// Item-major again, so an owner inheriting several failed nodes'
		// shards is sent each item once.
		slices.SortFunc(pending, func(a, b placed) int { return a.item - b.item })
		c.res.Refresh(ctx)
	}
	return err
}

// byOwner groups pairs by the node m names for their shard: the owners
// with work, sorted, each with its items (once each, in pair order) and
// its pairs.
func byOwner(m *cluster.Map, pending []placed) (nodes []string, items [][]int, pairs [][]placed) {
	nodes = m.Nodes()
	at := make([]int, len(m.Owners))
	for s, o := range m.Owners {
		at[s], _ = slices.BinarySearch(nodes, o)
	}
	items, pairs = make([][]int, len(nodes)), make([][]placed, len(nodes))
	for _, p := range pending {
		k := at[p.shard]
		if l := items[k]; len(l) == 0 || l[len(l)-1] != p.item {
			items[k] = append(items[k], p.item)
		}
		pairs[k] = append(pairs[k], p)
	}
	busy := 0
	for k := range nodes {
		if len(items[k]) > 0 {
			nodes[busy], items[busy], pairs[busy] = nodes[k], items[k], pairs[k]
			busy++
		}
	}
	return nodes[:busy], items[:busy], pairs[:busy]
}

// nodeOf reduces a forwarded URL to its node base for metric labels.
func nodeOf(u string) string {
	if p, err := url.Parse(u); err == nil && p.Host != "" {
		return p.Scheme + "://" + p.Host
	}
	return u
}

// ---------------------------------------------------------------------
// Per-device reads: one owner, straight relay
// ---------------------------------------------------------------------

// deviceProxy relays one exact-device read to the shard owner,
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
		path := "/series/" + api.PathSegment(device) + "/" + api.PathSegment(quantity) + "/" + route + "?" + r.URL.Query().Encode()
		header := http.Header{}
		if v := r.Header.Get("Accept"); v != "" {
			header.Set("Accept", v)
		}
		err := scatter(c, r.Context(), 1, coordReadAttempts,
			func(m *cluster.Map, _ int) int { return m.ShardFor(device) },
			func(node string, epoch uint64, _ []int) (struct{}, error) {
				rsp, err := c.forward(r.Context(), c.relayT, r.Method, api.URL2(node, path), epoch, header, nil)
				if err == nil {
					err = c.relay(w, rsp)
				}
				return struct{}{}, err
			}, nil)
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
	path := "/series?" + q.Encode()
	var pages []*SeriesPage
	err = scatter(c, r.Context(), 1, coordReadAttempts, func(*cluster.Map, int) int { return everyShard },
		func(node string, epoch uint64, _ []int) (*SeriesPage, error) {
			page := new(SeriesPage)
			return page, c.forwardJSON(r.Context(), http.MethodGet, api.URL2(node, path), epoch, nil, nil, page)
		},
		func(_ string, _ []int, page *SeriesPage) { pages = append(pages, page) })
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
		// A node page cut at its own limit has more behind it.
		lists[i], more = p.Series, more || p.NextCursor != ""
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
// answer: exact devices go to their one owner, globs to every node, each
// node's part runs as JSON (so its result cache serves it), and each
// selector's parts merge into the rows the node's own batch writers
// render (serveBatch).
func (c *Coordinator) v2Query(w http.ResponseWriter, r *http.Request) {
	defer c.observe("query", time.Now())
	serveBatch(w, r, func(plan batchPlan, _ []byte, out batchWriter) error {
		sels := plan.req.Selectors
		parts := make([][]BatchResult, len(sels))
		err := scatter(c, r.Context(), len(sels), coordReadAttempts,
			func(m *cluster.Map, i int) int {
				if d := sels[i].Device; d != "" && !hasGlob(d) {
					return m.ShardFor(d)
				}
				return everyShard
			},
			func(node string, epoch uint64, items []int) (BatchResponse, error) {
				// Only the selectors are replaced, so a field added to
				// BatchQuery reaches the nodes without an edit here.
				part := plan.req
				part.Selectors = make([]SeriesSelector, len(items))
				for k, i := range items {
					part.Selectors[k] = sels[i]
				}
				body, _ := json.Marshal(part)
				var answer BatchResponse
				h := http.Header{"Content-Type": {"application/json"}}
				err := c.forwardJSON(r.Context(), http.MethodPost, api.URL2(node, "/query"), epoch, h, body, &answer)
				if n := len(answer.Results); err == nil && n != len(items) {
					err = fmt.Errorf("node %s returned %d results for %d selectors", node, n, len(items))
				}
				return answer, err
			},
			func(_ string, items []int, answer BatchResponse) {
				for k, i := range items {
					parts[i] = append(parts[i], answer.Results[k])
				}
			})
		if err != nil {
			return err
		}
		for i, sel := range sels {
			res := mergeBatchResults(sel, parts[i])
			out.selector(i, res.Selector)
			for j := range res.Series {
				out.series(&res.Series[j])
			}
			out.end(res.Error)
		}
		return nil
	})
}

// mergeBatchResults folds one selector's per-node results, in the order
// they were answered, into what one node holding all their series would
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
// POST /v2/ingest and PUT samples: place rows on their shards, forward,
// remap row errors
// ---------------------------------------------------------------------

// v2Ingest serves both write entrances, as the node's v2Ingest does: it
// forwards the decoded rows — a PUT's stamped with the series its path
// names — to their owners, each owner's body encoded straight from
// them, and folds each node's outcome into one result, row errors
// remapped to the client's row indexes.
func (c *Coordinator) v2Ingest(w http.ResponseWriter, r *http.Request) {
	defer c.observe("ingest", time.Now())
	field, series, err := ingestEntrance(r)
	if err != nil {
		api.WriteError(w, r, err)
		return
	}
	key := r.Header.Get("Idempotency-Key")
	var res IngestResult
	err = decodeIngest(w, r, field, true, func(pts []Point, malformed string) error {
		if malformed != "" {
			res.reject(len(pts), malformed)
		}
		if series.Device != "" {
			for i := range pts {
				pts[i].Device, pts[i].Quantity = series.Device, series.Quantity
			}
		}
		delivered := 0
		err := scatter(c, r.Context(), len(pts), coordIngestAttempts,
			func(m *cluster.Map, i int) int { return m.ShardFor(pts[i].Device) },
			func(node string, epoch uint64, rows []int) (IngestResult, error) {
				// The bytes encoding/json renders an IngestBatch to, through
				// the one row encoder: the last row's separator becomes the
				// closing bracket.
				body := append(make([]byte, 0, 128*len(rows)), `{"rows":[`...)
				for _, i := range rows {
					body = append(AppendPoint(body, pts[i]), ',')
				}
				body[len(body)-1] = ']'
				body = append(body, '}')
				h := http.Header{"Content-Type": {"application/json"}}
				if key != "" {
					// Derived sub-key: stable per (client key, node), so this
					// partition replays instead of re-applying on a retry.
					h.Set("Idempotency-Key", key+"@"+node)
				}
				var rsp IngestResult
				err := c.forwardJSON(r.Context(), http.MethodPost, api.URL2(node, "/ingest"), epoch, h, body, &rsp)
				return rsp, err
			},
			func(_ string, rows []int, rsp IngestResult) {
				delivered += len(rows)
				res.Accepted += rsp.Accepted
				for _, re := range rsp.Errors {
					if re.Row >= 0 && re.Row < len(rows) {
						res.reject(rows[re.Row], re.Error)
					}
				}
				if extra := rsp.Rejected - len(rsp.Errors); extra > 0 {
					// Rejected rows beyond the node's error cap still count.
					res.Rejected += extra
					res.ErrorsTruncated = true
				}
			})
		var noMap *api.Error
		if err == nil || errors.As(err, &noMap) || !reroutable(err) {
			return err
		}
		// Some rows never reached an owner: the request fails whole with
		// a retryable envelope, and a keyed retry replays the partitions
		// that landed from their nodes' idempotency windows.
		w.Header().Set("Retry-After", "1")
		return &api.Error{Status: http.StatusServiceUnavailable, Code: "rows_undelivered",
			Err: fmt.Errorf("%d of %d rows not yet applied: %v; retry with the same Idempotency-Key", len(pts)-delivered, len(pts), err)}
	})
	if err != nil {
		writeUpstream(w, r, err)
		return
	}
	slices.SortFunc(res.Errors, func(a, b RowError) int { return a.Row - b.Row })
	api.WriteJSON(w, http.StatusOK, res)
}

// ---------------------------------------------------------------------
// GET /v1/stats: sum the cluster
// ---------------------------------------------------------------------

// stats fans /v1/stats over the nodes and sums the counters into the
// familiar single-node shape (stream stats stay per-node). A node
// answering twice, once for a shard that moved to it, keeps its later
// answer.
func (c *Coordinator) stats(ctx context.Context, q url.Values) (any, error) {
	defer c.observe("stats", time.Now())
	var out Stats
	parts := make(map[string]Stats)
	err := scatter(c, ctx, 1, coordReadAttempts,
		func(m *cluster.Map, _ int) int {
			out.Store.Shards = m.Shards
			return everyShard
		},
		func(node string, epoch uint64, _ []int) (Stats, error) {
			var st Stats
			h := http.Header{"Accept": {"application/json"}}
			err := c.forwardJSON(ctx, http.MethodGet, api.URL(node, "/stats"), epoch, h, nil, &st)
			return st, err
		},
		func(node string, _ []int, st Stats) { parts[node] = st })
	if err != nil {
		var noMap *api.Error
		if !errors.As(err, &noMap) {
			err = api.WithStatus(http.StatusBadGateway, fmt.Errorf("stats: %v", err))
		}
		return nil, err
	}
	for _, st := range parts {
		out.Ingested += st.Ingested
		out.Rejected += st.Rejected
		out.Store.Series += st.Store.Series
		out.Store.Samples += st.Store.Samples
		out.Store.DroppedRows += st.Store.DroppedRows
	}
	return out, nil
}
