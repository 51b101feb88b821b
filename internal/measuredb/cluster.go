package measuredb

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// The node side of the measuredb cluster: a clustered node keeps a
// cached copy of the master-published shard map, refuses writes for
// shards it does not own — or that are frozen mid-handoff — with
// retryable 503 envelopes (the coordinator re-resolves the map and
// retries against the new owner), and serves the handoff plane:
//
//	POST /v1/cluster/shards/{shard}/freeze       stop writes, drain, fsync
//	GET  /v1/cluster/shards/{shard}/archive      stream the shard directory
//	POST /v1/cluster/shards/{shard}/restore      load an archived shard
//	POST /v1/cluster/shards/{shard}/release      unfreeze (and wipe if moved)
//
// The handoff protocol (orchestrated by client.Cluster.Move) is
// freeze → archive → restore on the target → map flip on the master →
// release on the source. Exactly-once without store-level dedup holds
// because: rows rejected during the freeze were never journaled (the
// coordinator retries them against the new owner), the restore loads
// a byte-complete frozen directory, and release only wipes the source
// copy after re-resolving the map and seeing ownership gone. The node's
// shard report, ownership and freezes included, is /v1/storage.
//
// Write admission runs inside the one ingest body (v2Ingest) for POST
// and PUT alike: where a plain node applies an NDJSON body while reading
// it, a clustered node decodes the whole body first and admits it over
// the decoded rows (ingester.admit) before staging any, so a refused
// request has written no row to the node log — otherwise the
// coordinator's retry against the new owner would duplicate the prefix.

// ClusterOptions attach a measuredb node to a cluster. The node's own
// advertised base URL is only known once Serve binds a port: call
// Service.SetClusterSelf then. Ownership checks are self-aware only once
// the node knows its own address.
type ClusterOptions struct {
	// Master is the base URL publishing /v1/cluster/map.
	Master string
	// Refresh is the shard-map cache TTL (0 = cluster.DefaultRefresh).
	Refresh time.Duration
	// Transport overrides the map-fetch transport (nil = default).
	Transport *api.Transport
}

// clusterNode is a Service's cluster state (nil on unclustered nodes).
type clusterNode struct {
	res  *cluster.Resolver
	self atomic.Value // string: advertised base URL ("" until known)

	// gate serializes write admission against a freeze: every write
	// request holds it in read mode from ownership check through engine
	// apply, and freeze flips the moving mark under the write lock — so
	// after freeze returns, no admitted-but-unapplied write can slip
	// into the shard behind the drain.
	gate sync.RWMutex

	mu     sync.Mutex
	moving map[int]bool

	staleRejects  atomic.Uint64
	movingRejects atomic.Uint64
	ownerRejects  atomic.Uint64
}

func newClusterNode(opts *ClusterOptions) *clusterNode {
	return &clusterNode{
		res:    cluster.NewResolver(opts.Master, opts.Transport, opts.Refresh),
		moving: make(map[int]bool),
	}
}

// selfURL returns the node's advertised base URL ("" until known).
func (c *clusterNode) selfURL() string {
	v, _ := c.self.Load().(string)
	return v
}

// isMoving reports whether a shard is frozen mid-handoff on this node.
func (c *clusterNode) isMoving(shard int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.moving[shard]
}

// SetClusterSelf records the node's advertised base URL once Serve has
// bound it; no-op on unclustered nodes.
func (s *Service) SetClusterSelf(base string) {
	if s.cnode != nil {
		s.cnode.self.Store(base)
	}
}

// registerClusterMetrics adds the node-side cluster instruments.
func (s *Service) registerClusterMetrics() {
	c := s.cnode
	s.reg.GaugeFunc("repro_cluster_map_epoch",
		"Epoch of the node's cached shard map (0 = not yet resolved).", nil,
		func() float64 { return float64(c.res.CachedEpoch()) })
	reject := func(reason string, v *atomic.Uint64) {
		s.reg.CounterFunc("repro_cluster_write_rejects_total",
			"Write requests rejected by the cluster ownership guard, by reason.",
			obs.Labels{"reason": reason},
			func() float64 { return float64(v.Load()) })
	}
	reject(cluster.CodeStaleEpoch, &c.staleRejects)
	reject(cluster.CodeShardMoving, &c.movingRejects)
	reject(cluster.CodeNotOwner, &c.ownerRejects)
}

// retryableClusterErr builds the 503 envelope carrying a cluster code;
// callers pair it with a Retry-After header so transports back off and
// re-resolve instead of hammering the stale owner.
func retryableClusterErr(code string, err error) error {
	return &api.Error{Status: http.StatusServiceUnavailable, Code: code, Err: err}
}

// clusterEngine returns the sharded engine (cluster mode pins it).
func (s *Service) clusterEngine() *tsdb.Sharded { return s.store.(*tsdb.Sharded) }

// clusterCheckEpoch validates the request's X-Cluster-Epoch header
// against the node's map view. A request stamped newer than the cache
// triggers a refresh (that is how nodes learn of a flip without
// polling); one stamped older than the refreshed view is rejected as
// stale so the sender re-resolves.
func (s *Service) clusterCheckEpoch(r *http.Request) error {
	hdr := r.Header.Get(cluster.EpochHeader)
	if hdr == "" {
		return nil // unstamped legacy writer: ownership check still applies
	}
	e, err := strconv.ParseUint(hdr, 10, 64)
	if err != nil {
		return api.BadRequest(fmt.Errorf("bad %s header %q", cluster.EpochHeader, hdr))
	}
	m, err := s.cnode.res.EnsureEpoch(r.Context(), e)
	if err != nil {
		return nil // master unreachable: admit on the cached view below
	}
	if e < m.Epoch {
		s.cnode.staleRejects.Add(1)
		return retryableClusterErr(cluster.CodeStaleEpoch,
			fmt.Errorf("request resolved map epoch %d, node holds %d; re-resolve and retry", e, m.Epoch))
	}
	return nil
}

// clusterCheckShard enforces ownership of one shard. Caller holds the
// gate in read mode.
func (s *Service) clusterCheckShard(shard int) error {
	c := s.cnode
	if c.isMoving(shard) {
		c.movingRejects.Add(1)
		return retryableClusterErr(cluster.CodeShardMoving,
			fmt.Errorf("shard %d is mid-handoff on this node; retry against the new owner", shard))
	}
	if m, ok := c.res.Cached(); ok {
		if self := c.selfURL(); self != "" && m.Owner(shard) != self {
			c.ownerRejects.Add(1)
			return retryableClusterErr(cluster.CodeNotOwner,
				fmt.Errorf("shard %d is owned by %s (map epoch %d)", shard, m.Owner(shard), m.Epoch))
		}
	}
	return nil
}

// admit is a clustered node's write admission, run over a request's
// whole decoded body before any row of it is staged (see the package
// comment): the epoch check, then the gate's read lock — held until the
// ingester is released — then one ownership check per distinct shard
// the rows' devices hash to, in body order. Ownership is a shard's, so
// that covers every distinct device, and a refusal names the shard of
// the first refused row. A PUT checks its one path device; a row
// without a device is left to the ingester, which rejects it per row. A
// refusal leaves the gate again.
func (g *ingester) admit(r *http.Request, pts []Point) error {
	s := g.s
	if err := s.clusterCheckEpoch(r); err != nil {
		return err
	}
	sh := s.clusterEngine()
	s.cnode.gate.RLock()
	var err error
	if g.key.Device != "" {
		err = s.clusterCheckShard(sh.ShardFor(g.key.Device))
	} else {
		checked := make([]bool, sh.NumShards())
		for i := range pts {
			if pts[i].Device == "" {
				continue
			}
			if shard := sh.ShardFor(pts[i].Device); !checked[shard] {
				if err = s.clusterCheckShard(shard); err != nil {
					break
				}
				checked[shard] = true
			}
		}
	}
	if err != nil {
		s.cnode.gate.RUnlock()
		return err
	}
	g.gated = true
	return nil
}

// ---------------------------------------------------------------------
// Handoff endpoints
// ---------------------------------------------------------------------

// mountCluster registers the node-side cluster plane (clustered nodes
// only).
func (s *Service) mountCluster(srv *api.Server) {
	srv.HandleFunc(http.MethodPost, "/cluster/shards/{shard}/freeze", s.clusterFreeze)
	srv.HandleFunc(http.MethodGet, "/cluster/shards/{shard}/archive", s.clusterArchive)
	srv.HandleFunc(http.MethodPost, "/cluster/shards/{shard}/restore", s.clusterRestore)
	srv.HandleFunc(http.MethodPost, "/cluster/shards/{shard}/release", s.clusterRelease)
}

// clusterShardArg parses the {shard} path parameter against the engine.
func (s *Service) clusterShardArg(w http.ResponseWriter, r *http.Request) (*tsdb.Sharded, int, bool) {
	sh := s.clusterEngine()
	i, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || i < 0 || i >= sh.NumShards() {
		api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad shard %q (engine has %d)", r.PathValue("shard"), sh.NumShards())))
		return nil, 0, false
	}
	return sh, i, true
}

// clusterFreeze stops writes into one shard and drains it: the moving
// mark is flipped under the gate's write lock (waiting out every
// admitted in-flight write), the queue flushes, and the shard publishes
// — after the response the shard directory holds a snapshot of the
// head and its blocks, nothing of it lives only in the node log, and no
// new row can enter it.
func (s *Service) clusterFreeze(w http.ResponseWriter, r *http.Request) {
	sh, i, ok := s.clusterShardArg(w, r)
	if !ok {
		return
	}
	c := s.cnode
	c.gate.Lock()
	c.mu.Lock()
	c.moving[i] = true
	c.mu.Unlock()
	c.gate.Unlock()
	if err := sh.SyncShard(i); err != nil {
		api.WriteError(w, r, api.Internal(fmt.Errorf("sync shard %d: %w", i, err)))
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"shard": i, "frozen": true})
}

// clusterRelease ends a handoff on the source node. It re-resolves the
// map first: if this node still owns the shard the move was aborted and
// the data stays; if ownership has flipped away, the local copy is
// wiped. Either way the shard unfreezes.
func (s *Service) clusterRelease(w http.ResponseWriter, r *http.Request) {
	sh, i, ok := s.clusterShardArg(w, r)
	if !ok {
		return
	}
	c := s.cnode
	stillOwner := true // unreachable master or unknown self: keep the data
	if m, err := c.res.Refresh(r.Context()); err == nil {
		if self := c.selfURL(); self != "" {
			stillOwner = m.Owner(i) == self
		}
	}
	reset := false
	if !stillOwner {
		if err := sh.ResetShard(i); err != nil {
			api.WriteError(w, r, api.Internal(fmt.Errorf("reset shard %d: %w", i, err)))
			return
		}
		reset = true
	}
	c.mu.Lock()
	delete(c.moving, i)
	c.mu.Unlock()
	api.WriteJSON(w, http.StatusOK, map[string]any{"shard": i, "released": true, "reset": reset})
}

// clusterArchive streams a frozen shard's directory as the engine frames
// it (tsdb.Sharded.ArchiveShard). Requires the shard to be frozen —
// archiving a live shard would race its writer.
func (s *Service) clusterArchive(w http.ResponseWriter, r *http.Request) {
	sh, i, ok := s.clusterShardArg(w, r)
	if !ok {
		return
	}
	if !s.cnode.isMoving(i) {
		api.WriteError(w, r, api.WithStatus(http.StatusConflict, fmt.Errorf("shard %d is not frozen", i)))
		return
	}
	aw := &archiveWriter{ResponseWriter: w}
	if err := sh.ArchiveShard(i, aw); err != nil && !aw.started {
		api.WriteError(w, r, err)
	} // once the stream started, a failure tears it; the restorer refuses it
}

// archiveWriter starts the archive answer on its first byte, so an
// engine error before the stream still answers an error envelope.
type archiveWriter struct {
	http.ResponseWriter
	started bool
}

func (a *archiveWriter) Write(p []byte) (int, error) {
	if !a.started {
		a.started = true
		a.Header().Set("Content-Type", "application/octet-stream")
		a.WriteHeader(http.StatusOK)
	}
	return a.ResponseWriter.Write(p)
}

// clusterRestore rebuilds one shard from an archive stream in one
// engine step (tsdb.Sharded.RestoreShard): a retried restore replaces,
// never adds to, what an earlier attempt left. A refused archive
// answers 400, one of another shard 409, the node's own failure 500.
func (s *Service) clusterRestore(w http.ResponseWriter, r *http.Request) {
	sh, i, ok := s.clusterShardArg(w, r)
	if !ok {
		return
	}
	rows, err := sh.RestoreShard(i, r.Body)
	if err != nil {
		api.WriteError(w, r, fmt.Errorf("restore shard %d: %w", i, err))
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"shard": i, "rows": rows})
}
