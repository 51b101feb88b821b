package measuredb

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/cluster"
	"repro/internal/tsdb"
)

// The durable-storage ops surface, the service half of
// `districtctl data`:
//
//	GET  /v1/storage                 per-shard storage status
//	POST /v1/storage/compact[?shard=N]  force a compaction cycle
//
// Both require the sharded engine; compaction additionally requires a
// durable one (DataDir set). The status is a node's one shard report:
// on a clustered node it also carries the node's map view — the
// per-node half of `districtctl cluster status`.

// StorageShard is one shard's slice of the storage status report.
// Owned and Moving are a clustered node's alone: whether its cached map
// names it the shard's owner, and whether the shard is frozen
// mid-handoff.
type StorageShard struct {
	tsdb.ShardStatus
	Owned  bool `json:"owned,omitempty"`
	Moving bool `json:"moving,omitempty"`
}

// StorageStatus is the GET /v1/storage body. Self (the node's own URL,
// once known) and Epoch (the epoch of its cached shard map, 0 before
// the first) are a clustered node's alone.
type StorageStatus struct {
	Durable bool           `json:"durable"`
	Self    string         `json:"self,omitempty"`
	Epoch   uint64         `json:"epoch,omitempty"`
	Shards  []StorageShard `json:"shards"`
}

// mountStorage registers the storage ops routes when the backing engine
// is the sharded one (default and cluster deployments; a caller-supplied
// Engine or Store has no shard surface to report).
func (s *Service) mountStorage(srv *api.Server) {
	if _, ok := s.store.(*tsdb.Sharded); !ok {
		return
	}
	srv.HandleFunc(http.MethodGet, "/storage", s.storageStatus)
	srv.HandleFunc(http.MethodPost, "/storage/compact", s.storageCompact)
}

// storageStatus reports every shard's live storage counters: head
// series/samples, WAL depth and the node log's segments, block files
// and their bytes; on a clustered node, also its map view from the
// cached map — a status read never waits on the master.
func (s *Service) storageStatus(w http.ResponseWriter, r *http.Request) {
	sh := s.store.(*tsdb.Sharded)
	out := StorageStatus{Shards: make([]StorageShard, 0, sh.NumShards())}
	c := s.cnode
	var m cluster.Map
	if c != nil {
		m, _ = c.res.Cached()
		out.Self, out.Epoch = c.selfURL(), m.Epoch
	}
	for i := 0; i < sh.NumShards(); i++ {
		st := StorageShard{ShardStatus: sh.ShardStatus(i)}
		if st.Dir != "" {
			out.Durable = true
		}
		if c != nil {
			st.Owned = out.Self != "" && m.Owner(i) == out.Self
			st.Moving = c.isMoving(i)
		}
		out.Shards = append(out.Shards, st)
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// storageCompact forces a compaction cycle — cut head rows past the
// head window into a block, apply retention, snapshot, truncate the node log
// — on one shard (?shard=N) or all of them.
func (s *Service) storageCompact(w http.ResponseWriter, r *http.Request) {
	sh := s.store.(*tsdb.Sharded)
	var err error
	shards := sh.NumShards()
	if arg := r.URL.Query().Get("shard"); arg != "" {
		i, perr := strconv.Atoi(arg)
		if perr != nil || i < 0 || i >= sh.NumShards() {
			api.WriteError(w, r, api.BadRequest(fmt.Errorf("bad shard %q (engine has %d)", arg, sh.NumShards())))
			return
		}
		shards = 1
		err = sh.CompactShard(i)
	} else {
		err = sh.CompactAll()
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, tsdb.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		api.WriteError(w, r, api.WithStatus(status, fmt.Errorf("compact: %w", err)))
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"compacted": true, "shards": shards})
}
