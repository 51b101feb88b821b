package measuredb

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/tsdb"
)

// The durable-storage ops surface, the service half of
// `districtctl data`:
//
//	GET  /v1/storage                 per-shard storage status
//	POST /v1/storage/compact[?shard=N]  force a compaction cycle
//
// Both require the sharded engine; compaction additionally requires a
// durable one (DataDir set).

// StorageShard is one shard's slice of the storage status report.
type StorageShard struct {
	tsdb.ShardStatus
	DiskBytes int64 `json:"disk_bytes,omitempty"`
}

// StorageStatus is the GET /v1/storage body.
type StorageStatus struct {
	Durable bool           `json:"durable"`
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
// and their bytes.
func (s *Service) storageStatus(w http.ResponseWriter, r *http.Request) {
	sh := s.store.(*tsdb.Sharded)
	out := StorageStatus{Shards: make([]StorageShard, 0, sh.NumShards())}
	for i := 0; i < sh.NumShards(); i++ {
		st := StorageShard{ShardStatus: sh.ShardStatus(i)}
		if st.Dir != "" {
			out.Durable = true
			st.DiskBytes = dirBytes(st.Dir)
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
