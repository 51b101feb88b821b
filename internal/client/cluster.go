package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/api"
	"repro/internal/cluster"
)

// ClusterClient is the cluster-operations sub-client: it reads and
// publishes the master's shard map and orchestrates live shard
// handoffs. A node's shard state is its /v1/storage report (Ops).
type ClusterClient struct {
	c *Client
}

// Cluster returns the cluster-operations sub-client (master-bound; the
// per-node calls take node base URLs from the map).
func (c *Client) Cluster() *ClusterClient {
	return &ClusterClient{c: c}
}

// Map fetches the master's current shard map.
func (cc *ClusterClient) Map(ctx context.Context) (cluster.Map, error) {
	var m cluster.Map
	if err := cc.c.transport().GetJSON(ctx, cc.c.masterURL("/cluster/map"), &m); err != nil {
		return cluster.Map{}, err
	}
	return m, nil
}

// MoveShard flips one shard's ownership on the master map (epoch
// bump), without touching any data — Move is the full orchestration.
func (cc *ClusterClient) MoveShard(ctx context.Context, shard int, node string) (cluster.Map, error) {
	var out cluster.Map
	in := map[string]any{"shard": shard, "node": node}
	if err := cc.c.transport().PostJSON(ctx, cc.c.masterURL("/cluster/move"), in, &out); err != nil {
		return cluster.Map{}, err
	}
	return out, nil
}

// MoveReport summarizes one completed shard handoff.
type MoveReport struct {
	Shard int    `json:"shard"`
	From  string `json:"from"`
	To    string `json:"to"`
	// Rows is how many rows the restore loaded into the target's head.
	Rows int `json:"rows"`
	// Epoch is the map epoch after the flip.
	Epoch uint64 `json:"epoch"`
}

// Move performs a live shard handoff: freeze the shard on its current
// owner (draining in-flight writes and fsyncing its WAL), stream the
// frozen directory to the target, restore it there, flip the master map
// (epoch bump), and release the source (which re-resolves the map, sees
// ownership gone, and wipes its local copy). Writes addressed to the
// shard are rejected with retryable envelopes between freeze and flip,
// so a router retrying through the new map loses nothing.
//
// If any step after the freeze fails, the source shard is released
// without the map having flipped: it unfreezes still owning its data,
// and the cluster is back where it started.
func (cc *ClusterClient) Move(ctx context.Context, shard int, target string) (*MoveReport, error) {
	t := cc.c.transport()
	m, err := cc.Map(ctx)
	if err != nil {
		return nil, fmt.Errorf("resolve shard map: %w", err)
	}
	src := m.Owner(shard)
	if src == "" {
		return nil, fmt.Errorf("shard %d is out of range (map has %d shards)", shard, m.Shards)
	}
	if src == target {
		return nil, fmt.Errorf("shard %d is already owned by %s", shard, target)
	}

	shardPath := func(base, op string) string {
		return api.URL(base, "/cluster/shards/"+strconv.Itoa(shard)+"/"+op)
	}
	release := func() {
		// Best-effort: release re-resolves the map itself, so calling it
		// after the flip wipes the source and before the flip just
		// unfreezes — the same call is the abort and the cleanup.
		_ = t.PostJSON(ctx, shardPath(src, "release"), nil, nil)
	}
	if err := t.PostJSON(ctx, shardPath(src, "freeze"), nil, nil); err != nil {
		return nil, fmt.Errorf("freeze shard %d on %s: %w", shard, src, err)
	}
	// The archive streams from the source into the restore as it
	// arrives, so a shard of any size moves in constant memory. Each leg
	// is one attempt: any failure aborts the move and releases the source.
	pipe := &api.Transport{Client: cc.c.streamHTTP(), MaxAttempts: 1}
	archive, err := pipe.Open(ctx, http.MethodGet, shardPath(src, "archive"), nil, nil)
	if err != nil {
		release()
		return nil, fmt.Errorf("archive shard %d from %s: %w", shard, src, err)
	}
	var restored struct {
		Rows int `json:"rows"`
	}
	{
		h := http.Header{"Content-Type": {"application/octet-stream"}}
		raw, _, err := pipe.Send(ctx, http.MethodPost, shardPath(target, "restore"), h, archive.Body)
		archive.Body.Close()
		if err != nil {
			release()
			return nil, fmt.Errorf("restore shard %d on %s: %w", shard, target, err)
		}
		if err := json.Unmarshal(raw, &restored); err != nil {
			release()
			return nil, fmt.Errorf("restore shard %d on %s: bad response: %w", shard, target, err)
		}
	}
	flipped, err := cc.MoveShard(ctx, shard, target)
	if err != nil {
		release()
		return nil, fmt.Errorf("flip map for shard %d: %w", shard, err)
	}
	release()
	return &MoveReport{Shard: shard, From: src, To: target, Rows: restored.Rows, Epoch: flipped.Epoch}, nil
}
