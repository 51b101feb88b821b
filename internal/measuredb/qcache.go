package measuredb

import (
	"sync"

	"repro/internal/api"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// Result-cache glue: how the /v2 read plane keys the generation-keyed
// cache (internal/qcache) off the sharded engine's mutation counters.
//
// The consistency argument lives in the ordering, not in any explicit
// invalidation: a handler snapshots the relevant shard generations
// BEFORE evaluating the store read, and the snapshot is part of the
// cache key. Storage bumps a shard's generation before acknowledging
// any mutation (append wave, compaction publish, retention pass, reset,
// restore), so a key built after an acked write can never equal a key
// built before it — read-your-writes holds exactly, and stale entries
// are simply never addressed again until the LRU ages them out.

// qcScratch pools the per-request key builder and generation buffer so
// a cache probe costs one string materialization, nothing else.
type qcScratch struct {
	k    qcache.Key
	gens []uint64
}

var qcScratchPool = sync.Pool{New: func() any { return new(qcScratch) }}

func getQCScratch() *qcScratch {
	sc := qcScratchPool.Get().(*qcScratch)
	sc.k.Reset()
	return sc
}

func putQCScratch(sc *qcScratch) { qcScratchPool.Put(sc) }

// cachedDevice serves a single-device route through the result cache.
// build appends the request's normalized identity to the key; the owner
// shard's generation is appended after it, read before compute runs.
// On a miss, compute's result is encoded once (exactly the bytes
// api.WriteJSON would produce; an api.RawJSON result is those bytes
// already), cached, and returned as api.RawJSON so cached and uncached
// responses are byte-identical.
func (s *Service) cachedDevice(device string, build func(*qcache.Key), compute func() (any, error)) (any, error) {
	if s.qc == nil {
		return compute()
	}
	sc := getQCScratch()
	defer putQCScratch(sc)
	build(&sc.k)
	sc.k.Uint(s.qsh.ShardGeneration(s.qsh.ShardFor(device)))
	return s.qcServe(sc, compute)
}

// cachedAll is cachedDevice for routes that read across every shard
// (catalog listings, batch queries): the key carries the full
// generation vector, so a write to any shard invalidates it.
func (s *Service) cachedAll(build func(*qcache.Key), compute func() (any, error)) (any, error) {
	if s.qc == nil {
		return compute()
	}
	sc := getQCScratch()
	defer putQCScratch(sc)
	build(&sc.k)
	sc.gens = s.qsh.Generations(sc.gens[:0])
	sc.k.Gens(sc.gens)
	return s.qcServe(sc, compute)
}

func (s *Service) qcServe(sc *qcScratch, compute func() (any, error)) (any, error) {
	key := sc.k.String()
	if raw, ok := s.qc.Get(key); ok {
		return api.RawJSON(raw), nil
	}
	out, err := compute()
	if err != nil {
		// Errors are never cached: they already cost nothing to
		// recompute, and a NotFound must heal the moment a write lands.
		return nil, err
	}
	enc, isRaw := out.(api.RawJSON) // a handler that encodes its own answer
	if !isRaw {
		var encErr error
		if enc, encErr = api.EncodeJSON(out); encErr != nil {
			// An unencodable value will fail identically in the response
			// writer; let that path own the error envelope.
			return out, nil
		}
	}
	s.qc.Put(key, enc)
	return api.RawJSON(enc), nil
}

// registerQCacheMetrics exposes the cache counters on the service
// registry.
func registerQCacheMetrics(reg *obs.Registry, c *qcache.Cache) {
	reg.CounterFunc("repro_qcache_hits_total",
		"Query result-cache hits (responses served without touching the store).", nil,
		func() float64 { return float64(c.Stats().Hits) })
	reg.CounterFunc("repro_qcache_misses_total",
		"Query result-cache misses (responses evaluated from the store).", nil,
		func() float64 { return float64(c.Stats().Misses) })
	reg.CounterFunc("repro_qcache_evictions_total",
		"Query result-cache entries evicted under the byte budget.", nil,
		func() float64 { return float64(c.Stats().Evictions) })
	reg.GaugeFunc("repro_qcache_bytes",
		"Bytes resident in the query result cache (keys, values, and bookkeeping).", nil,
		func() float64 { return float64(c.Stats().Bytes) })
	reg.GaugeFunc("repro_qcache_entries",
		"Entries resident in the query result cache.", nil,
		func() float64 { return float64(c.Stats().Entries) })
}
