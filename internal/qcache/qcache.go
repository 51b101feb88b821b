// Package qcache is the generation-keyed query/aggregate result cache:
// a bounded, sharded LRU over immutable encoded response bytes.
//
// The cache stores fully-encoded responses (a JSON page, an aggregate
// document, a catalog listing) under keys the caller builds from the
// request's normalized parameters PLUS a snapshot of the storage
// generations the answer was computed from. Storage bumps a shard's
// generation before acknowledging any mutation (append wave, compaction
// publish, retention pass, reset, restore), so a key built after a
// write can never match an entry computed before it: invalidation is
// implicit in the keying and read-your-writes holds exactly. Entries
// made stale by a generation bump are never served again and age out of
// the LRU under byte pressure.
//
// The cache itself is deliberately dumb: it knows nothing about
// selectors, epochs, or shards — only keys, bytes, and a budget. All
// consistency reasoning lives in how callers build keys.
package qcache

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// numShards is the lock-striping factor. Requests hash across the
// shards, so the per-shard mutex is uncontended at typical request
// parallelism.
const numShards = 16

// entryOverhead approximates the bookkeeping bytes an entry costs
// beyond its key and value, charged against the budget so many small
// entries cannot blow past it.
const entryOverhead = 96

// Cache is a bounded, sharded LRU keyed by caller-built strings. A nil
// *Cache is valid and permanently empty: Get always misses, Put is a
// no-op — the cache-disabled configuration needs no branches at call
// sites beyond the ones already there.
type Cache struct {
	shards [numShards]shard

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64
	entries   atomic.Int64
}

// shard is one lock-striped LRU segment with its own byte budget.
type shard struct {
	mu  sync.Mutex
	max int64
	cur int64
	m   map[string]*entry
	// Intrusive LRU list: head is most recent, tail the eviction
	// candidate. Zero entries mean both are nil.
	head, tail *entry
}

// entry is one cached response. val is immutable once stored.
type entry struct {
	key        string
	val        []byte
	prev, next *entry
}

// New creates a cache bounded to roughly maxBytes of resident keys and
// values. A non-positive budget returns nil — the valid, always-miss
// cache — so a size flag wired straight through needs no special case.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache{}
	per := maxBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].max = per
		c.shards[i].m = make(map[string]*entry)
	}
	return c
}

// Get returns the bytes cached under key. The returned slice is shared
// and read-only: write it to the response, never into it.
func (c *Cache) Get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	e, ok := sh.m[key]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	sh.moveToFront(e)
	val := e.val
	sh.mu.Unlock()
	c.hits.Add(1)
	return val, true
}

// Put stores val under key, copying it — callers hand in pooled encode
// buffers and reuse them immediately. Values larger than a shard's
// whole budget are rejected rather than flushing everything else.
func (c *Cache) Put(key string, val []byte) {
	if c == nil {
		return
	}
	sh := &c.shards[shardOf(key)]
	cost := int64(len(key) + len(val) + entryOverhead)
	if cost > sh.max {
		return
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	sh.mu.Lock()
	if old, ok := sh.m[key]; ok {
		// Same key refilled (a racing miss, or a re-encode after the
		// value aged out of the map elsewhere): replace in place.
		delta := int64(len(cp)) - int64(len(old.val))
		old.val = cp
		sh.cur += delta
		c.bytes.Add(delta)
		sh.moveToFront(old)
	} else {
		e := &entry{key: key, val: cp}
		sh.m[key] = e
		sh.pushFront(e)
		sh.cur += cost
		c.bytes.Add(cost)
		c.entries.Add(1)
	}
	for sh.cur > sh.max && sh.tail != nil {
		ev := sh.tail
		sh.unlink(ev)
		delete(sh.m, ev.key)
		freed := int64(len(ev.key) + len(ev.val) + entryOverhead)
		sh.cur -= freed
		c.bytes.Add(-freed)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
	sh.mu.Unlock()
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Bytes     int64
	Entries   int64
}

// Stats snapshots the counters (all-zero on a nil cache).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     c.bytes.Load(),
		Entries:   c.entries.Load(),
	}
}

// pushFront links a new entry at the MRU position.
func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes an entry from the list.
func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// moveToFront marks an entry most-recently-used.
func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// shardOf stripes a key over the segments (FNV-1a).
func shardOf(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % numShards)
}

// Key builds a cache key from heterogeneous parts without intermediate
// allocations: parts append to one growing buffer, separated by an
// unambiguous delimiter so "ab"+"c" and "a"+"bc" never collide. The
// zero Key is ready to use; Reset recycles the buffer across requests
// (callers pool the builder, not the key string).
type Key struct {
	b []byte
}

// sep separates key parts. It is a byte that cannot appear in device
// URIs, quantities, or the numeric parts (0x1f, the ASCII unit
// separator) — and even if a caller smuggles one in, the part lengths
// still disambiguate common cases well enough for a cache (a false
// collision only costs a wrong hit if every generation also matches,
// and keys embed the full normalized request, so equal keys mean equal
// requests in practice).
const sep = 0x1f

// Reset empties the key for reuse, keeping the buffer.
func (k *Key) Reset() { k.b = k.b[:0] }

// Str appends a string part.
func (k *Key) Str(s string) *Key {
	k.b = append(k.b, s...)
	k.b = append(k.b, sep)
	return k
}

// Int appends a signed integer part.
func (k *Key) Int(v int64) *Key {
	k.b = appendInt(k.b, v)
	k.b = append(k.b, sep)
	return k
}

// Uint appends an unsigned integer part.
func (k *Key) Uint(v uint64) *Key {
	k.b = appendUint(k.b, v)
	k.b = append(k.b, sep)
	return k
}

// Bytes appends a raw byte-slice part (a request body, a pre-joined
// sub-key) without converting it to a string first.
func (k *Key) Bytes(b []byte) *Key {
	k.b = append(k.b, b...)
	k.b = append(k.b, sep)
	return k
}

// Gens appends a generation snapshot.
func (k *Key) Gens(gens []uint64) *Key {
	for _, g := range gens {
		k.b = appendUint(k.b, g)
		k.b = append(k.b, ',')
	}
	k.b = append(k.b, sep)
	return k
}

// String materializes the key. The one unavoidable allocation of a
// cache probe: map lookup needs a string.
func (k *Key) String() string { return string(k.b) }

func appendInt(b []byte, v int64) []byte   { return strconv.AppendInt(b, v, 10) }
func appendUint(b []byte, v uint64) []byte { return strconv.AppendUint(b, v, 10) }
