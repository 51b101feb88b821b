package measuredb

import (
	"sync"

	"repro/internal/tsdb"
)

// Scatter-gather planning over the sharded store. A glob selector can
// match series in every shard; resolution fans one matcher per shard and
// merges the sorted per-shard key lists, so catalog listings and batch
// queries see one deterministic order whatever the partitioning is.
// Exact selectors skip the fan-out: the device hash names the one shard
// that can hold the series. The same merge (kmerge) joins the
// coordinator's per-node answers.

// matchKeys filters one key list by a selector, sorted.
func matchKeys(keys []tsdb.SeriesKey, sel SeriesSelector) []tsdb.SeriesKey {
	var out []tsdb.SeriesKey
	for _, k := range keys {
		if sel.Device != "" && !globMatch(sel.Device, k.Device) {
			continue
		}
		if sel.Quantity != "" && !globMatch(sel.Quantity, k.Quantity) {
			continue
		}
		out = append(out, k)
	}
	sortKeys(out)
	return out
}

// kmerge k-way merges lists sorted by key into one sorted list: a
// glob's per-shard key lists, the per-node halves of a coordinator's
// catalog page or batch result. A key several lists hold (a shard both
// nodes list mid-handoff) appears once, as the copy size says is
// fuller. Lists are few, so a linear min-scan per output item beats
// heap bookkeeping.
func kmerge[T any](lists [][]T, key func(*T) tsdb.SeriesKey, size func(*T) int) []T {
	total, nonEmpty, last := 0, 0, 0
	for i, l := range lists {
		if len(l) > 0 {
			total, nonEmpty, last = total+len(l), nonEmpty+1, i
		}
	}
	if nonEmpty < 2 {
		if nonEmpty == 0 {
			return nil
		}
		return lists[last]
	}
	out := make([]T, 0, total)
	pos := make([]int, len(lists))
	for {
		best, bestKey := -1, tsdb.SeriesKey{}
		for i, l := range lists {
			if pos[i] < len(l) {
				if k := key(&l[pos[i]]); best < 0 || keyLess(k, bestKey) {
					best, bestKey = i, k
				}
			}
		}
		if best < 0 {
			return out
		}
		next := &lists[best][pos[best]]
		pos[best]++
		if n := len(out); n > 0 && key(&out[n-1]) == bestKey {
			if size(next) > size(&out[n-1]) {
				out[n-1] = *next
			}
			continue
		}
		out = append(out, *next)
	}
}

// keyLess orders series keys by device, then quantity.
func keyLess(a, b tsdb.SeriesKey) bool {
	if a.Device != b.Device {
		return a.Device < b.Device
	}
	return a.Quantity < b.Quantity
}

// resolveSelector expands one selector to the stored series it matches,
// sorted for deterministic output. On a sharded engine, glob selectors
// scatter one matcher per shard and gather a merged sorted list; exact
// device selectors only consult the owning shard.
func (s *Service) resolveSelector(sel SeriesSelector) []tsdb.SeriesKey {
	keys := s.resolveSelectorKeys(sel)
	if s.fanout != nil {
		s.fanout.Observe(float64(len(keys)))
	}
	return keys
}

func (s *Service) resolveSelectorKeys(sel SeriesSelector) []tsdb.SeriesKey {
	exactDevice := sel.Device != "" && !hasGlob(sel.Device)
	if exactDevice && sel.Quantity != "" && !hasGlob(sel.Quantity) {
		key := tsdb.SeriesKey{Device: sel.Device, Quantity: sel.Quantity}
		if s.store.Len(key) > 0 {
			return []tsdb.SeriesKey{key}
		}
		return nil
	}
	sh, sharded := s.store.(*tsdb.Sharded)
	switch {
	case exactDevice:
		// One device → one shard; its key list is already device-local.
		return matchKeys(s.store.KeysForDevice(sel.Device), sel)
	case sharded && sh.NumShards() > 1:
		per := make([][]tsdb.SeriesKey, sh.NumShards())
		var wg sync.WaitGroup
		for i := range per {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				per[i] = matchKeys(sh.ShardKeys(i), sel)
			}(i)
		}
		wg.Wait()
		return kmerge(per, func(k *tsdb.SeriesKey) tsdb.SeriesKey { return *k }, func(*tsdb.SeriesKey) int { return 0 })
	default:
		return matchKeys(s.store.Keys(), sel)
	}
}
