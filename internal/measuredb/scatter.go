package measuredb

import (
	"cmp"
	"strings"

	"repro/internal/tsdb"
)

// Selector resolution over the shard catalogs. Every shard lists its
// series in one immutable catalog sorted by tsdb.CompareKeys, so the
// literal prefix of a device selector (what precedes its first '*')
// bounds a binary-searched run of each catalog, and an exact device is
// searched for in the one shard its hash names. The runs are
// glob-filtered and merged (kmerge) on the calling goroutine, so catalog
// listings and batch queries see one deterministic order whatever the
// partitioning is. The same merge joins the coordinator's per-node
// answers.

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
				if k := key(&l[pos[i]]); best < 0 || tsdb.CompareKeys(k, bestKey) < 0 {
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

// resolveSelector expands one selector to the stored series it matches,
// sorted by tsdb.CompareKeys. It starts no goroutine and builds no map:
// a glob searches every shard's catalog, an exact device its owner's.
func (s *Service) resolveSelector(sel SeriesSelector) []tsdb.SeriesKey {
	keys := s.resolveSelectorKeys(sel)
	if s.fanout != nil {
		s.fanout.Observe(float64(len(keys)))
	}
	return keys
}

func (s *Service) resolveSelectorKeys(sel SeriesSelector) []tsdb.SeriesKey {
	device := cmp.Or(sel.Device, "*") // no device selects every device
	prefix, _, glob := strings.Cut(device, "*")
	rest := device[len(prefix):] // what a device in the prefix's run must still match
	n := s.store.NumShards()
	first, last := 0, n
	if !glob {
		first = tsdb.ShardOf(device, n)
		last = first + 1
	}
	runs, total := make([][]tsdb.SeriesKey, 0, last-first), 0
	for i := first; i < last; i++ {
		run := tsdb.DeviceRange(s.store.Catalog(i), prefix)
		runs, total = append(runs, run), total+len(run)
	}
	// Each run is filtered into one buffer sized for every candidate.
	matched := make([]tsdb.SeriesKey, 0, total)
	for j, run := range runs {
		from := len(matched)
		for _, k := range run {
			if globMatch(rest, k.Device[len(prefix):]) &&
				(sel.Quantity == "" || globMatch(sel.Quantity, k.Quantity)) {
				matched = append(matched, k)
			}
		}
		runs[j] = matched[from:]
	}
	return kmerge(runs, func(k *tsdb.SeriesKey) tsdb.SeriesKey { return *k }, func(*tsdb.SeriesKey) int { return 0 })
}
