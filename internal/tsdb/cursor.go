package tsdb

import "time"

// DefaultPageLimit bounds a QueryPage when the caller passes limit <= 0.
const DefaultPageLimit = 1000

// Cursor is a resume position inside one series range scan. It is
// value-based, not offset-based: it records the timestamp of the last
// returned sample plus how many samples with exactly that timestamp have
// already been returned, so it stays valid when the store mutates
// between pages (old samples evicted, new ones appended or spilled in).
// The zero Cursor starts at the beginning of the range.
type Cursor struct {
	// After is the timestamp of the last sample already returned.
	After time.Time
	// Seen is how many samples with At == After were already returned
	// (several samples may share one timestamp).
	Seen int
}

// zero reports whether the cursor is the start-of-range marker.
func (c Cursor) zero() bool { return c.After.IsZero() }

// Page is one bounded slice of a series range scan.
type Page struct {
	// Samples are the page's samples in ascending time order.
	Samples []Sample
	// Next resumes the scan after the last sample of this page; only
	// meaningful when More is true.
	Next Cursor
	// More reports that the range holds samples beyond this page.
	More bool
}

// Pager serves bounded pages of one series range scan: the Sharded
// engine (its pages merge each shard's head with its blocks) or a
// wrapper around it. The Iterator works against any.
type Pager interface {
	QueryPage(key SeriesKey, from, to time.Time, cur Cursor, limit int) (Page, error)
}

// Iterator walks one series range in bounded pages: memory stays
// O(page size) however large the range is. The store may mutate between
// pages; the value-based cursor keeps the walk gap- and duplicate-free
// with respect to the samples that remain stored.
type Iterator struct {
	p        Pager
	key      SeriesKey
	from, to time.Time
	pageSize int

	page    Page
	i       int
	started bool
	done    bool
	err     error
}

// IterPager builds an Iterator over any Pager: the samples of a series
// with At in [from, to]. A zero `to` pins the upper bound to "now" once,
// so the walk is stable while the series keeps growing. pageSize <= 0
// means DefaultPageLimit.
func IterPager(p Pager, key SeriesKey, from, to time.Time, pageSize int) *Iterator {
	if to.IsZero() {
		to = time.Now()
	}
	if pageSize <= 0 {
		pageSize = DefaultPageLimit
	}
	return &Iterator{p: p, key: key, from: from, to: to, pageSize: pageSize}
}

// StartAt positions the iterator to resume after cur (e.g. a cursor a
// paginated API echoed back). It must be called before the first Next.
func (it *Iterator) StartAt(cur Cursor) *Iterator {
	it.page.Next = cur
	return it
}

// Next returns the next sample, advancing the iterator. It reports false
// when the range is exhausted or an error occurred (check Err).
func (it *Iterator) Next() (Sample, bool) {
	for {
		if it.err != nil || it.done {
			return Sample{}, false
		}
		if it.i < len(it.page.Samples) {
			smp := it.page.Samples[it.i]
			it.i++
			return smp, true
		}
		if it.started && !it.page.More {
			it.done = true
			return Sample{}, false
		}
		page, err := it.p.QueryPage(it.key, it.from, it.to, it.page.Next, it.pageSize)
		if err != nil {
			it.err = err
			return Sample{}, false
		}
		it.started = true
		it.page = page
		it.i = 0
		if len(page.Samples) == 0 && !page.More {
			it.done = true
			return Sample{}, false
		}
	}
}

// Err returns the error that stopped the iterator, if any.
func (it *Iterator) Err() error { return it.err }
