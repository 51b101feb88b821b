package tsdb

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"repro/internal/block"
)

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

// Iterator walks one series range: the engine's scanner, or a test's
// wrapper. Once Next reports false (exhausted, or failed: see Err) the
// walk has released what it held; Close releases it early.
type Iterator interface {
	Next() (Sample, bool)
	Err() error
	Close()
}

// scanner is the one range read of a series. It captures the shard's
// block view once, walking each retained raw block with one
// block.SeriesIter, and copies head points pageSize at a time. Sources
// merge a point at a time, ties to blocks in cut order, then the head:
// the order the compactor cut rows in. When publish bumps the view
// generation the scanner re-captures at its value cursor.
type scanner struct {
	s        *Sharded
	store    *Store
	bs       *blockSet
	key      SeriesKey
	toN      int64
	pageSize int

	rs   *readScratch // blks: the captured view; srcs: walks of its raw blocks, each on a point; head: the last refill. nil once the scan ended
	gen  uint64       // the view generation rs.blks was captured at
	hi   int          // next unread point of rs.head; a full refill may leave more in the head
	head pos          // the head's own position
	at   pos          // the value cursor: samples this scan or its cursor returned
	err  error
}

// pos is a position in time-ordered points: the timestamp of the last
// point taken, and how many points at it were taken.
type pos struct {
	t int64
	n int
}

func (p *pos) step(t int64) {
	if p.t == t {
		p.n++
	} else {
		*p = pos{t, 1}
	}
}

// scan starts a scanner over the samples of a series with At in
// [from, to] after cur. A zero `to` pins "now" once, so the walk is
// stable while the series grows.
func (s *Sharded) scan(key SeriesKey, from, to time.Time, cur Cursor, pageSize int) *scanner {
	store, bs := s.owner(key.Device)
	sc := &scanner{s: s, store: store, bs: bs, key: key, pageSize: pageSize}
	if to.IsZero() {
		to = time.Now()
	}
	start, seen := from, 0
	if !cur.zero() && !cur.After.Before(from) {
		start, seen = cur.After, cur.Seen
	}
	if to.Before(from) {
		sc.err = ErrBadInterval
	} else if !start.After(to) {
		sc.at, sc.toN = pos{nanos(start), seen}, nanos(to)
		sc.rs = getReadScratch()
		sc.capture()
	}
	return sc
}

// capture takes the view at the value cursor, starting a walk of each
// raw block at t. The samples at t the cursor counts are passed over by
// position in merge order: blocks in cut order, then the head's refill.
func (sc *scanner) capture() {
	rs := sc.rs
	releaseAll(rs.blks)
	rs.reset()
	rs.blks = sc.bs.blocksFor(rs.blks, bk(sc.key), sc.at.t, sc.toN, func() { sc.gen = sc.bs.gen.Load() })
	sc.s.countRead(len(rs.blks) > 0)
	skip := sc.at.n
	for _, b := range rs.blks {
		it, err := b.Iter(bk(sc.key), sc.at.t, sc.toN)
		if errors.Is(err, block.ErrRawDemoted) {
			continue // raw data retired by retention; nothing to scan
		}
		ok := err == nil && it.Next()
		for ; ok && skip > 0 && it.At().T == sc.at.t; ok = it.Next() {
			skip--
		}
		if err = cmp.Or(err, it.Err()); err != nil {
			sc.end(err)
			return
		}
		if ok {
			rs.srcs = append(rs.srcs, it)
		}
	}
	sc.head = pos{sc.at.t, skip}
	sc.refill()
}

// refill copies the head's next points unless the view moved (Next then
// re-captures). A series in neither the head nor a block does not exist.
func (sc *scanner) refill() {
	rs := sc.rs
	sc.bs.mu.RLock()
	if sc.bs.gen.Load() != sc.gen {
		sc.bs.mu.RUnlock()
		return
	}
	head, inHead := sc.store.appendPoints(rs.head[:0], sc.key, sc.head.t, sc.head.n, sc.toN, sc.pageSize)
	sc.bs.mu.RUnlock()
	rs.head, sc.hi = head, 0
	if !inHead && len(rs.blks) == 0 && !sc.s.keyInAnyBlock(sc.bs, bk(sc.key)) {
		sc.end(ErrNoSeries)
	}
}

// Next returns the next sample of the merge.
func (sc *scanner) Next() (Sample, bool) {
	for sc.rs != nil {
		if sc.bs.gen.Load() != sc.gen {
			sc.capture()
			continue
		}
		rs := sc.rs
		if sc.hi == len(rs.head) && sc.hi == sc.pageSize {
			sc.refill()
			continue
		}
		var p block.Point
		best := -1
		for i := range rs.srcs {
			if q := rs.srcs[i].At(); best < 0 || q.T < p.T {
				best, p = i, q
			}
		}
		if sc.hi < len(rs.head) && (best < 0 || rs.head[sc.hi].T < p.T) {
			p = rs.head[sc.hi]
			sc.hi++
			sc.head.step(p.T)
		} else if best < 0 {
			sc.end(nil)
			break
		} else if !rs.srcs[best].Next() {
			if err := rs.srcs[best].Err(); err != nil {
				sc.end(err)
				break
			}
			rs.srcs = slices.Delete(rs.srcs, best, best+1)
		}
		sc.at.step(p.T)
		return sampleAt(p.T, p.V), true
	}
	return Sample{}, false
}

func (sc *scanner) Err() error { return sc.err }

func (sc *scanner) Close() { sc.end(nil) }

// end stops the scan with err (nil: exhausted or closed) and gives back
// its blocks and scratch.
func (sc *scanner) end(err error) {
	if sc.rs != nil {
		sc.err = err
		releaseAll(sc.rs.blks)
		sc.rs.release()
		sc.rs = nil
	}
}

// Scan walks the samples of a series with At in [from, to] after cur
// (e.g. a cursor a paginated API echoed back). A zero `to` means "now".
func (s *Sharded) Scan(key SeriesKey, from, to time.Time, cur Cursor) Iterator {
	return s.scan(key, from, to, cur, DefaultPageLimit)
}

// Iter is Scan from the start of the range, copying head points
// pageSize at a time (<= 0: DefaultPageLimit).
func (s *Sharded) Iter(key SeriesKey, from, to time.Time, pageSize int) Iterator {
	return s.scan(key, from, to, Cursor{}, cmp.Or(max(pageSize, 0), DefaultPageLimit))
}

// QueryPage returns one page of the samples of a series with At in
// [from, to] after cur: a fresh scanner takes limit samples (<= 0:
// DefaultPageLimit) and peeks at one more for More.
func (s *Sharded) QueryPage(key SeriesKey, from, to time.Time, cur Cursor, limit int) (Page, error) {
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	sc := s.scan(key, from, to, cur, limit+1)
	defer sc.Close()
	var page Page
	if sc.rs != nil { // size the page once: what the head and the blocks hold
		n := len(sc.rs.head)
		for _, b := range sc.rs.blks {
			m, _ := b.Meta(bk(key))
			n += int(m.Count)
		}
		page.Samples = make([]Sample, 0, min(limit, n))
	}
	for smp, ok := sc.Next(); ok; smp, ok = sc.Next() {
		page.Samples = append(page.Samples, smp)
		if len(page.Samples) == limit {
			next := Cursor{After: sampleAt(sc.at.t, 0).At, Seen: sc.at.n}
			if _, page.More = sc.Next(); page.More {
				page.Next = next
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		return Page{}, err
	}
	return page, nil
}

// Query materializes a full range read: one scanner, drained.
func (s *Sharded) Query(key SeriesKey, from, to time.Time) ([]Sample, error) {
	sc := s.scan(key, from, to, Cursor{}, DefaultPageLimit)
	defer sc.Close()
	var out []Sample
	for smp, ok := sc.Next(); ok; smp, ok = sc.Next() {
		out = append(out, smp)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
