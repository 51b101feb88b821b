package tsdb

import (
	"testing"
	"time"
)

func TestQueryPageWalksWholeRange(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 1000, time.Second)

	var got []Sample
	var cur Cursor
	pages := 0
	for {
		page, err := s.QueryPage(key(), t0, t0.Add(999*time.Second), cur, 64)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Samples...)
		pages++
		if !page.More {
			break
		}
		cur = page.Next
	}
	if len(got) != 1000 {
		t.Fatalf("paged walk returned %d samples, want 1000", len(got))
	}
	if pages != (1000+63)/64 {
		t.Errorf("walk took %d pages, want %d", pages, (1000+63)/64)
	}
	for i, smp := range got {
		if smp.Value != float64(i) {
			t.Fatalf("sample %d = %v, want %d (duplicate or gap)", i, smp.Value, i)
		}
	}
}

func TestQueryPageExactBoundary(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 100, time.Second)

	// A limit dividing the range exactly: the look-ahead must notice the
	// range ended, so no trailing empty page is ever served.
	page, err := s.QueryPage(key(), t0, t0.Add(99*time.Second), Cursor{}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Samples) != 100 || page.More {
		t.Fatalf("full-range page: %d samples, more=%v", len(page.Samples), page.More)
	}

	page, err = s.QueryPage(key(), t0, t0.Add(99*time.Second), Cursor{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Samples) != 50 || !page.More {
		t.Fatalf("first half: %d samples, more=%v", len(page.Samples), page.More)
	}
	page, err = s.QueryPage(key(), t0, t0.Add(99*time.Second), page.Next, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Samples) != 50 || page.More {
		t.Fatalf("second half: %d samples, more=%v", len(page.Samples), page.More)
	}
}

func TestQueryPageEmptyAndErrors(t *testing.T) {
	s := newMem(t, Options{})
	if _, err := s.QueryPage(key(), t0, t0.Add(time.Hour), Cursor{}, 10); err != ErrNoSeries {
		t.Fatalf("missing series error = %v", err)
	}
	fill(t, s, key(), 10, time.Second)
	if _, err := s.QueryPage(key(), t0.Add(time.Hour), t0, Cursor{}, 10); err != ErrBadInterval {
		t.Fatalf("inverted interval error = %v", err)
	}
	// An empty window inside a populated series: empty page, no More.
	page, err := s.QueryPage(key(), t0.Add(time.Hour), t0.Add(2*time.Hour), Cursor{}, 10)
	if err != nil || len(page.Samples) != 0 || page.More {
		t.Fatalf("empty window page = %+v, err %v", page, err)
	}
	// A cursor already past the range end: empty page.
	page, err = s.QueryPage(key(), t0, t0.Add(5*time.Second), Cursor{After: t0.Add(time.Hour)}, 10)
	if err != nil || len(page.Samples) != 0 || page.More {
		t.Fatalf("past-end cursor page = %+v, err %v", page, err)
	}
}

func TestQueryPageDuplicateTimestamps(t *testing.T) {
	s := newMem(t, Options{})
	k := key()
	// 30 samples sharing 10 timestamps, 3 each.
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i/3) * time.Second)
		if err := s.Append(k, Sample{At: at, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []Sample
	var cur Cursor
	for {
		// Page size 2 never divides the 3-sample runs evenly, so every
		// cursor lands mid-timestamp and Seen must do its job.
		page, err := s.QueryPage(k, t0, t0.Add(time.Minute), cur, 2)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Samples...)
		if !page.More {
			break
		}
		cur = page.Next
	}
	if len(got) != 30 {
		t.Fatalf("paged walk returned %d samples, want 30", len(got))
	}
	for i, smp := range got {
		if smp.Value != float64(i) {
			t.Fatalf("sample %d = %v, want %d", i, smp.Value, i)
		}
	}
}

func TestQueryPageSurvivesMutation(t *testing.T) {
	s := newMem(t, Options{MaxSamplesPerSeries: 1 << 20})
	k := key()
	fill(t, s, k, 100, time.Second)

	page, err := s.QueryPage(k, t0, t0.Add(200*time.Second), Cursor{}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Samples) != 40 || !page.More {
		t.Fatalf("first page: %d samples, more=%v", len(page.Samples), page.More)
	}

	// Mutate between pages: append newer samples inside the range and an
	// out-of-order one before the cursor. The resumed walk must not
	// duplicate or skip anything at or after the cursor position.
	for i := 100; i < 120; i++ {
		_ = s.Append(k, Sample{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	_ = s.Append(k, Sample{At: t0.Add(5 * time.Millisecond), Value: -1}) // spills before the cursor

	var rest []Sample
	cur := page.Next
	for {
		p, err := s.QueryPage(k, t0, t0.Add(200*time.Second), cur, 40)
		if err != nil {
			t.Fatal(err)
		}
		rest = append(rest, p.Samples...)
		if !p.More {
			break
		}
		cur = p.Next
	}
	if len(rest) != 80 {
		t.Fatalf("resumed walk returned %d samples, want 80", len(rest))
	}
	for i, smp := range rest {
		if smp.Value != float64(40+i) {
			t.Fatalf("resumed sample %d = %v, want %d", i, smp.Value, 40+i)
		}
	}
}

// TestQueryPageKeepsArrivalOrderAcrossSpills walks a series whose rows
// share timestamps, 50 a second, while out-of-order rows land before
// the range between pages. Folding them in must keep the rows sharing a
// timestamp in arrival order: the cursor counts the rows at its
// timestamp, so a fold that permuted them would make the walk repeat
// one row and skip another.
func TestQueryPageKeepsArrivalOrderAcrossSpills(t *testing.T) {
	s := newMem(t, Options{MaxSamplesPerSeries: 1 << 20})
	k := key()
	const n, perSecond, late = 4000, 50, 100
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: k, Sample: Sample{At: t0.Add(time.Duration(i/perSecond) * time.Second), Value: float64(i)}}
	}
	if errs := s.AppendBatch(rows); errs != nil {
		t.Fatal(errs[0])
	}
	returned, spill := make([]int, n), make([]Row, late)
	var cur Cursor
	for page := 1; ; page++ {
		p, err := s.QueryPage(k, t0, t0.Add(time.Hour), cur, 37)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range p.Samples {
			returned[int(smp.Value)]++
		}
		if !p.More {
			break
		}
		cur = p.Next
		for i := range spill {
			spill[i] = Row{Key: k, Sample: Sample{At: t0.Add(-time.Duration(page*late+i) * time.Millisecond), Value: -1}}
		}
		if errs := s.AppendBatch(spill); errs != nil {
			t.Fatal(errs[0])
		}
	}
	for i, c := range returned {
		if c != 1 {
			t.Fatalf("sample %d returned %d times", i, c)
		}
	}
}

func TestIteratorMatchesQuery(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 5000, time.Second)
	from, to := t0.Add(100*time.Second), t0.Add(4200*time.Second)

	want, err := s.Query(key(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	it := s.Iter(key(), from, to, 128)
	var got []Sample
	for {
		smp, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, smp)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("iterator returned %d samples, Query %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sample %d: iter %v, query %v", i, got[i], want[i])
		}
	}
}

func TestIteratorMissingSeries(t *testing.T) {
	s := newMem(t, Options{})
	it := s.Iter(key(), t0, t0.Add(time.Hour), 0)
	if _, ok := it.Next(); ok {
		t.Fatal("iterator over a missing series yielded a sample")
	}
	if it.Err() != ErrNoSeries {
		t.Fatalf("iterator error = %v, want ErrNoSeries", it.Err())
	}
}

func TestAggregateAndDownsampleViaIterator(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 1000, time.Second)
	agg, err := s.Aggregate(key(), t0, t0.Add(999*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Count != 1000 || agg.Min != 0 || agg.Max != 999 || agg.Mean != 499.5 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.First.Value != 0 || agg.Last.Value != 999 {
		t.Fatalf("aggregate endpoints = %+v", agg)
	}
	buckets, err := s.Downsample(key(), t0, t0.Add(999*time.Second), 100*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 10 {
		t.Fatalf("buckets = %d, want 10", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += b.Count
	}
	if total != 1000 {
		t.Fatalf("bucketed samples = %d, want 1000", total)
	}
}
