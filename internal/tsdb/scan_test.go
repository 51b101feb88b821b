package tsdb

import (
	"testing"
	"time"
)

// TestCursorWalkOverStuckClockEnds: a series whose clock stuck holds
// 140,000 rows at one timestamp, more than any skip count a page could
// overfetch for. An iterator and a QueryPage walk each return every row
// once, in order, and end; no page claims More without a cursor to
// resume at.
func TestCursorWalkOverStuckClockEnds(t *testing.T) {
	const n = 140000
	s := newMem(t, Options{MaxSamplesPerSeries: 1 << 20})
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: key(), Sample: Sample{At: t0, Value: float64(i)}}
	}
	if errs := s.AppendBatch(rows); errs != nil {
		t.Fatal(errs[0])
	}
	to := t0.Add(time.Hour)

	it := s.Iter(key(), t0, to, 1000)
	walked := 0
	for smp, ok := it.Next(); ok; smp, ok = it.Next() {
		if smp.Value != float64(walked) {
			t.Fatalf("iterator row %d is row %v", walked, smp.Value)
		}
		walked++
	}
	if err := it.Err(); err != nil || walked != n {
		t.Fatalf("iterator walked %d rows, err %v; want %d", walked, err, n)
	}

	var cur Cursor
	paged := 0
	for page := 1; ; page++ {
		p, err := s.QueryPage(key(), t0, to, cur, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, smp := range p.Samples {
			if smp.Value != float64(paged) {
				t.Fatalf("page %d: row %d is row %v", page, paged, smp.Value)
			}
			paged++
		}
		if !p.More {
			break
		}
		if p.Next.zero() {
			t.Fatalf("page %d: More with a zero cursor after %d rows", page, paged)
		}
		cur = p.Next
	}
	if paged != n {
		t.Fatalf("paged %d rows, want %d", paged, n)
	}
}

// TestScanAcrossViewChanges holds one scan of a durable one-shard engine
// while the shard's block view changes under it: a compaction cuts the
// head rows the scan has yet to reach into a block (just as the scan
// stands between two rows of one timestamp, one in a block and one in
// the head), a restore of the shard's own archive twice swaps in the
// same data as a new head and new blocks, and a compaction that cuts
// nothing republishes the view. The scan yields exactly the rows a
// Query gave before, none repeated or skipped. A reset that removes the
// scanned series ends a scan with an error, not a clean short end.
func TestScanAcrossViewChanges(t *testing.T) {
	const headWindow = time.Hour
	now := time.Now()
	base := now.Add(-10 * time.Hour).Truncate(time.Second)
	scanned, other := shKey(0), shKey(1)
	// Three rows a timestamp, so a view change mid-tie must skip by
	// position; a row's value is its index.
	rows := func(k SeriesKey, lo, hi int) []Row {
		out := make([]Row, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, Row{Key: k, Sample: Sample{At: base.Add(time.Duration(i/3) * 10 * time.Second), Value: float64(i)}})
		}
		return out
	}
	appendRows := func(eng *Sharded, rows []Row) {
		t.Helper()
		if errs := eng.AppendBatch(rows); errs != nil {
			t.Fatal(errs[0])
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	eng := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: headWindow}})
	defer eng.Close()
	appendRows(eng, append(rows(scanned, 0, 1500), rows(other, 0, 1500)...))
	must(eng.CompactAll()) // rows 0..1499 of both series in block 1
	// Rows 1500..2999 and a late row at the timestamp of rows 1497..1499
	// wait in the head for the next compaction; the last 300 are recent.
	late := Row{Key: scanned, Sample: Sample{At: base.Add(499 * 10 * time.Second), Value: -1}}
	appendRows(eng, append(rows(scanned, 1500, 3000), late))
	var recent []Row
	for i := 0; i < 300; i++ {
		recent = append(recent, Row{Key: scanned, Sample: Sample{At: now.Add(-30*time.Minute + time.Duration(i)*time.Second), Value: float64(3000 + i)}})
	}
	appendRows(eng, recent)

	want, err := eng.Query(scanned, time.Time{}, now)
	if err != nil || len(want) != 3301 {
		t.Fatalf("reference: %d rows, err %v", len(want), err)
	}
	restore := func() {
		_, err := eng.RestoreShard(0, frameArchive(t, archiveShard(t, eng, 0), 0, 1))
		must(err)
	}
	changes := map[int]func(){
		700:  restore,
		1500: func() { must(eng.CompactAll()) }, // between block 1's rows at the late row's timestamp and the late row
		2200: restore,
		2800: func() { must(eng.CompactAll()) },
	}
	it := eng.Iter(scanned, time.Time{}, now, 100)
	var got []Sample
	for {
		if change := changes[len(got)]; change != nil {
			change()
		}
		smp, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, smp)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if st := eng.ShardStatus(0); st.Blocks != 2 {
		t.Fatalf("the view changes left %d blocks, want the two cuts, restored", st.Blocks)
	}
	if len(got) != len(want) {
		t.Fatalf("scan yielded %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].At.Equal(want[i].At) || got[i].Value != want[i].Value {
			t.Fatalf("row %d: scan %v, want %v", i, got[i], want[i])
		}
	}

	it = eng.Iter(scanned, time.Time{}, now, 100)
	for i := 0; i < 10; i++ {
		if _, ok := it.Next(); !ok {
			t.Fatalf("scan ended after %d rows: %v", i, it.Err())
		}
	}
	must(eng.ResetShard(0))
	rest := 0
	for _, ok := it.Next(); ok; _, ok = it.Next() {
		rest++
	}
	if it.Err() == nil {
		t.Fatalf("a reset of the scanned series' shard ended the scan cleanly after %d more rows", rest)
	}
}
