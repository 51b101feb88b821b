package tsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

var shT0 = time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)

func shKey(d int) SeriesKey {
	return SeriesKey{Device: fmt.Sprintf("urn:district:turin/building:b%03d/device:d0", d), Quantity: "temperature"}
}

// TestShardedSingleShardEquivalence replays one mixed workload — in-order
// appends, out-of-order spills, eviction pressure, single-row Appends
// beside batches — into an in-memory one-shard engine and a durable
// one-shard engine whose rows were all compacted into a block, and
// requires every read to agree with a bare head Store's, read through
// headReader: the engine is a pure partitioning and tiering layer, not a
// semantic change. The memory engine is checked against a head under
// the same 128-sample bound; the durable engine keeps every acked row,
// so it is checked against an unbounded head. Values are integers, so
// per-source partial sums add up exactly.
func TestShardedSingleShardEquivalence(t *testing.T) {
	opts := Options{MaxSamplesPerSeries: 128, SegmentSize: 16}
	head, full := newStore(opts), newStore(Options{SegmentSize: 16})
	mem := newMem(t, opts)
	dur := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Store: opts, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer dur.Close()

	rng := rand.New(rand.NewSource(42))
	const devices, rows = 5, 700
	for i := 0; i < rows; {
		batch := make([]Row, min(1+rng.Intn(20), rows-i))
		for j := range batch {
			at := shT0.Add(time.Duration(i) * time.Second)
			if rng.Intn(10) == 0 { // out-of-order arrival
				at = at.Add(-time.Duration(rng.Intn(500)) * time.Second)
			}
			batch[j] = Row{Key: shKey(rng.Intn(devices)), Sample: Sample{At: at, Value: float64(i)}}
			i++
		}
		head.AppendBatch(batch)
		full.AppendBatch(batch)
		for _, eng := range []*Sharded{mem, dur} {
			if len(batch) == 1 {
				if err := eng.Append(batch[0].Key, batch[0].Sample); err != nil {
					t.Fatal(err)
				}
			} else if errs := eng.AppendBatch(batch); errs != nil {
				t.Fatal(errs)
			}
		}
	}
	if err := dur.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if st := dur.ShardStatus(0); st.Blocks != 1 || int(st.BlockSamples) != st.Samples {
		t.Fatalf("durable engine not wholly in one block: %+v", st)
	}

	if head.Stats().Samples >= full.Stats().Samples {
		t.Fatalf("no eviction pressure: capped head %+v, full head %+v", head.Stats(), full.Stats())
	}
	engines := []struct {
		name string
		eng  *Sharded
		head *Store
	}{{"memory", mem, head}, {"durable", dur, full}}
	for _, e := range engines {
		if got, want := e.eng.Stats(), e.head.Stats(); got.Series != want.Series || got.Samples != want.Samples {
			t.Fatalf("%s stats %+v, head %+v", e.name, got, want)
		}
	}
	to := shT0.Add(rows * time.Second)
	ranges := [][2]time.Time{{shT0.Add(-time.Hour), to}, {shT0.Add(150 * time.Second), time.Time{}}}
	for len(ranges) < 8 {
		a := shT0.Add(time.Duration(rng.Intn(rows)) * time.Second)
		ranges = append(ranges, [2]time.Time{a, a.Add(time.Duration(rng.Intn(rows)) * time.Second)})
	}
	for d := 0; d <= devices; d++ { // device `devices` was never written
		key := shKey(d)
		for _, e := range engines {
			h := headReader{e.head}
			ref := readAll(t, h, h.iter(key, time.Time{}, to), key, ranges,
				func(from, to time.Time, w time.Duration) ([]Bucket, error) {
					return downsampleIter(h.iter(key, from, to), from, w)
				})
			got := readAll(t, catalogReader{e.eng}, e.eng.Iter(key, time.Time{}, to, 0), key, ranges,
				func(from, to time.Time, w time.Duration) ([]Bucket, error) {
					return e.eng.Downsample(key, from, to, w)
				})
			for i := range ref {
				if !reflect.DeepEqual(ref[i], got[i]) {
					t.Fatalf("device %d, %s engine, read %d:\nhead   %+v\nengine %+v", d, e.name, i, ref[i], got[i])
				}
			}
		}
	}
}

// headReader reads a bare head Store the plain way, as the reference
// the engines are checked against: a range read copies the whole range
// out with appendPoints, and a page applies the cursor to that list. It
// shares no code with the engine's scanner.
type headReader struct{ *Store }

func (h headReader) Query(key SeriesKey, from, to time.Time) ([]Sample, error) {
	if to.IsZero() {
		to = time.Now()
	}
	if to.Before(from) {
		return nil, ErrBadInterval
	}
	pts, ok := h.appendPoints(nil, key, nanos(from), 0, nanos(to), -1)
	if !ok {
		return nil, ErrNoSeries
	}
	var out []Sample
	for _, p := range pts {
		out = append(out, sampleAt(p.T, p.V))
	}
	return out, nil
}

// deviceKeys lists the head's series of one device.
func (h headReader) deviceKeys(device string) []SeriesKey {
	keys := h.keys()
	slices.SortFunc(keys, CompareKeys)
	return deviceKeys(keys, device)
}

// catalogReader reads an engine, listing a device's series from its
// owning shard's catalog.
type catalogReader struct{ *Sharded }

func (r catalogReader) deviceKeys(device string) []SeriesKey {
	return deviceKeys(r.Catalog(r.ShardFor(device)), device)
}

// iter walks Query's answer.
func (h headReader) iter(key SeriesKey, from, to time.Time) Iterator {
	smps, err := h.Query(key, from, to)
	return &sliceIter{smps: smps, err: err}
}

// sliceIter is an Iterator over a materialized answer.
type sliceIter struct {
	smps []Sample
	err  error
}

func (it *sliceIter) Next() (Sample, bool) {
	if len(it.smps) == 0 {
		return Sample{}, false
	}
	smp := it.smps[0]
	it.smps = it.smps[1:]
	return smp, true
}

func (it *sliceIter) Err() error { return it.err }
func (it *sliceIter) Close()     {}

// Aggregate is a raw scan of Query.
func (h headReader) Aggregate(key SeriesKey, from, to time.Time) (Aggregate, error) {
	smps, err := h.Query(key, from, to)
	if err != nil {
		return Aggregate{}, err
	}
	return foldSamples(smps), nil
}

func (h headReader) QueryPage(key SeriesKey, from, to time.Time, cur Cursor, limit int) (Page, error) {
	all, err := h.Query(key, from, to)
	if err != nil {
		return Page{}, err
	}
	if limit <= 0 {
		limit = DefaultPageLimit
	}
	if cur.zero() || cur.After.Before(from) {
		cur = Cursor{}
	}
	page, skip := Page{Samples: []Sample{}}, cur.Seen
	for _, smp := range all {
		if smp.At.Before(cur.After) {
			continue
		}
		if skip > 0 && smp.At.Equal(cur.After) {
			skip--
			continue
		}
		if len(page.Samples) == limit {
			page.More = true
			break
		}
		page.Samples = append(page.Samples, smp)
	}
	if page.More {
		last := page.Samples[limit-1].At
		for _, smp := range page.Samples {
			if smp.At.Equal(last) {
				page.Next.Seen++
			}
		}
		if last.Equal(cur.After) {
			page.Next.Seen += cur.Seen
		}
		page.Next.After = last
	}
	return page, nil
}

// equivReader is the read surface a head Store shares with the engine.
type equivReader interface {
	QueryPage(key SeriesKey, from, to time.Time, cur Cursor, limit int) (Page, error)
	Query(key SeriesKey, from, to time.Time) ([]Sample, error)
	Latest(key SeriesKey) (Sample, error)
	Len(key SeriesKey) int
	deviceKeys(device string) []SeriesKey
	Aggregate(key SeriesKey, from, to time.Time) (Aggregate, error)
}

// readAll runs every read of one series through r and returns the
// outcomes in a fixed order, errors included: Latest, Len,
// the device's series, the whole-series iterator, then per range Query, a
// 37-row QueryPage walk page by page, Aggregate, and Downsample at 1m,
// 1h and an off-grid 90s.
func readAll(t *testing.T, r equivReader, it Iterator, key SeriesKey, ranges [][2]time.Time,
	downsample func(from, to time.Time, w time.Duration) ([]Bucket, error)) []any {
	t.Helper()
	type result struct {
		V   any
		Err error
	}
	latest, err := r.Latest(key)
	out := []any{result{latest, err}, r.Len(key), r.deviceKeys(key.Device)}
	var walked []Sample
	for smp, ok := it.Next(); ok; smp, ok = it.Next() {
		walked = append(walked, smp)
	}
	out = append(out, result{walked, it.Err()})
	for _, rg := range ranges {
		from, to := rg[0], rg[1]
		samples, err := r.Query(key, from, to)
		out = append(out, result{samples, err})
		var cur Cursor
		for {
			page, err := r.QueryPage(key, from, to, cur, 37)
			out = append(out, result{page, err})
			if err != nil || !page.More {
				break
			}
			cur = page.Next
		}
		agg, err := r.Aggregate(key, from, to)
		out = append(out, result{agg, err})
		for _, w := range []time.Duration{time.Minute, time.Hour, 90 * time.Second} {
			buckets, err := downsample(from, to, w)
			out = append(out, result{buckets, err})
		}
	}
	return out
}

// TestShardedRouting pins every series of one device to one shard and
// checks the whole-engine key listing covers all shards.
func TestShardedRouting(t *testing.T) {
	s := NewSharded(ShardedOptions{Shards: 8})
	defer s.Close()
	const devices = 64
	for d := 0; d < devices; d++ {
		key := shKey(d)
		if err := s.Append(key, Sample{At: shT0, Value: 1}); err != nil {
			t.Fatal(err)
		}
		other := SeriesKey{Device: key.Device, Quantity: "humidity"}
		if err := s.Append(other, Sample{At: shT0, Value: 2}); err != nil {
			t.Fatal(err)
		}
		sh := s.ShardFor(key.Device)
		if got := deviceKeys(s.Catalog(sh), key.Device); len(got) != 2 {
			t.Fatalf("device %d: %d keys in shard %d", d, len(got), sh)
		}
	}
	if got := len(catalogKeys(s)); got != 2*devices {
		t.Fatalf("catalog = %d keys, want %d", got, 2*devices)
	}
	populated := 0
	for i := 0; i < s.NumShards(); i++ {
		if s.ShardStatus(i).Series > 0 {
			populated++
		}
	}
	if populated < 2 {
		t.Fatalf("device hash left %d of %d shards populated", populated, s.NumShards())
	}
}

// TestShardedAppendBatchPerRowErrors closes the engine mid-way and
// checks AppendBatch reports per-row ErrClosed, aligned by index.
func TestShardedAppendBatchPerRowErrors(t *testing.T) {
	s := NewSharded(ShardedOptions{Shards: 4})
	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = Row{Key: shKey(i), Sample: Sample{At: shT0.Add(time.Duration(i) * time.Second), Value: float64(i)}}
	}
	if errs := s.AppendBatch(rows); errs != nil {
		t.Fatalf("healthy batch returned errors: %v", errs)
	}
	for i := range rows {
		if s.Len(rows[i].Key) != 1 {
			t.Fatalf("row %d not stored", i)
		}
	}
	s.Close()
	errs := s.AppendBatch(rows)
	if errs == nil {
		t.Fatal("batch on closed engine reported success")
	}
	for i, err := range errs {
		if err != ErrClosed {
			t.Fatalf("row %d: err = %v, want ErrClosed", i, err)
		}
	}
}

// TestShardedCursorStableUnderConcurrentIngest is the write-while-read
// guarantee of the ingest redesign: a client pages through one series
// with value cursors while batched ingest hammers every shard (including
// the series being read). The walk must see every sample that existed
// when it started, exactly once, in order.
func TestShardedCursorStableUnderConcurrentIngest(t *testing.T) {
	// Unbounded series: on a loaded host writer 0 can pass the default
	// per-series cap mid-walk, and the cap's eviction of the oldest
	// (pinned) rows is not what this test is about.
	s := NewSharded(ShardedOptions{Shards: 8, Store: Options{MaxSamplesPerSeries: math.MaxInt}})
	defer s.Close()
	readKey := shKey(0)
	const preloaded = 2000
	for i := 0; i < preloaded; i++ {
		if err := s.Append(readKey, Sample{At: shT0.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	to := shT0.Add(preloaded * time.Second) // pin the upper bound: new ingest lands beyond it

	// Between two pages the reader hands writer 0 an ack channel and
	// waits for it to close: writer 0 closes it once it has landed a
	// batch it began after the request, so every page boundary sees one.
	stop, failed := make(chan struct{}), make(chan struct{})
	between := make(chan chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			asked := between
			if w != 0 {
				asked = nil
			}
			i := 0
			for {
				var ack chan struct{}
				select {
				case <-stop:
					return
				case ack = <-asked:
				default:
				}
				rows := make([]Row, 64)
				for j := range rows {
					// Writer 0 keeps appending to the series being read,
					// beyond the pinned range; others spray the shards.
					d := (w*31 + j) % 32
					if w == 0 {
						d = 0
					}
					rows[j] = Row{
						Key:    shKey(d),
						Sample: Sample{At: shT0.Add(time.Duration(preloaded+1+i*64+j) * time.Second), Value: 1},
					}
				}
				i++
				if errs := s.AppendBatch(rows); errs != nil {
					t.Errorf("ingest batch failed: %v", errs[0])
					if w == 0 {
						close(failed)
					}
					if ack != nil {
						close(ack)
					}
					return
				}
				if ack != nil {
					close(ack)
				}
			}
		}(w)
	}

	var got []Sample
	var cur Cursor
	for {
		page, err := s.QueryPage(readKey, shT0, to, cur, 97)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, page.Samples...)
		if !page.More {
			break
		}
		cur = page.Next
		ack := make(chan struct{})
		select {
		case between <- ack:
			<-ack
		case <-failed:
			close(stop)
			wg.Wait()
			t.FailNow()
		}
	}
	close(stop)
	wg.Wait()

	if len(got) != preloaded {
		t.Fatalf("walked %d samples, want %d", len(got), preloaded)
	}
	for i, smp := range got {
		if smp.Value != float64(i) {
			t.Fatalf("sample %d out of order or duplicated: value %v", i, smp.Value)
		}
	}
}

// checkPartition partitions rows on s with sc and requires every
// storable row to land in the sub-batch of ShardOf(device, shards), at
// its own index: the owner memo may only answer what ShardOf would.
func checkPartition(t *testing.T, s *Sharded, sc *partitionScratch, rows []Row) {
	t.Helper()
	n := s.NumShards()
	per, idx := s.partition(sc, rows, make([]error, len(rows)))
	seen := 0
	for sh := range per {
		for k, r := range per[sh] {
			if want := ShardOf(r.Key.Device, n); sh != want {
				t.Fatalf("%d shards: %q routed to shard %d, ShardOf says %d", n, r.Key.Device, sh, want)
			}
			if rows[idx[sh][k]] != r {
				t.Fatalf("%d shards: shard %d row %d carries index %d of another row", n, sh, k, idx[sh][k])
			}
			seen++
		}
	}
	if seen != len(rows) {
		t.Fatalf("%d shards: %d of %d rows partitioned", n, seen, len(rows))
	}
}

// TestPartitionOwnerMemo holds the per-scratch owner memo to ShardOf:
// across engines of different shard counts sharing one pooled scratch,
// for two devices that share a memo slot, and for device strings equal
// to the interned ones but stored elsewhere.
func TestPartitionOwnerMemo(t *testing.T) {
	s3, s8 := NewSharded(ShardedOptions{Shards: 3}), NewSharded(ShardedOptions{Shards: 8})
	defer s3.Close()
	defer s8.Close()
	devices := make([]string, 64)
	for d := range devices {
		devices[d] = shKey(d).Device
	}
	interleaved := func(devs []string, n int) []Row {
		rows := make([]Row, n)
		for i := range rows {
			rows[i] = Row{Key: SeriesKey{Device: devs[i%len(devs)], Quantity: "temperature"},
				Sample: Sample{At: shT0.Add(time.Duration(i) * time.Second)}}
		}
		return rows
	}

	t.Run("one scratch, two shard counts", func(t *testing.T) {
		sc := new(partitionScratch)
		rows := interleaved(devices, 500)
		for round := 0; round < 3; round++ {
			checkPartition(t, s3, sc, rows)
			checkPartition(t, s8, sc, rows)
		}
	})

	t.Run("two devices in one slot", func(t *testing.T) {
		bySlot := map[int]string{}
		var pair []string
		for i := 0; pair == nil; i++ {
			dev := fmt.Sprintf("urn:district:turin/building:b%03d/device:c%d", i%1000, i)
			if other, ok := bySlot[ownerSlot(dev)]; ok && ShardOf(other, 8) != ShardOf(dev, 8) {
				pair = []string{other, dev}
			}
			bySlot[ownerSlot(dev)] = dev
		}
		sc := new(partitionScratch)
		checkPartition(t, s8, sc, interleaved(pair, 64))
		checkPartition(t, s3, sc, interleaved(pair, 64))
	})

	t.Run("equal strings elsewhere", func(t *testing.T) {
		sc := new(partitionScratch)
		rows := interleaved(devices, 256)
		checkPartition(t, s8, sc, rows)
		for i := range rows {
			rows[i].Key.Device = strings.Clone(rows[i].Key.Device)
		}
		checkPartition(t, s8, sc, rows)
	})
}
