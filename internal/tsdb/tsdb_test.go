package tsdb

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2015, 3, 9, 0, 0, 0, 0, time.UTC)

func key() SeriesKey { return SeriesKey{Device: "urn:d/device:x", Quantity: "temperature"} }

// newMem returns an in-memory one-shard engine, closed with the test.
func newMem(t *testing.T, opts Options) *Sharded {
	s := NewSharded(ShardedOptions{Shards: 1, Store: opts})
	t.Cleanup(s.Close)
	return s
}

// catalogKeys lists every series of an engine, shard catalogs merged
// and sorted.
func catalogKeys(e Engine) []SeriesKey {
	var out []SeriesKey
	for i := 0; i < e.NumShards(); i++ {
		out = append(out, e.Catalog(i)...)
	}
	slices.SortFunc(out, CompareKeys)
	return out
}

// deviceKeys lists the series of one device in a sorted catalog.
func deviceKeys(cat []SeriesKey, device string) []SeriesKey {
	var out []SeriesKey
	for _, k := range DeviceRange(cat, device) {
		if k.Device == device {
			out = append(out, k)
		}
	}
	return out
}

func fill(t *testing.T, s Engine, k SeriesKey, n int, step time.Duration) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Append(k, Sample{At: t0.Add(time.Duration(i) * step), Value: float64(i)}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
}

func TestAppendAndQuery(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 100, time.Second)
	got, err := s.Query(key(), t0.Add(10*time.Second), t0.Add(19*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	if got[0].Value != 10 || got[9].Value != 19 {
		t.Errorf("range wrong: first %v last %v", got[0].Value, got[9].Value)
	}
}

func TestQueryUnknownSeries(t *testing.T) {
	s := newMem(t, Options{})
	if _, err := s.Query(key(), t0, t0.Add(time.Hour)); err != ErrNoSeries {
		t.Fatalf("err = %v, want ErrNoSeries", err)
	}
	if _, err := s.Latest(key()); err != ErrNoSeries {
		t.Fatalf("Latest err = %v, want ErrNoSeries", err)
	}
}

func TestQueryBadInterval(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 1, time.Second)
	if _, err := s.Query(key(), t0.Add(time.Hour), t0); err != ErrBadInterval {
		t.Fatalf("err = %v, want ErrBadInterval", err)
	}
}

func TestLatest(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 50, time.Second)
	got, err := s.Latest(key())
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 49 {
		t.Errorf("Latest = %v, want 49", got.Value)
	}
}

func TestOutOfOrderMergedOnRead(t *testing.T) {
	s := newMem(t, Options{})
	k := key()
	// Append even seconds forward, then odd seconds backwards.
	for i := 0; i < 10; i += 2 {
		_ = s.Append(k, Sample{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	for i := 9; i >= 1; i -= 2 {
		_ = s.Append(k, Sample{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)})
	}
	got, err := s.Query(k, t0, t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("len = %d, want 10", len(got))
	}
	for i, smp := range got {
		if smp.Value != float64(i) {
			t.Fatalf("position %d has value %v", i, smp.Value)
		}
	}
}

func TestEvictionBound(t *testing.T) {
	s := newMem(t, Options{MaxSamplesPerSeries: 100, SegmentSize: 16})
	fill(t, s, key(), 1000, time.Second)
	if n := s.Len(key()); n > 100 {
		t.Fatalf("Len = %d, want <= 100", n)
	}
	// Newest samples must survive.
	latest, err := s.Latest(key())
	if err != nil {
		t.Fatal(err)
	}
	if latest.Value != 999 {
		t.Errorf("Latest after eviction = %v, want 999", latest.Value)
	}
	got, err := s.Query(key(), t0, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].At.Before(got[i-1].At) {
			t.Fatal("eviction broke ordering")
		}
	}
}

func TestClose(t *testing.T) {
	s := newMem(t, Options{})
	s.Close()
	if err := s.Append(key(), Sample{At: time.Now()}); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestAggregate(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 10, time.Second) // values 0..9
	a, err := s.Aggregate(key(), t0, t0.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if a.Count != 10 || a.Min != 0 || a.Max != 9 || a.Sum != 45 || a.Mean != 4.5 {
		t.Errorf("Aggregate = %+v", a)
	}
	if a.First.Value != 0 || a.Last.Value != 9 {
		t.Errorf("First/Last = %v/%v", a.First.Value, a.Last.Value)
	}
}

func TestDownsample(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 120, time.Second) // two minutes of 1 Hz data
	buckets, err := s.Downsample(key(), t0, t0.Add(2*time.Minute), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(buckets))
	}
	if buckets[0].Count != 60 || buckets[1].Count != 60 {
		t.Errorf("bucket counts = %d, %d", buckets[0].Count, buckets[1].Count)
	}
	if buckets[0].Mean != 29.5 {
		t.Errorf("first bucket mean = %v, want 29.5", buckets[0].Mean)
	}
	if !buckets[1].Start.Equal(t0.Add(time.Minute)) {
		t.Errorf("second bucket start = %v", buckets[1].Start)
	}
}

// TestDownsampleBeforeUnixNanoRange: a day window over a row at the
// store's first instant starts at 1677-09-21T00:00Z, before the first
// instant an int64 of Unix nanoseconds can name. Its bucket must come
// back dated that midnight and sorted first, from the head and from a
// compacted block alike, not wrapped to 2262.
func TestDownsampleBeforeUnixNanoRange(t *testing.T) {
	k := key()
	rows := []Row{
		{Key: k, Sample: Sample{At: time.Date(1677, 9, 21, 1, 0, 0, 0, time.UTC), Value: 1}},
		{Key: k, Sample: Sample{At: time.Date(1677, 9, 22, 12, 0, 0, 0, time.UTC), Value: 2}},
	}
	want := []time.Time{time.Date(1677, 9, 21, 0, 0, 0, 0, time.UTC), time.Date(1677, 9, 22, 0, 0, 0, 0, time.UTC)}
	mem := newMem(t, Options{})
	dur := openDurable(t, t.TempDir(), ShardedOptions{Shards: 1, Blocks: BlockPolicy{HeadWindow: time.Minute}})
	defer dur.Close()
	for _, eng := range []*Sharded{mem, dur} {
		if errs := eng.AppendBatch(rows); errs != nil {
			t.Fatal(errs)
		}
	}
	if err := dur.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if st := dur.ShardStatus(0); st.Blocks != 1 || st.BlockSamples != 2 {
		t.Fatalf("durable engine not compacted into one block: %+v", st)
	}
	for name, eng := range map[string]*Sharded{"memory": mem, "durable": dur} {
		got, err := eng.Downsample(k, time.Time{}, time.Time{}, 24*time.Hour)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d buckets, want %d: %+v", name, len(got), len(want), got)
		}
		for i, b := range got {
			if !b.Start.Equal(want[i]) || b.Count != 1 || b.Sum != rows[i].Sample.Value {
				t.Errorf("%s: bucket %d starts %v with %d rows (sum %v), want %v with row %d", name, i, b.Start, b.Count, b.Sum, want[i], i)
			}
		}
	}
}

func TestDownsampleBadWindow(t *testing.T) {
	s := newMem(t, Options{})
	fill(t, s, key(), 1, time.Second)
	if _, err := s.Downsample(key(), t0, t0.Add(time.Minute), 0); err == nil {
		t.Fatal("zero window accepted")
	}
}

func TestCatalogSortsByDeviceThenQuantity(t *testing.T) {
	s := newMem(t, Options{})
	_ = s.Append(SeriesKey{"urn:ab", "temperature"}, Sample{At: t0, Value: 4})
	_ = s.Append(SeriesKey{"urn:a", "temperature"}, Sample{At: t0, Value: 1})
	_ = s.Append(SeriesKey{"urn:a", "humidity"}, Sample{At: t0, Value: 2})
	_ = s.Append(SeriesKey{"urn:b", "temperature"}, Sample{At: t0, Value: 3})
	want := []SeriesKey{{"urn:a", "humidity"}, {"urn:a", "temperature"}, {"urn:ab", "temperature"}, {"urn:b", "temperature"}}
	if got := s.Catalog(0); !slices.Equal(got, want) {
		t.Errorf("Catalog = %v, want %v", got, want)
	}
	if got := DeviceRange(s.Catalog(0), "urn:a"); !slices.Equal(got, want[:3]) {
		t.Errorf("DeviceRange(urn:a) = %v, want %v", got, want[:3])
	}
	if got := deviceKeys(s.Catalog(0), "urn:a"); !slices.Equal(got, want[:2]) {
		t.Errorf("device urn:a = %v, want %v", got, want[:2])
	}
	if got := DeviceRange(s.Catalog(0), "urn:c"); len(got) != 0 {
		t.Errorf("DeviceRange(urn:c) = %v, want none", got)
	}
}

func TestStatsAndDrop(t *testing.T) {
	s := newMem(t, Options{})
	_ = s.Append(SeriesKey{"urn:a", "temperature"}, Sample{At: t0, Value: 1})
	_ = s.Append(SeriesKey{"urn:b", "temperature"}, Sample{At: t0, Value: 1})
	st := s.Stats()
	if st.Series != 2 || st.Samples != 2 {
		t.Errorf("Stats = %+v", st)
	}
	s.Drop(SeriesKey{"urn:a", "temperature"})
	if st := s.Stats(); st.Series != 1 {
		t.Errorf("Stats after Drop = %+v", st)
	}
}

func TestConcurrentAppendAndQuery(t *testing.T) {
	s := newMem(t, Options{MaxSamplesPerSeries: 10000})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := SeriesKey{Device: "urn:dev", Quantity: "temperature"}
			for i := 0; i < 500; i++ {
				_ = s.Append(k, Sample{At: t0.Add(time.Duration(w*500+i) * time.Millisecond), Value: float64(i)})
				if i%50 == 0 {
					_, _ = s.Query(k, t0, t0.Add(time.Hour))
					_, _ = s.Latest(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := s.Len(SeriesKey{Device: "urn:dev", Quantity: "temperature"}); n != 4000 {
		t.Fatalf("Len = %d, want 4000", n)
	}
}

// Property: for any permutation of distinct timestamps, Query over the
// full range returns all samples sorted ascending.
func TestQuerySortedProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(n)
		s := newMem(t, Options{})
		k := key()
		for _, i := range perm {
			if err := s.Append(k, Sample{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
				return false
			}
		}
		got, err := s.Query(k, t0, t0.Add(time.Duration(n)*time.Second))
		if err != nil || len(got) != n {
			return false
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i].At.Before(got[j].At) })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: aggregate invariants Min <= Mean <= Max and Count == len.
func TestAggregateInvariantProperty(t *testing.T) {
	f := func(values []float64) bool {
		var samples []Sample
		for i, v := range values {
			if v != v || v > 1e300 || v < -1e300 { // NaN / overflow guards
				continue
			}
			samples = append(samples, Sample{At: t0.Add(time.Duration(i) * time.Second), Value: v})
		}
		var a Aggregate
		for _, smp := range samples {
			a.add(smp)
		}
		if a.Count != len(samples) {
			return false
		}
		if a.Count == 0 {
			return true
		}
		return a.Min <= a.Mean+1e-9 && a.Mean <= a.Max+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Downsample buckets partition the queried samples — counts
// sum to the range query's length and every bucket is non-empty.
func TestDownsamplePartitionProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8, windowMinRaw uint8) bool {
		n := int(nRaw%200) + 1
		windowMin := int(windowMinRaw%30) + 1
		rng := rand.New(rand.NewSource(seed))
		s := newMem(t, Options{})
		k := key()
		for i := 0; i < n; i++ {
			at := t0.Add(time.Duration(rng.Intn(3600)) * time.Second)
			if err := s.Append(k, Sample{At: at, Value: float64(i)}); err != nil {
				return false
			}
		}
		from, to := t0, t0.Add(time.Hour)
		samples, err := s.Query(k, from, to)
		if err != nil {
			return false
		}
		buckets, err := s.Downsample(k, from, to, time.Duration(windowMin)*time.Minute)
		if err != nil {
			return false
		}
		total := 0
		for _, b := range buckets {
			if b.Count == 0 {
				return false
			}
			total += b.Count
		}
		return total == len(samples)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
