package tsdb

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

var shT0 = time.Date(2015, 3, 9, 10, 0, 0, 0, time.UTC)

func shKey(d int) SeriesKey {
	return SeriesKey{Device: fmt.Sprintf("urn:district:turin/building:b%03d/device:d0", d), Quantity: "temperature"}
}

// TestShardedSingleShardEquivalence replays one mixed workload — in-order
// appends, out-of-order spills, eviction pressure — into a plain Store
// and a 1-shard Sharded engine and requires identical reads: the sharded
// engine must be a pure partitioning layer, not a semantic change.
func TestShardedSingleShardEquivalence(t *testing.T) {
	opts := Options{MaxSamplesPerSeries: 128, SegmentSize: 16}
	plain := New(opts)
	defer plain.Close()
	sharded := NewSharded(ShardedOptions{Shards: 1, Store: opts})
	defer sharded.Close()

	rng := rand.New(rand.NewSource(42))
	const devices, rows = 5, 700
	for i := 0; i < rows; i++ {
		key := shKey(rng.Intn(devices))
		at := shT0.Add(time.Duration(i) * time.Second)
		if rng.Intn(10) == 0 { // out-of-order arrival
			at = at.Add(-time.Duration(rng.Intn(500)) * time.Second)
		}
		smp := Sample{At: at, Value: float64(i)}
		if err := plain.Append(key, smp); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Append(key, smp); err != nil {
			t.Fatal(err)
		}
	}

	if p, s := plain.Stats(), sharded.Stats(); p.Series != s.Series || p.Samples != s.Samples {
		t.Fatalf("stats diverge: plain %+v sharded %+v", p, s)
	}
	to := shT0.Add(rows * time.Second)
	for d := 0; d < devices; d++ {
		key := shKey(d)
		want, err1 := plain.Query(key, shT0.Add(-time.Hour), to)
		got, err2 := sharded.Query(key, shT0.Add(-time.Hour), to)
		if err1 != nil || err2 != nil {
			t.Fatalf("query errs: %v / %v", err1, err2)
		}
		if len(want) != len(got) {
			t.Fatalf("device %d: plain %d samples, sharded %d", d, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("device %d sample %d: %+v != %+v", d, i, want[i], got[i])
			}
		}
		wa, _ := plain.Aggregate(key, shT0.Add(-time.Hour), to)
		ga, _ := sharded.Aggregate(key, shT0.Add(-time.Hour), to)
		if wa != ga {
			t.Fatalf("device %d aggregate: %+v != %+v", d, wa, ga)
		}
		// Page walks agree too (same value cursors).
		var cur Cursor
		var paged int
		for {
			page, err := sharded.QueryPage(key, shT0.Add(-time.Hour), to, cur, 37)
			if err != nil {
				t.Fatal(err)
			}
			paged += len(page.Samples)
			if !page.More {
				break
			}
			cur = page.Next
		}
		if paged != len(want) {
			t.Fatalf("device %d: paged %d of %d samples", d, paged, len(want))
		}
	}
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
		if got := s.KeysForDevice(key.Device); len(got) != 2 {
			t.Fatalf("device %d: %d keys", d, len(got))
		}
		sh := s.ShardFor(key.Device)
		if s.Shard(sh).Len(key) != 1 {
			t.Fatalf("device %d not in shard %d", d, sh)
		}
	}
	if got := len(s.Keys()); got != 2*devices {
		t.Fatalf("Keys() = %d, want %d", got, 2*devices)
	}
	populated := 0
	for i := 0; i < s.NumShards(); i++ {
		if len(s.Shard(i).Keys()) > 0 {
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
	s := NewSharded(ShardedOptions{Shards: 8})
	defer s.Close()
	readKey := shKey(0)
	const preloaded = 2000
	for i := 0; i < preloaded; i++ {
		if err := s.Append(readKey, Sample{At: shT0.Add(time.Duration(i) * time.Second), Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	to := shT0.Add(preloaded * time.Second) // pin the upper bound: new ingest lands beyond it

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
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
					return
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
		time.Sleep(time.Millisecond) // let writers interleave between pages
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
