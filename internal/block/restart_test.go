package block

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

var seekKey = Key{Device: "urn:d/1", Quantity: "power"}

// seekPoints is n points of a chunk that exercises every decoder branch:
// duplicate timestamps and gaps in all five dod widths, repeated values,
// values the previous XOR window still covers, and full-entropy ones.
func seekPoints(seed uint64, n int) []Point {
	rng := rand.New(rand.NewSource(int64(seed)))
	t := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	v := 20.0
	pts := make([]Point, n)
	for i := range pts {
		switch rng.Intn(8) {
		case 0: // duplicate timestamp
		case 1:
			t += int64(rng.Intn(1000)) // dod fits 20 bits
		case 2:
			t += int64(time.Second) + int64(rng.Intn(1e9)) // 32 bits
		case 3:
			t += int64(time.Hour) + int64(rng.Intn(1e9)) // 48 bits
		case 4:
			t += 3 * int64(24*time.Hour) // 64 bits, and back again after
		default:
			t += int64(time.Second) // dod 0 once regular
		}
		switch rng.Intn(4) {
		case 0: // repeat
		case 1:
			v += 0.25 // usually inside the previous window
		case 2:
			v = math.Round(rng.Float64()*1000) / 4
		default:
			v = rng.NormFloat64() * 1e6
		}
		pts[i] = Point{T: t, V: v}
	}
	return pts
}

// memBlock is a one-series block over pts without a file: the raw frame
// at offset 0 is all a read touches.
func memBlock(pts []Point) *Block {
	data := appendFrame(nil, appendChunk(nil, pts))
	m := SeriesMeta{
		Key: seekKey, MinT: pts[0].T, MaxT: pts[len(pts)-1].T, Count: int64(len(pts)),
		raw: section{off: 0, len: int64(len(data))},
	}
	return &Block{path: "mem", data: data, series: []SeriesMeta{m}, restarts: make([]atomic.Pointer[restartTable], 1)}
}

// filterPoints is PointsLimit's contract over a sequential decode.
func filterPoints(all []Point, mint, maxt int64, max int) []Point {
	var out []Point
	for _, p := range all {
		if p.T > maxt || (max >= 0 && len(out) >= max) {
			break
		}
		if p.T >= mint {
			out = append(out, p)
		}
	}
	return out
}

// FuzzChunkSeek holds the seeking PointsLimit — the read that builds the
// restart table and the one that uses it — to a sequential decode of the
// same chunk, filtered the same way. mint and maxt land on, just before
// or just after a point's timestamp, so runs of duplicates get split.
func FuzzChunkSeek(f *testing.F) {
	f.Add(uint64(1), uint16(1000), uint16(300), uint16(700), int16(-1), uint8(4))
	f.Add(uint64(2), uint16(257), uint16(256), uint16(256), int16(1), uint8(0))
	f.Add(uint64(3), uint16(4000), uint16(3999), uint16(0), int16(-1), uint8(8))
	f.Add(uint64(4), uint16(640), uint16(128), uint16(639), int16(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, n, lo, hi uint16, max int16, nudge uint8) {
		pts := seekPoints(seed, 1+int(n)%4096)
		mint := pts[int(lo)%len(pts)].T + int64(nudge%3) - 1
		maxt := pts[int(hi)%len(pts)].T + int64(nudge/3%3) - 1
		b := memBlock(pts)
		all, err := decodeChunk(nil, appendChunk(nil, pts))
		if err != nil {
			t.Fatal(err)
		}
		want := filterPoints(all, mint, maxt, int(max))
		for pass := 0; pass < 2; pass++ {
			got, err := b.PointsLimit(nil, seekKey, mint, maxt, int(max))
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			samePoints(t, got, want)
		}
	})
}

// An edge read passes at most restartEvery points before mint, wherever
// mint falls in the chunk — the bound the restart table exists for,
// checked on the iterator PointsLimit reads, not by timing it.
func TestChunkSeekDecodesAtMostRestartEveryBeforeMint(t *testing.T) {
	pts := seekPoints(26, 20000)
	b := memBlock(pts)
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 500; trial++ {
		mint := pts[rng.Intn(len(pts))].T + rng.Int63n(3) - 1
		var it chunkIter
		if err := b.chunkFrom(&it, 0, mint); err != nil {
			t.Fatal(err)
		}
		before := 0
		for it.Next() && it.At().T < mint {
			before++
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		if before > restartEvery {
			t.Fatalf("mint %d: decoded %d points before it, want <= %d", mint, before, restartEvery)
		}
	}
	if b.restarts[0].Load() == nil {
		t.Fatal("no restart table after reads that skip ahead")
	}
	if got, want := b.RestartBytes(), int64((len(pts)-1)/restartEvery)*restartSize; got != want {
		t.Fatalf("RestartBytes %d, want %d", got, want)
	}
}

// A read from the series' first point, or over a short chunk, builds no
// table: it would save nothing.
func TestChunkSeekBuildsNoTableItCannotUse(t *testing.T) {
	long, short := memBlock(seekPoints(5, 4000)), memBlock(seekPoints(5, 2*restartEvery))
	if _, err := long.Points(nil, seekKey, math.MinInt64, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	mid := short.series[0].MinT + (short.series[0].MaxT-short.series[0].MinT)/2
	if _, err := short.Points(nil, seekKey, mid, math.MaxInt64); err != nil {
		t.Fatal(err)
	}
	if long.RestartBytes() != 0 || short.RestartBytes() != 0 {
		t.Fatalf("tables built: long %d B, short %d B", long.RestartBytes(), short.RestartBytes())
	}
}

// Many goroutines make the first seeking read of one series of a real
// block file at once: each may build the table, and every read must see
// the same points as a sequential decode.
func TestBlockSeekConcurrentFirstReads(t *testing.T) {
	path, data := writeTestBlock(t, t.TempDir())
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	k := Key{Device: "dev-a", Quantity: "temp"}
	all := data[k]
	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		mint, maxt := all[300+g].T, all[400+g].T
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := b.Points(nil, k, mint, maxt)
			if err != nil {
				t.Error(err)
				return
			}
			want := filterPoints(all, mint, maxt, -1)
			if len(got) != len(want) {
				t.Errorf("reader %d: %d points, want %d", g, len(got), len(want))
				return
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("reader %d: point %d is %v, want %v", g, i, got[i], want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got, want := b.RestartBytes(), int64((len(all)-1)/restartEvery)*restartSize; got != want {
		t.Fatalf("RestartBytes %d, want %d (one table for the one series read)", got, want)
	}
}

// Many goroutines ask for one series' 1h rollup of a fresh block at
// once: each may decode and publish it, every caller must get the
// buckets a plain decode gives, and later calls share one slice.
func TestBlockHourRollupConcurrentFirstReads(t *testing.T) {
	path, _ := writeTestBlock(t, t.TempDir())
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	k := Key{Device: "dev-a", Quantity: "temp"}
	want, err := b.Rollup(k, Res1h)
	if err != nil || len(want) < 2 {
		t.Fatalf("rollup: %d buckets, %v", len(want), err)
	}
	if n := b.RollupBytes(); n != 0 {
		t.Fatalf("RollupBytes %d before any HourRollup", n)
	}
	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := b.HourRollup(k)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got, want) {
				t.Errorf("reader %d: %v, want %v", g, got, want)
			}
		}()
	}
	close(start)
	wg.Wait()
	one, _ := b.HourRollup(k)
	two, _ := b.HourRollup(k)
	if &one[0] != &two[0] {
		t.Fatal("HourRollup decoded again instead of sharing its slice")
	}
	if got, want := b.RollupBytes(), int64(len(want))*bucketSize; got != want {
		t.Fatalf("RollupBytes %d, want %d (one rollup for the one series read)", got, want)
	}
	if _, err := b.HourRollup(Key{Device: "nope", Quantity: "temp"}); !errors.Is(err, ErrNoSeries) {
		t.Fatalf("missing series: %v, want ErrNoSeries", err)
	}
}
