package block

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func samePoints(t *testing.T, got, want []Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("point count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].T != want[i].T {
			t.Fatalf("point %d: T got %d want %d", i, got[i].T, want[i].T)
		}
		gb, wb := math.Float64bits(got[i].V), math.Float64bits(want[i].V)
		if gb != wb {
			t.Fatalf("point %d: V bits got %016x want %016x", i, gb, wb)
		}
	}
}

func TestChunkRoundtripRegular(t *testing.T) {
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	var pts []Point
	for i := 0; i < 5000; i++ {
		pts = append(pts, Point{T: base + int64(i)*int64(time.Second), V: 20 + math.Sin(float64(i)/10)})
	}
	buf := appendChunk(nil, pts)
	// Regular 1s spacing should compress below the ~16 raw
	// bytes/sample: dod is 0 after the first two samples, and even
	// full-entropy mantissas leave the timestamps nearly free.
	if perSample := float64(len(buf)) / float64(len(pts)); perSample > 8 {
		t.Fatalf("regular series compressed to %.2f bytes/sample, want <= 8", perSample)
	}
	got, err := decodeChunk(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, got, pts)
}

func TestChunkRoundtripQuantized(t *testing.T) {
	// Realistic meter data: fixed sample cadence, values quantized to
	// the sensor's resolution (multiples of 0.25 here). This is where
	// XOR compression earns its keep.
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	var pts []Point
	for i := 0; i < 5000; i++ {
		v := math.Round((230+10*math.Sin(float64(i)/50))*4) / 4
		pts = append(pts, Point{T: base + int64(i)*int64(time.Second), V: v})
	}
	buf := appendChunk(nil, pts)
	if perSample := float64(len(buf)) / float64(len(pts)); perSample > 2.5 {
		t.Fatalf("quantized series compressed to %.2f bytes/sample, want <= 2.5", perSample)
	}
	got, err := decodeChunk(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, got, pts)
}

func TestChunkRoundtripConstant(t *testing.T) {
	base := int64(1700000000) * int64(time.Second)
	var pts []Point
	for i := 0; i < 1000; i++ {
		pts = append(pts, Point{T: base + int64(i)*int64(time.Minute), V: 42.5})
	}
	buf := appendChunk(nil, pts)
	if perSample := float64(len(buf)) / float64(len(pts)); perSample > 1 {
		t.Fatalf("constant series compressed to %.2f bytes/sample, want <= 1", perSample)
	}
	got, err := decodeChunk(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, got, pts)
}

func TestChunkRoundtripPathological(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1e-300}
	t0 := time.Date(1999, 12, 31, 23, 59, 0, 0, time.UTC).UnixNano()
	var pts []Point
	tt := t0
	for i := 0; i < 4000; i++ {
		// Jitter across every dod bucket: ns-level through multi-day
		// gaps, including zero and negative deltas (duplicates /
		// out-of-order-equal timestamps are legal inside a chunk as
		// long as T never decreases).
		switch rng.Intn(6) {
		case 0:
			// same timestamp (duplicate)
		case 1:
			tt += int64(rng.Intn(1000)) // ns jitter
		case 2:
			tt += int64(time.Millisecond) + int64(rng.Intn(1e6))
		case 3:
			tt += int64(time.Second)
		case 4:
			tt += int64(time.Hour) + int64(rng.Intn(1e9))
		case 5:
			tt += 3 * int64(24*time.Hour)
		}
		var v float64
		if rng.Intn(4) == 0 {
			v = specials[rng.Intn(len(specials))]
		} else {
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		pts = append(pts, Point{T: tt, V: v})
	}
	buf := appendChunk(nil, pts)
	got, err := decodeChunk(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	samePoints(t, got, pts)
}

func TestChunkRoundtripTiny(t *testing.T) {
	for _, pts := range [][]Point{
		nil,
		{{T: 0, V: 0}},
		{{T: -5e18, V: math.NaN()}},
		{{T: 1, V: 1}, {T: 2, V: 2}},
		{{T: math.MinInt64 / 2, V: 1}, {T: math.MaxInt64 / 2, V: -1}},
	} {
		buf := appendChunk(nil, pts)
		got, err := decodeChunk(nil, buf)
		if err != nil {
			t.Fatalf("%v: %v", pts, err)
		}
		samePoints(t, got, pts)
	}
}

func FuzzChunkRoundtrip(f *testing.F) {
	f.Add(int64(1700000000e9), uint8(10), int64(1e9), uint64(12345))
	f.Add(int64(0), uint8(1), int64(0), uint64(0))
	f.Add(int64(-1e15), uint8(200), int64(1e18), uint64(999))
	f.Fuzz(func(t *testing.T, start int64, n uint8, step int64, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		if step < 0 {
			step = -step
		}
		pts := make([]Point, 0, n)
		tt := start
		for i := 0; i < int(n); i++ {
			gap := step/2 + rng.Int63n(step+1)
			if tt > math.MaxInt64-gap {
				break
			}
			tt += gap
			pts = append(pts, Point{T: tt, V: math.Float64frombits(rng.Uint64())})
		}
		buf := appendChunk(nil, pts)
		got, err := decodeChunk(nil, buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(pts) {
			t.Fatalf("got %d points want %d", len(got), len(pts))
		}
		for i := range pts {
			if got[i].T != pts[i].T || math.Float64bits(got[i].V) != math.Float64bits(pts[i].V) {
				t.Fatalf("point %d mismatch", i)
			}
		}
	})
}

// FuzzChunkDecode feeds arbitrary bytes to the decoder: it must never
// panic or loop, only return points or an error.
func FuzzChunkDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add(appendChunk(nil, []Point{{T: 1, V: 2}, {T: 3, V: 4}}))
	f.Fuzz(func(t *testing.T, buf []byte) {
		pts, _ := decodeChunk(nil, buf)
		_ = pts
	})
}

func TestRollupBuckets(t *testing.T) {
	base := time.Date(2026, 3, 1, 10, 0, 0, 0, time.UTC).UnixNano()
	var pts []Point
	for i := 0; i < 600; i++ { // 10 samples/minute for an hour
		pts = append(pts, Point{T: base + int64(i)*6*int64(time.Second), V: float64(i)})
	}
	r1m := buildRollup(nil, pts, Res1m)
	if len(r1m) != 60 {
		t.Fatalf("1m buckets: got %d want 60", len(r1m))
	}
	b0 := r1m[0]
	if b0.Count != 10 || b0.Min != 0 || b0.Max != 9 || b0.Sum != 45 {
		t.Fatalf("bucket 0: %+v", b0)
	}
	if b0.FirstT != base || b0.LastT != base+9*6*int64(time.Second) {
		t.Fatalf("bucket 0 first/last: %+v", b0)
	}
	r1h := buildRollup(nil, pts, Res1h)
	if len(r1h) != 1 || r1h[0].Count != 600 {
		t.Fatalf("1h buckets: %+v", r1h)
	}
	// Codec roundtrip.
	enc := appendRollup(nil, r1m, Res1m)
	dec, err := decodeRollup(nil, enc, Res1m)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(r1m) {
		t.Fatalf("decoded %d buckets want %d", len(dec), len(r1m))
	}
	for i := range dec {
		if dec[i] != r1m[i] {
			t.Fatalf("bucket %d: got %+v want %+v", i, dec[i], r1m[i])
		}
	}
}

func TestRollupAlignsWithTruncate(t *testing.T) {
	// floor(T/res)*res must equal time.Truncate for 1m and 1h, or the
	// rollup pushdown would disagree with the head's bucketing.
	times := []time.Time{
		time.Date(2026, 3, 1, 10, 37, 59, 999999999, time.UTC),
		time.Unix(0, 0),
		time.Date(1969, 12, 31, 23, 59, 59, 1, time.UTC),
		time.Date(2100, 1, 1, 0, 0, 30, 0, time.UTC),
	}
	for _, tm := range times {
		for _, res := range []int64{Res1m, Res1h} {
			got := floorDiv(tm.UnixNano(), res) * res
			want := tm.Truncate(time.Duration(res)).UnixNano()
			if got != want {
				t.Fatalf("%v res=%d: floor %d truncate %d", tm, res, got, want)
			}
		}
	}
}

func writeTestBlock(t *testing.T, dir string) (string, map[Key][]Point) {
	t.Helper()
	path := filepath.Join(dir, "0000000000000001.blk")
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 2, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	data := map[Key][]Point{}
	keys := []Key{
		{Device: "dev-a", Quantity: "power"},
		{Device: "dev-a", Quantity: "temp"},
		{Device: "dev-b", Quantity: "power"},
	}
	for ki, k := range keys {
		var pts []Point
		for i := 0; i < 500; i++ {
			pts = append(pts, Point{T: base + int64(i)*int64(30*time.Second), V: float64(ki*1000 + i)})
		}
		data[k] = pts
		if err := w.Add(k, pts); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path, data
}

func TestBlockWriteReadVerify(t *testing.T) {
	dir := t.TempDir()
	path, data := writeTestBlock(t, dir)
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := b.Verify(); err != nil {
		t.Fatal(err)
	}
	if len(b.Series()) != 3 {
		t.Fatalf("series count %d", len(b.Series()))
	}
	for k, want := range data {
		got, err := b.Points(nil, k, math.MinInt64, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, got, want)
		// Range query clips inclusively.
		mid := want[100].T
		end := want[200].T
		got, err = b.Points(nil, k, mid, end)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, got, want[100:201])
		m, ok := b.Meta(k)
		if !ok || m.Count != int64(len(want)) {
			t.Fatalf("meta %v: %+v ok=%v", k, m, ok)
		}
		var sum float64
		for _, p := range want {
			sum += p.V
		}
		if m.Sum != sum || m.Min != want[0].V || m.Max != want[len(want)-1].V {
			t.Fatalf("meta aggregates %v: %+v", k, m)
		}
		r1m, err := b.Rollup(k, Res1m)
		if err != nil {
			t.Fatal(err)
		}
		var cnt int64
		for _, bk := range r1m {
			cnt += bk.Count
		}
		if cnt != int64(len(want)) {
			t.Fatalf("rollup count %d want %d", cnt, len(want))
		}
	}
	if _, err := b.Points(nil, Key{Device: "nope", Quantity: "x"}, 0, math.MaxInt64); err != ErrNoSeries {
		t.Fatalf("missing series: %v", err)
	}
}

func TestBlockCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path, _ := writeTestBlock(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle of the body: Verify must catch it.
	mut := append([]byte(nil), raw...)
	mut[len(mut)/3] ^= 0x40
	bad := filepath.Join(dir, "corrupt.blk")
	if err := os.WriteFile(bad, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := Open(bad)
	if err == nil {
		verr := b.Verify()
		if cerr := b.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if verr == nil {
			t.Fatal("corrupted block passed Verify")
		}
	}
	// Truncated file (torn write under the final name) must fail Open.
	torn := filepath.Join(dir, "torn.blk")
	if err := os.WriteFile(torn, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if tb, err := Open(torn); err == nil {
		if cerr := tb.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		t.Fatal("torn block opened cleanly")
	}
}

func TestWriterDemotedRollups(t *testing.T) {
	dir := t.TempDir()
	path, data := writeTestBlock(t, dir)
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite rollup-only, as raw retention demotion does.
	demoted := filepath.Join(dir, "demoted.blk")
	w, err := NewWriter(demoted)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range b.Series() {
		r1m, err := b.Rollup(m.Key, Res1m)
		if err != nil {
			t.Fatal(err)
		}
		r1h, err := b.Rollup(m.Key, Res1h)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AddRollups(m, r1m, r1h); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(demoted)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	if err := db.Verify(); err != nil {
		t.Fatal(err)
	}
	k := Key{Device: "dev-a", Quantity: "power"}
	if _, err := db.Points(nil, k, 0, math.MaxInt64); err != ErrRawDemoted {
		t.Fatalf("demoted Points: %v", err)
	}
	m, ok := db.Meta(k)
	if !ok || m.HasRaw() || m.Count != int64(len(data[k])) {
		t.Fatalf("demoted meta: %+v ok=%v", m, ok)
	}
	r1h, err := db.Rollup(k, Res1h)
	if err != nil {
		t.Fatal(err)
	}
	var cnt int64
	for _, bk := range r1h {
		cnt += bk.Count
	}
	if cnt != int64(len(data[k])) {
		t.Fatalf("demoted rollup count %d want %d", cnt, len(data[k]))
	}
	// Demoted block is strictly smaller than the original.
	oi, _ := os.Stat(path)
	di, _ := os.Stat(demoted)
	if di.Size() >= oi.Size() {
		t.Fatalf("demoted block %d bytes >= original %d", di.Size(), oi.Size())
	}
}

func TestWriterOrderEnforced(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(filepath.Join(dir, "x.blk"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	pts := []Point{{T: 1, V: 1}}
	if err := w.Add(Key{Device: "b", Quantity: "q"}, pts); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Key{Device: "a", Quantity: "q"}, pts); err == nil {
		t.Fatal("out-of-order Add accepted")
	}
}

func TestWriterAtomicNoPartialFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "never.blk")
	w, err := NewWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Add(Key{Device: "d", Quantity: "q"}, []Point{{T: 1, V: 1}}); err != nil {
		t.Fatal(err)
	}
	w.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("final path exists after abort: %v", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("abort left files behind: %v", ents)
	}
}
