package block

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

// refBitReader is the bit-at-a-time reader the block format was first
// written against, kept as the oracle for the word-at-a-time bitReader.
type refBitReader struct {
	b   []byte
	off int  // index of next byte
	rem uint // unread bits remaining in b[off-1] (0 → advance)
}

func (r *refBitReader) readBits(n uint) (uint64, error) {
	var v uint64
	for n > 0 {
		if r.rem == 0 {
			if r.off >= len(r.b) {
				return 0, errBitsEOF
			}
			r.off++
			r.rem = 8
		}
		take := min(n, r.rem)
		r.rem -= take
		chunk := uint64(r.b[r.off-1]>>r.rem) & ((1 << take) - 1)
		v = v<<take | chunk
		n -= take
	}
	return v, nil
}

// checkBitScript reads data through both readers by the widths in
// script (each taken mod 65; width 1 goes through readBit) and demands
// the same value or the same errBitsEOF at every step, past the first
// error too (the reference stays drained, so must bitReader). Before
// every read a third reader seeks to bitReader's offset and must read
// the same. The values read are written back through bitWriter and must
// reproduce the bytes consumed.
func checkBitScript(t *testing.T, data, script []byte) {
	t.Helper()
	ref := refBitReader{b: data}
	r := bitReader{b: data}
	var w bitWriter
	written := uint(0)
	for i, c := range script {
		n := uint(c) % 65
		at := r.offset(data)
		var sought bitReader
		sought.seek(data, at)
		want, wantErr := ref.readBits(n)
		var got uint64
		var err error
		if n == 1 {
			got, err = r.readBit()
		} else {
			got, err = r.readBits(n)
		}
		if (err != nil) != (wantErr != nil) || (err != nil && !errors.Is(err, errBitsEOF)) {
			t.Fatalf("read %d (width %d): err %v, reference %v", i, n, err, wantErr)
		}
		if got != want {
			t.Fatalf("read %d (width %d): got %#x, reference %#x", i, n, got, want)
		}
		if sv, serr := sought.readBits(n); sv != got || (serr != nil) != (err != nil) {
			t.Fatalf("read %d (width %d) after seeking to bit %d: got %#x (err %v), reader %#x (err %v)",
				i, n, at, sv, serr, got, err)
		}
		if err != nil {
			continue
		}
		w.writeBits(got, n)
		written += n
	}
	out := w.bytes()
	if len(out) != int(written+7)/8 {
		t.Fatalf("writer produced %d bytes for %d bits", len(out), written)
	}
	full := int(written / 8)
	if !bytes.Equal(out[:full], data[:full]) {
		t.Fatalf("writer bytes differ from the bytes read:\n got %x\nwant %x", out[:full], data[:full])
	}
	if tail := written % 8; tail > 0 {
		if want := data[full] >> (8 - tail) << (8 - tail); out[full] != want {
			t.Fatalf("writer tail byte %#x, want %#x (%d bits, zero padded)", out[full], want, tail)
		}
	}
}

func TestBitReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 2000; trial++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		script := make([]byte, 1+rng.Intn(24))
		rng.Read(script)
		if trial%4 == 0 {
			// Wide reads, so most of them straddle a refill.
			for i := range script {
				script[i] = byte(57 + rng.Intn(8))
			}
		}
		checkBitScript(t, data, script)
	}
}

// FuzzBitReader drives random read scripts over random bytes through
// bitReader and the bit-at-a-time reference.
func FuzzBitReader(f *testing.F) {
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{0xa5}, []byte{3, 5, 1})
	f.Add(bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 5), []byte{64, 64, 1, 64})         // truncated tail
	f.Add(bytes.Repeat([]byte{0x0f, 0xf0, 0x55}, 8), []byte{7, 64, 64, 0, 64, 13, 64})    // 64-bit reads across refills
	f.Add(bytes.Repeat([]byte{0xff}, 9), []byte{63, 1, 8, 1})                             // exact end, then past it
	f.Add(appendChunk(nil, []Point{{T: 1, V: 2}, {T: 3, V: 4}}), []byte{8, 64, 64, 1, 2}) // a real chunk
	f.Fuzz(checkBitScript)
}

// benchPoints is a day of one sensor at minute cadence (with ±20 ms of
// jitter, as a polled device has): full-entropy mantissas, or values
// quantised to 0.1 as a real thermometer reports them.
func benchPoints(quantised bool) []Point {
	rng := rand.New(rand.NewSource(1))
	t := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	pts := make([]Point, 1440)
	for i := range pts {
		t += int64(time.Minute) + rng.Int63n(int64(40*time.Millisecond)) - int64(20*time.Millisecond)
		v := 20 + 5*math.Sin(float64(i)/200) + rng.Float64()
		if quantised {
			v = math.Round(v*10) / 10
		}
		pts[i] = Point{T: t, V: v}
	}
	return pts
}

var (
	benchSink  []Point
	benchBytes []byte
)

func BenchmarkChunkDecode(b *testing.B) { benchChunk(b, true) }
func BenchmarkChunkEncode(b *testing.B) { benchChunk(b, false) }

func benchChunk(b *testing.B, decode bool) {
	for _, quantised := range []bool{false, true} {
		name := "random-mantissa"
		if quantised {
			name = "quantised"
		}
		b.Run(name, func(b *testing.B) {
			pts := benchPoints(quantised)
			buf := appendChunk(nil, pts)
			dst := make([]Point, 0, len(pts))
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !decode {
					benchBytes = appendChunk(buf[:0], pts)
					continue
				}
				var err error
				if benchSink, err = decodeChunk(dst[:0], buf); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/sample")
		})
	}
}
