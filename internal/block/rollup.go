package block

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"
)

// Rollup resolutions maintained inside every block. Both divide the
// Unix epoch's offset from Go's zero time, so buckets computed as
// floor(T/res)*res coincide with time.Truncate boundaries.
const (
	Res1m = int64(time.Minute)
	Res1h = int64(time.Hour)
)

// Bucket is one downsampled rollup bucket: aggregates of every sample
// with Start <= T < Start+res. First/Last carry the boundary samples so
// aggregate responses that expose them stay byte-identical to a raw
// scan.
type Bucket struct {
	Start  int64 // Unix nanos, multiple of the resolution
	Count  int64
	Min    float64
	Max    float64
	Sum    float64
	FirstT int64
	FirstV float64
	LastT  int64
	LastV  float64
}

// bucketSize is the heap one decoded Bucket holds.
const bucketSize = int64(unsafe.Sizeof(Bucket{}))

// buildRollup folds ascending points into res-sized buckets, appended
// to out.
func buildRollup(out []Bucket, pts []Point, res int64) []Bucket {
	for _, p := range pts {
		start := floorDiv(p.T, res) * res
		if n := len(out); n > 0 && out[n-1].Start == start {
			b := &out[n-1]
			b.Count++
			if p.V < b.Min {
				b.Min = p.V
			}
			if p.V > b.Max {
				b.Max = p.V
			}
			b.Sum += p.V
			b.LastT, b.LastV = p.T, p.V
			continue
		}
		out = append(out, Bucket{
			Start: start, Count: 1,
			Min: p.V, Max: p.V, Sum: p.V,
			FirstT: p.T, FirstV: p.V, LastT: p.T, LastV: p.V,
		})
	}
	return out
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

// Rollup chunk layout: uvarint(count of buckets), then per bucket:
// varint(delta of Start/res from previous bucket; absolute for the
// first), uvarint(Count), Min/Max/Sum as little-endian float64 bits,
// uvarint(FirstT-Start), FirstV bits, uvarint(LastT-Start), LastV bits.
func appendRollup(dst []byte, bks []Bucket, res int64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bks)))
	prev := int64(0)
	for i, b := range bks {
		unit := b.Start / res
		if i == 0 {
			dst = binary.AppendVarint(dst, unit)
		} else {
			dst = binary.AppendVarint(dst, unit-prev)
		}
		prev = unit
		dst = binary.AppendUvarint(dst, uint64(b.Count))
		dst = appendF64(dst, b.Min)
		dst = appendF64(dst, b.Max)
		dst = appendF64(dst, b.Sum)
		dst = binary.AppendUvarint(dst, uint64(b.FirstT-b.Start))
		dst = appendF64(dst, b.FirstV)
		dst = binary.AppendUvarint(dst, uint64(b.LastT-b.Start))
		dst = appendF64(dst, b.LastV)
	}
	return dst
}

// decodeRollup appends the buckets of an encoded rollup chunk to dst; on
// error the result is nil.
func decodeRollup(dst []Bucket, buf []byte, res int64) ([]Bucket, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("block: bad rollup count varint")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("block: rollup count %d implausible for %d bytes", count, len(buf))
	}
	out := slices.Grow(dst, int(count))
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		d, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("block: truncated rollup bucket %d", i)
		}
		buf = buf[n:]
		unit := d
		if i > 0 {
			unit = prev + d
		}
		prev = unit
		b := Bucket{Start: unit * res}
		c, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("block: truncated rollup bucket %d", i)
		}
		buf = buf[n:]
		b.Count = int64(c)
		var err error
		if b.Min, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		if b.Max, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		if b.Sum, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		ft, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("block: truncated rollup bucket %d", i)
		}
		buf = buf[n:]
		b.FirstT = b.Start + int64(ft)
		if b.FirstV, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		lt, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("block: truncated rollup bucket %d", i)
		}
		buf = buf[n:]
		b.LastT = b.Start + int64(lt)
		if b.LastV, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func readF64(buf []byte) (float64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("block: truncated float64")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf)), buf[8:], nil
}
