package block

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Point is one raw sample: T is a Unix-nanosecond timestamp, V the
// value. Chunks store points in ascending T order (ties preserved in
// input order).
type Point struct {
	T int64
	V float64
}

// Raw chunk layout: uvarint(count) followed by a bitstream.
//
// Timestamps are delta-of-delta coded in nanoseconds. The first
// timestamp is 64 raw bits; every later one encodes dod = delta -
// prevDelta (the first delta uses prevDelta = 0) zigzagged into one of
// five buckets sized for nanosecond-scale data:
//
//	'0'            dod == 0 (perfectly regular spacing)
//	'10'   + 20 b  |dod| <  2^19   (~±524 µs jitter)
//	'110'  + 32 b  |dod| <  2^31   (~±2.1 s)
//	'1110' + 48 b  |dod| <  2^47   (~±1.6 days)
//	'1111' + 64 b  anything else
//
// Values are Gorilla XOR coded: '0' repeats the previous value bit
// pattern; '1','0' reuses the previous leading/length window and writes
// only the meaningful bits; '1','1' writes 5 bits of leading-zero
// count, 6 bits of meaningful-bit length (0 encodes 64), then the
// meaningful bits.

// appendChunk appends the encoded chunk for pts to dst and returns it.
// The bitstream is written straight into dst, so a caller that reuses
// dst (the block Writer's frame scratch) encodes without allocating.
func appendChunk(dst []byte, pts []Point) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pts)))
	if len(pts) == 0 {
		return dst
	}
	w := bitWriter{b: dst}
	w.writeBits(uint64(pts[0].T), 64)
	w.writeBits(math.Float64bits(pts[0].V), 64)
	prevT := pts[0].T
	var prevDelta int64
	prevV := math.Float64bits(pts[0].V)
	leading, sigbits := ^uint(0), uint(0) // invalid window until first '11'
	for _, p := range pts[1:] {
		delta := p.T - prevT
		dod := delta - prevDelta
		prevT, prevDelta = p.T, delta
		switch z := zigzag(dod); {
		case z == 0:
			w.writeBit(0)
		case z < 1<<20:
			w.writeBits(0b10, 2)
			w.writeBits(z, 20)
		case z < 1<<32:
			w.writeBits(0b110, 3)
			w.writeBits(z, 32)
		case z < 1<<48:
			w.writeBits(0b1110, 4)
			w.writeBits(z, 48)
		default:
			w.writeBits(0b1111, 4)
			w.writeBits(z, 64)
		}

		v := math.Float64bits(p.V)
		xor := v ^ prevV
		prevV = v
		if xor == 0 {
			w.writeBit(0)
			continue
		}
		w.writeBit(1)
		lead := uint(leadingZeros64(xor))
		if lead > 31 {
			lead = 31
		}
		trail := uint(trailingZeros64(xor))
		sig := 64 - lead - trail
		if leading != ^uint(0) && lead >= leading && 64-lead-trail <= sigbits &&
			trail >= 64-leading-sigbits {
			// Previous window still covers the meaningful bits.
			w.writeBit(0)
			w.writeBits(xor>>(64-leading-sigbits), sigbits)
			continue
		}
		leading, sigbits = lead, sig
		w.writeBit(1)
		w.writeBits(uint64(lead), 5)
		w.writeBits(uint64(sig&0x3f), 6) // 64 encodes as 0
		w.writeBits(xor>>trail, sig)
	}
	return w.bytes()
}

func leadingZeros64(v uint64) int  { return bits.LeadingZeros64(v) }
func trailingZeros64(v uint64) int { return bits.TrailingZeros64(v) }

// decodeChunk decodes every point in the chunk, appending to dst.
func decodeChunk(dst []Point, buf []byte) ([]Point, error) {
	var it chunkIter
	if err := it.reset(buf); err != nil {
		return dst, err
	}
	for it.Next() {
		dst = append(dst, it.At())
	}
	return dst, it.Err()
}

// chunkIter streams points out of an encoded chunk.
type chunkIter struct {
	r       bitReader
	bits    []byte // the whole bitstream r reads, for restart offsets
	n       int    // points remaining
	first   bool
	t       int64
	delta   int64
	v       uint64
	leading uint
	sigbits uint
	haveWin bool
	cur     Point
	err     error
}

// reset points it at the start of the encoded chunk in buf. An iterator
// is a value: a read holds one on its stack rather than allocating it.
func (it *chunkIter) reset(buf []byte) error {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return fmt.Errorf("block: bad chunk count varint")
	}
	if count > uint64(len(buf))*8 {
		return fmt.Errorf("block: chunk count %d implausible for %d bytes", count, len(buf))
	}
	bits := buf[n:]
	*it = chunkIter{r: bitReader{b: bits}, bits: bits, n: int(count), first: true}
	return nil
}

func (it *chunkIter) Next() bool {
	if it.err != nil || it.n == 0 {
		return false
	}
	it.n--
	if it.first {
		it.first = false
		t, err := it.r.readBits(64)
		if err != nil {
			it.err = err
			return false
		}
		v, err := it.r.readBits(64)
		if err != nil {
			it.err = err
			return false
		}
		it.t, it.v = int64(t), v
		it.cur = Point{T: it.t, V: math.Float64frombits(v)}
		return true
	}
	// Timestamp.
	var z uint64
	b, err := it.r.readBit()
	if err != nil {
		it.err = err
		return false
	}
	if b == 0 {
		z = 0
	} else {
		width := uint(0)
		b2, err := it.r.readBit()
		if err != nil {
			it.err = err
			return false
		}
		if b2 == 0 {
			width = 20
		} else {
			b3, err := it.r.readBit()
			if err != nil {
				it.err = err
				return false
			}
			if b3 == 0 {
				width = 32
			} else {
				b4, err := it.r.readBit()
				if err != nil {
					it.err = err
					return false
				}
				if b4 == 0 {
					width = 48
				} else {
					width = 64
				}
			}
		}
		z, err = it.r.readBits(width)
		if err != nil {
			it.err = err
			return false
		}
	}
	it.delta += unzigzag(z)
	it.t += it.delta

	// Value.
	b, err = it.r.readBit()
	if err != nil {
		it.err = err
		return false
	}
	if b != 0 {
		ctrl, err := it.r.readBit()
		if err != nil {
			it.err = err
			return false
		}
		if ctrl == 1 {
			lead, err := it.r.readBits(5)
			if err != nil {
				it.err = err
				return false
			}
			sig, err := it.r.readBits(6)
			if err != nil {
				it.err = err
				return false
			}
			if sig == 0 {
				sig = 64
			}
			it.leading, it.sigbits = uint(lead), uint(sig)
			it.haveWin = true
		} else if !it.haveWin {
			it.err = fmt.Errorf("block: chunk reuses value window before defining one")
			return false
		}
		bits, err := it.r.readBits(it.sigbits)
		if err != nil {
			it.err = err
			return false
		}
		it.v ^= bits << (64 - it.leading - it.sigbits)
	}
	it.cur = Point{T: it.t, V: math.Float64frombits(it.v)}
	return true
}

func (it *chunkIter) At() Point  { return it.cur }
func (it *chunkIter) Err() error { return it.err }
