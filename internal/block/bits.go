// Package block implements the immutable columnar block format used for
// historical (cold) time-series storage: delta-of-delta timestamps and
// XOR-compressed float values per series, precomputed 1m/1h rollup
// buckets, a per-series index, CRC-framed sections, and an atomic
// tmp+fsync+rename writer. Blocks are read via mmap where available so
// cold data stays out of the Go heap.
//
// Chunk bitstreams are MSB-first. This file's writer and reader move
// them a 64-bit word at a time — a write or read is a shift and a mask,
// memory is touched once per eight bytes — which is an implementation
// choice, not a format one: the bytes are those a bit-at-a-time codec
// produces, and the test-only refBitReader holds the reader to that.
//
// A chunk can only be decoded from its first sample, so an open block
// keeps, per series that a read has entered past its start, an
// in-memory restart table: the decoder state before every 128th point,
// built by one full decode and dropped with the mapping (restart.go).
// A read then starts within 128 points of its range. The table is not
// part of the file format.
//
// The package is self-contained (no dependency on internal/tsdb) so the
// tsdb layer can build on top of it without an import cycle.
package block

import (
	"encoding/binary"
	"errors"
)

// errBitsEOF is returned by bitReader when the stream runs out.
var errBitsEOF = errors.New("block: bitstream exhausted")

// bitWriter appends bits to a byte slice, MSB-first within each byte.
// Bits collect in a 64-bit accumulator and reach b eight bytes at a
// time; bytes() flushes the partial tail, zero-padded to a whole byte.
type bitWriter struct {
	b   []byte
	acc uint64 // the n pending bits, in the low bits
	n   uint   // pending bits in acc, always < 64
}

func (w *bitWriter) writeBit(bit uint64) { w.writeBits(bit&1, 1) }

// writeBits writes the low n bits of v, most significant first. n must
// be in [0, 64].
func (w *bitWriter) writeBits(v uint64, n uint) {
	if n < 64 {
		v &= 1<<n - 1
	}
	if w.n+n < 64 {
		w.acc = w.acc<<n | v
		w.n += n
		return
	}
	// The accumulator fills: emit its 64 bits, keep the rest of v.
	rest := w.n + n - 64
	w.b = binary.BigEndian.AppendUint64(w.b, w.acc<<(n-rest)|v>>rest)
	w.acc, w.n = v&(1<<rest-1), rest
}

// bytes flushes the pending bits and returns the stream. The writer
// must not be written to afterwards.
func (w *bitWriter) bytes() []byte {
	for w.n > 0 {
		take := min(w.n, 8)
		w.n -= take
		w.b = append(w.b, byte(w.acc>>w.n<<(8-take)))
	}
	return w.b
}

// bitReader consumes bits MSB-first from a byte slice through a 64-bit
// refill buffer.
type bitReader struct {
	b     []byte // bytes not yet loaded into buf
	buf   uint64 // the next valid bits of the stream, in the low bits
	valid uint   // unread bits in buf
}

// refill loads the next (up to) eight bytes into the drained buffer and
// reports whether the stream had any left.
func (r *bitReader) refill() bool {
	if len(r.b) >= 8 {
		r.buf, r.valid, r.b = binary.BigEndian.Uint64(r.b), 64, r.b[8:]
		return true
	}
	r.buf, r.valid = 0, 8*uint(len(r.b))
	for _, c := range r.b {
		r.buf = r.buf<<8 | uint64(c)
	}
	r.b = nil
	return r.valid > 0
}

func (r *bitReader) readBit() (uint64, error) {
	if r.valid == 0 && !r.refill() {
		return 0, errBitsEOF
	}
	r.valid--
	return r.buf >> r.valid & 1, nil
}

// readBits reads n bits (n in [0, 64]) MSB-first. A read the stream
// cannot satisfy drains it: every later read of n > 0 fails too.
func (r *bitReader) readBits(n uint) (uint64, error) {
	if n <= r.valid {
		r.valid -= n
		return r.buf >> r.valid & (1<<n - 1), nil
	}
	// The read straddles a refill: the buffer's tail, then the head of
	// the next word.
	hi := r.buf & (1<<r.valid - 1)
	n -= r.valid
	if !r.refill() || r.valid < n {
		r.valid = 0
		return 0, errBitsEOF
	}
	r.valid -= n
	return hi<<n | r.buf>>r.valid&(1<<n-1), nil
}

// offset is the reader's position in stream, the slice it started on,
// in bits. What a reader returns next depends on this position alone.
func (r *bitReader) offset(stream []byte) uint64 {
	return 8*uint64(len(stream)-len(r.b)) - uint64(r.valid)
}

// seek repositions the reader at bit offset bit of stream, as if it had
// read its way there from the start.
func (r *bitReader) seek(stream []byte, bit uint64) {
	r.b, r.buf, r.valid = stream[bit/8:], 0, 0
	if skip := uint(bit % 8); skip > 0 {
		r.refill()
		r.valid -= skip
	}
}

// zigzag maps signed integers to unsigned so small magnitudes encode
// small.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
