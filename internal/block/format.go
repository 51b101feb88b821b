package block

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// On-disk layout of a block file:
//
//	header   "RBLK" magic + 1 version byte
//	body     per series, in ascending (Device, Quantity) order:
//	           raw chunk frame (omitted for rollup-only series)
//	           1m rollup frame
//	           1h rollup frame
//	index    one frame describing every series (see appendIndex)
//	footer   u64 little-endian offset of the index frame + "RBLK"
//
// Every frame is [u32 len][u32 crc32c(payload)][payload], the same
// Castagnoli framing the WAL uses, so torn or bit-flipped sections are
// detected on read rather than trusted.
const (
	blockMagic   = "RBLK"
	blockVersion = 1
	frameHdrLen  = 8
	footerLen    = 8 + 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Key identifies one series inside a block.
type Key struct {
	Device   string
	Quantity string
}

func (k Key) less(o Key) bool {
	if k.Device != o.Device {
		return k.Device < o.Device
	}
	return k.Quantity < o.Quantity
}

type section struct {
	off int64 // frame start, from beginning of file
	len int64 // frame length including the 8-byte frame header
}

// SeriesMeta is the per-series index entry: time bounds, whole-series
// aggregates (enough to answer a fully-covering Aggregate without
// touching any chunk), and section locations.
type SeriesMeta struct {
	Key    Key
	MinT   int64
	MaxT   int64
	Count  int64
	Min    float64
	Max    float64
	Sum    float64
	FirstT int64
	FirstV float64
	LastT  int64
	LastV  float64

	raw section // len 0 → raw demoted away (rollup-only series)
	r1m section
	r1h section
}

// HasRaw reports whether the series still carries its raw chunk (false
// once raw retention has demoted the block to rollups only).
func (m SeriesMeta) HasRaw() bool { return m.raw.len != 0 }

// appendFrameHeader appends the header of payload's frame to dst.
func appendFrameHeader(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
}

// frameAt validates and returns the payload of the frame at s within
// data.
func frameAt(data []byte, s section) ([]byte, error) {
	if s.off < 0 || s.len < frameHdrLen || s.off+s.len > int64(len(data)) {
		return nil, fmt.Errorf("block: frame [%d,+%d) out of bounds (file %d bytes)", s.off, s.len, len(data))
	}
	f := data[s.off : s.off+s.len]
	n := binary.LittleEndian.Uint32(f[0:4])
	if int64(n)+frameHdrLen != s.len {
		return nil, fmt.Errorf("block: frame length mismatch at %d: header %d, index %d", s.off, n, s.len-frameHdrLen)
	}
	want := binary.LittleEndian.Uint32(f[4:8])
	payload := f[frameHdrLen:]
	if got := crc32.Checksum(payload, crcTable); got != want {
		return nil, fmt.Errorf("block: frame crc mismatch at %d: got %08x want %08x", s.off, got, want)
	}
	return payload, nil
}

func appendIndex(dst []byte, series []SeriesMeta) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(series)))
	for _, m := range series {
		dst = appendString(dst, m.Key.Device)
		dst = appendString(dst, m.Key.Quantity)
		dst = binary.AppendVarint(dst, m.MinT)
		dst = binary.AppendVarint(dst, m.MaxT)
		dst = binary.AppendUvarint(dst, uint64(m.Count))
		dst = appendF64(dst, m.Min)
		dst = appendF64(dst, m.Max)
		dst = appendF64(dst, m.Sum)
		dst = binary.AppendVarint(dst, m.FirstT)
		dst = appendF64(dst, m.FirstV)
		dst = binary.AppendVarint(dst, m.LastT)
		dst = appendF64(dst, m.LastV)
		for _, s := range []section{m.raw, m.r1m, m.r1h} {
			dst = binary.AppendUvarint(dst, uint64(s.off))
			dst = binary.AppendUvarint(dst, uint64(s.len))
		}
	}
	return dst
}

func decodeIndex(buf []byte) ([]SeriesMeta, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("block: bad index count varint")
	}
	buf = buf[n:]
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("block: index count %d implausible for %d bytes", count, len(buf))
	}
	out := make([]SeriesMeta, 0, count)
	var err error
	for i := uint64(0); i < count; i++ {
		var m SeriesMeta
		if m.Key.Device, buf, err = readString(buf); err != nil {
			return nil, fmt.Errorf("block: index series %d: %w", i, err)
		}
		if m.Key.Quantity, buf, err = readString(buf); err != nil {
			return nil, fmt.Errorf("block: index series %d: %w", i, err)
		}
		ints := []*int64{&m.MinT, &m.MaxT}
		for _, p := range ints {
			v, n := binary.Varint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("block: truncated index series %d", i)
			}
			*p, buf = v, buf[n:]
		}
		c, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("block: truncated index series %d", i)
		}
		m.Count, buf = int64(c), buf[n:]
		if m.Min, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		if m.Max, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		if m.Sum, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		v, n := binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("block: truncated index series %d", i)
		}
		m.FirstT, buf = v, buf[n:]
		if m.FirstV, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		v, n = binary.Varint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("block: truncated index series %d", i)
		}
		m.LastT, buf = v, buf[n:]
		if m.LastV, buf, err = readF64(buf); err != nil {
			return nil, err
		}
		for _, p := range []*section{&m.raw, &m.r1m, &m.r1h} {
			off, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("block: truncated index series %d", i)
			}
			buf = buf[n:]
			ln, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("block: truncated index series %d", i)
			}
			buf = buf[n:]
			*p = section{off: int64(off), len: int64(ln)}
		}
		out = append(out, m)
	}
	return out, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, w := binary.Uvarint(buf)
	if w <= 0 || n > uint64(len(buf)-w) {
		return "", nil, fmt.Errorf("truncated string")
	}
	return string(buf[w : w+int(n)]), buf[w+int(n):], nil
}
