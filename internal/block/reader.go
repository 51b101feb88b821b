package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
)

// ErrNoSeries is returned when a block does not contain the requested
// series.
var ErrNoSeries = errors.New("block: series not in block")

// ErrRawDemoted is returned by Points when raw retention has stripped
// the series down to rollups only.
var ErrRawDemoted = errors.New("block: raw chunk demoted, rollups only")

// Block is an open, immutable block file. The byte range is mmap-ed
// where the platform supports it (so cold data lives in the page cache,
// not the Go heap) with a plain read fallback elsewhere.
//
// Blocks are reference counted: Open returns a block with one
// reference; every reader that captures it across a lock boundary must
// Retain it and Release when done. The mapping is torn down when the
// count reaches zero, so an unlinked block file stays readable for
// in-flight queries.
type Block struct {
	path   string
	data   []byte
	mapped bool
	size   int64
	minT   int64
	maxT   int64
	series []SeriesMeta // ascending (Device, Quantity)
	// restarts[i] is series[i]'s restart table, nil until a read skips
	// ahead in its chunk. Racing first readers may each build one; any
	// copy is valid, and the last stored wins.
	restarts []atomic.Pointer[restartTable]
	// hours[i] is series[i]'s decoded 1h rollup, nil until a read asks
	// for it; racing first readers may each decode one, as above.
	hours []atomic.Pointer[[]Bucket]
	refs  atomic.Int64
}

// Open maps the block at path and parses its index.
func Open(path string) (*Block, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		err = errors.Join(err, f.Close())
		return nil, fmt.Errorf("block: %w", err)
	}
	size := st.Size()
	if size < int64(len(blockMagic))+1+frameHdrLen+footerLen {
		err = fmt.Errorf("block: %s: file too small (%d bytes)", path, size)
		if cerr := f.Close(); cerr != nil {
			err = errors.Join(err, cerr)
		}
		return nil, err
	}
	data, mapped, err := mapFile(f, size)
	// The fd is only needed for the mapping/read; the mapping (or the
	// copied buffer) survives the close.
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("block: %s: %w", path, err)
	}
	b := &Block{path: path, data: data, mapped: mapped, size: size}
	b.refs.Store(1)
	if err := b.parse(); err != nil {
		// Parse failure: drop the mapping before reporting.
		if rerr := b.unref(); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return nil, err
	}
	return b, nil
}

func (b *Block) parse() error {
	d := b.data
	if string(d[:len(blockMagic)]) != blockMagic || d[len(blockMagic)] != blockVersion {
		return fmt.Errorf("block: %s: bad header magic/version", b.path)
	}
	foot := d[len(d)-footerLen:]
	if string(foot[8:]) != blockMagic {
		return fmt.Errorf("block: %s: bad footer magic (torn write?)", b.path)
	}
	idxOff := int64(binary.LittleEndian.Uint64(foot[0:8]))
	idxSec := section{off: idxOff, len: b.size - footerLen - idxOff}
	payload, err := frameAt(d, idxSec)
	if err != nil {
		return fmt.Errorf("block: %s: index: %w", b.path, err)
	}
	series, err := decodeIndex(payload)
	if err != nil {
		return fmt.Errorf("block: %s: %w", b.path, err)
	}
	if len(series) == 0 {
		return fmt.Errorf("block: %s: empty index", b.path)
	}
	b.series = series
	b.restarts = make([]atomic.Pointer[restartTable], len(series))
	b.hours = make([]atomic.Pointer[[]Bucket], len(series))
	b.minT, b.maxT = series[0].MinT, series[0].MaxT
	for _, m := range series[1:] {
		if m.MinT < b.minT {
			b.minT = m.MinT
		}
		if m.MaxT > b.maxT {
			b.maxT = m.MaxT
		}
	}
	return nil
}

// Path returns the file path the block was opened from.
func (b *Block) Path() string { return b.path }

// Size returns the block file size in bytes.
func (b *Block) Size() int64 { return b.size }

// MinT and MaxT bound every sample timestamp in the block (Unix nanos).
func (b *Block) MinT() int64 { return b.minT }
func (b *Block) MaxT() int64 { return b.maxT }

// Series returns the index entries in ascending key order. The slice is
// shared; callers must not mutate it.
func (b *Block) Series() []SeriesMeta { return b.series }

// NumSamples returns the total raw sample count the block covers
// (including demoted series, whose counts live on in the index).
func (b *Block) NumSamples() int64 {
	var n int64
	for _, m := range b.series {
		n += m.Count
	}
	return n
}

// Meta returns the index entry for key.
func (b *Block) Meta(key Key) (SeriesMeta, bool) {
	if i := b.find(key); i >= 0 {
		return b.series[i], true
	}
	return SeriesMeta{}, false
}

// find returns key's position in the index, or -1.
func (b *Block) find(key Key) int {
	i := sort.Search(len(b.series), func(i int) bool {
		return !b.series[i].Key.less(key)
	})
	if i < len(b.series) && b.series[i].Key == key {
		return i
	}
	return -1
}

// Points decodes the raw samples of key with mint <= T <= maxt
// (inclusive bounds, matching the tsdb query contract), appending to
// dst.
func (b *Block) Points(dst []Point, key Key, mint, maxt int64) ([]Point, error) {
	it, err := b.Iter(key, mint, maxt)
	if err != nil {
		return dst, err
	}
	for it.Next() {
		dst = append(dst, it.At())
	}
	return dst, it.Err()
}

// SeriesIter walks the raw points of one series with T in [mint, maxt]
// in time order, decoding the chunk once from the last restart point
// before mint (see restart.go): the frame's CRC is checked once, when
// the walk starts. It is a value a reader holds in place; the zero
// SeriesIter yields nothing and reports no error.
type SeriesIter struct {
	it         chunkIter
	mint, maxt int64
	b          *Block
	i          int // the series' index entry
}

// Iter starts a walk over the raw points of key with mint <= T <= maxt.
// The block must stay open (retained) while the walk runs.
func (b *Block) Iter(key Key, mint, maxt int64) (SeriesIter, error) {
	i := b.find(key)
	if i < 0 {
		return SeriesIter{}, ErrNoSeries
	}
	m := b.series[i]
	if !m.HasRaw() {
		return SeriesIter{}, ErrRawDemoted
	}
	si := SeriesIter{mint: mint, maxt: maxt, b: b, i: i}
	if maxt < m.MinT || mint > m.MaxT {
		return si, nil // the zero chunk iterator yields nothing
	}
	if err := b.chunkFrom(&si.it, i, mint); err != nil {
		return SeriesIter{}, b.seriesErr(i, err)
	}
	return si, nil
}

// Next moves to the next point in range, or reports false (see Err).
func (si *SeriesIter) Next() bool {
	for si.it.Next() {
		if t := si.it.cur.T; t >= si.mint {
			return t <= si.maxt
		}
	}
	return false
}

// At returns the point Next moved to.
func (si *SeriesIter) At() Point { return si.it.cur }

// Err returns the decode error that stopped the walk, if any.
func (si *SeriesIter) Err() error { return si.b.seriesErr(si.i, si.it.err) }

func (b *Block) seriesErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("block: %s: series %v: %w", b.path, b.series[i].Key, err)
}

// chunkFrom sets it to decode series i's raw chunk, resumed at the last
// restart before mint. A read from the series' first point needs no
// table, and a chunk of a few restarts is cheaper to decode than to
// index, so neither builds one.
func (b *Block) chunkFrom(it *chunkIter, i int, mint int64) error {
	m := b.series[i]
	payload, err := frameAt(b.data, m.raw)
	if err != nil {
		return err
	}
	if err := it.reset(payload); err != nil || mint <= m.MinT || m.Count <= 2*restartEvery {
		return err
	}
	tab := b.restarts[i].Load()
	if tab == nil {
		built, err := buildRestarts(payload)
		if err != nil {
			return err
		}
		tab = &built
		b.restarts[i].Store(tab)
	}
	it.seek(*tab, mint)
	return nil
}

// RestartBytes is the heap the block's restart tables hold: one entry
// (40 bytes on 64-bit platforms) per 128 points of each series a read
// has skipped ahead in.
func (b *Block) RestartBytes() int64 {
	var n int64
	for i := range b.restarts {
		if tab := b.restarts[i].Load(); tab != nil {
			n += int64(len(*tab)) * restartSize
		}
	}
	return n
}

// HourRollup returns the 1h rollup buckets of key, decoded (and CRC
// checked) on the first call and shared by every later one until the
// block's mapping is torn down. The slice is shared; callers must not
// mutate it.
func (b *Block) HourRollup(key Key) ([]Bucket, error) {
	i := b.find(key)
	if i < 0 {
		return nil, ErrNoSeries
	}
	if bks := b.hours[i].Load(); bks != nil {
		return *bks, nil
	}
	bks, err := b.rollupOf(nil, b.series[i], Res1h)
	if err != nil {
		return nil, err
	}
	b.hours[i].Store(&bks)
	return bks, nil
}

// RollupBytes is the heap the block's cached 1h rollups hold: one
// Bucket (72 bytes on 64-bit platforms) per hour of each series a read
// has asked HourRollup for.
func (b *Block) RollupBytes() int64 {
	var n int64
	for i := range b.hours {
		if bks := b.hours[i].Load(); bks != nil {
			n += int64(cap(*bks)) * bucketSize
		}
	}
	return n
}

// Rollup returns the precomputed buckets of key at res (Res1m or
// Res1h).
func (b *Block) Rollup(key Key, res int64) ([]Bucket, error) {
	return b.AppendRollup(nil, key, res)
}

// AppendRollup is Rollup appending to dst, so a read that only folds
// the buckets can decode series after series into one scratch slice.
func (b *Block) AppendRollup(dst []Bucket, key Key, res int64) ([]Bucket, error) {
	m, ok := b.Meta(key)
	if !ok {
		return nil, ErrNoSeries
	}
	return b.rollupOf(dst, m, res)
}

// rollupOf appends m's rollup buckets at res to dst.
func (b *Block) rollupOf(dst []Bucket, m SeriesMeta, res int64) ([]Bucket, error) {
	var s section
	switch res {
	case Res1m:
		s = m.r1m
	case Res1h:
		s = m.r1h
	default:
		return nil, fmt.Errorf("block: unsupported rollup resolution %d", res)
	}
	payload, err := frameAt(b.data, s)
	if err != nil {
		return nil, fmt.Errorf("block: %s: series %v rollup: %w", b.path, m.Key, err)
	}
	bks, err := decodeRollup(dst, payload, res)
	if err != nil {
		return nil, fmt.Errorf("block: %s: series %v rollup: %w", b.path, m.Key, err)
	}
	return bks, nil
}

// Verify CRC-checks every frame in the block (raw chunks, rollups,
// index) and re-decodes each chunk, returning the first corruption
// found.
func (b *Block) Verify() error {
	for _, m := range b.series {
		if m.HasRaw() {
			payload, err := frameAt(b.data, m.raw)
			if err != nil {
				return err
			}
			var it chunkIter
			if err := it.reset(payload); err != nil {
				return err
			}
			n := 0
			for it.Next() {
				n++
			}
			if err := it.Err(); err != nil {
				return fmt.Errorf("block: %s: series %v: %w", b.path, m.Key, err)
			}
			if int64(n) != m.Count {
				return fmt.Errorf("block: %s: series %v: chunk has %d points, index says %d", b.path, m.Key, n, m.Count)
			}
		}
		for _, rs := range []struct {
			s   section
			res int64
		}{{m.r1m, Res1m}, {m.r1h, Res1h}} {
			payload, err := frameAt(b.data, rs.s)
			if err != nil {
				return err
			}
			if _, err := decodeRollup(nil, payload, rs.res); err != nil {
				return fmt.Errorf("block: %s: series %v: %w", b.path, m.Key, err)
			}
		}
	}
	return nil
}

// Retain adds a reference. Callers pairing Retain with Release may
// outlive the block's removal from its owning set; the mapping stays
// valid until the last Release.
func (b *Block) Retain() { b.refs.Add(1) }

// Release drops a reference, tearing down the mapping at zero.
func (b *Block) Release() error {
	if n := b.refs.Add(-1); n > 0 {
		return nil
	} else if n < 0 {
		return fmt.Errorf("block: %s: release without retain", b.path)
	}
	return b.unref()
}

// Close is Release under the conventional name, for the opener's own
// reference.
func (b *Block) Close() error { return b.Release() }

func (b *Block) unref() error {
	data := b.data
	b.data = nil
	b.series = nil
	b.restarts = nil
	b.hours = nil
	if b.mapped && data != nil {
		return unmapFile(data)
	}
	return nil
}
