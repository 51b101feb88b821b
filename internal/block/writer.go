package block

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Suffix is the filename extension of block files inside a shard dir.
const Suffix = ".blk"

// Writer builds one block file. Series must be added in strictly
// ascending (Device, Quantity) order with their points sorted by
// ascending timestamp. The file is a wal.AtomicFile, so a crash
// mid-write never leaves a partial block under the final path.
type Writer struct {
	f    *wal.AtomicFile
	off  int64
	meta []SeriesMeta
	// buf is one frame's payload, reused from one frame to the next; a
	// raw chunk's bitstream is written straight into it.
	buf []byte
	err error
}

// NewWriter opens a block writer targeting the final path.
func NewWriter(path string) (*Writer, error) {
	f, err := wal.CreateAtomic(path)
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	w := &Writer{f: f}
	if err := w.write(append([]byte(blockMagic), blockVersion)); err != nil {
		w.Abort()
		return nil, fmt.Errorf("block: %w", err)
	}
	return w, nil
}

// Add appends one series with its raw points (ascending T) and derives
// its rollups and index aggregates.
func (w *Writer) Add(key Key, pts []Point) error {
	if w.err != nil {
		return w.err
	}
	if len(pts) == 0 {
		return nil
	}
	m := SeriesMeta{
		Key:    key,
		MinT:   pts[0].T,
		MaxT:   pts[len(pts)-1].T,
		Count:  int64(len(pts)),
		FirstT: pts[0].T, FirstV: pts[0].V,
		LastT: pts[len(pts)-1].T, LastV: pts[len(pts)-1].V,
	}
	m.Min, m.Max, m.Sum = pts[0].V, pts[0].V, 0
	for _, p := range pts {
		if p.V < m.Min {
			m.Min = p.V
		}
		if p.V > m.Max {
			m.Max = p.V
		}
		m.Sum += p.V
	}
	raw := appendChunk(w.buf[:0], pts)
	var err error
	if m.raw, err = w.writeFrame(raw); err != nil {
		return err
	}
	w.buf = raw[:0]
	return w.addRollups(m, buildRollup(pts, Res1m), buildRollup(pts, Res1h))
}

// AddRollups appends a series that keeps only its rollups — the
// demotion path when raw retention expires. meta's aggregates are
// preserved verbatim; its section offsets are recomputed.
func (w *Writer) AddRollups(meta SeriesMeta, r1m, r1h []Bucket) error {
	if w.err != nil {
		return w.err
	}
	meta.raw = section{}
	return w.addRollups(meta, r1m, r1h)
}

func (w *Writer) addRollups(m SeriesMeta, r1m, r1h []Bucket) error {
	if n := len(w.meta); n > 0 && !w.meta[n-1].Key.less(m.Key) {
		return w.fail(fmt.Errorf("block: series %v added out of order", m.Key))
	}
	var err error
	b := appendRollup(w.buf[:0], r1m, Res1m)
	if m.r1m, err = w.writeFrame(b); err != nil {
		return err
	}
	b = appendRollup(b[:0], r1h, Res1h)
	if m.r1h, err = w.writeFrame(b); err != nil {
		return err
	}
	w.buf = b[:0]
	w.meta = append(w.meta, m)
	return nil
}

func (w *Writer) writeFrame(payload []byte) (section, error) {
	s := section{off: w.off, len: int64(frameHdrLen + len(payload))}
	var h [frameHdrLen]byte
	if err := w.write(appendFrameHeader(h[:0], payload)); err != nil {
		return section{}, err
	}
	return s, w.write(payload)
}

// write appends p to the file, advancing the offset.
func (w *Writer) write(p []byte) error {
	if _, err := w.f.Write(p); err != nil {
		return w.fail(err)
	}
	w.off += int64(len(p))
	return nil
}

// Finish writes the index and footer and commits the file into place.
// It returns the series metas as written (for the caller to
// publish) and the final byte size.
func (w *Writer) Finish() ([]SeriesMeta, int64, error) {
	if w.err != nil {
		return nil, 0, w.err
	}
	if len(w.meta) == 0 {
		w.Abort()
		return nil, 0, fmt.Errorf("block: refusing to write empty block")
	}
	idx := appendIndex(w.buf[:0], w.meta)
	idxSec, err := w.writeFrame(idx)
	if err != nil {
		return nil, 0, err
	}
	var footer [footerLen]byte
	binary.LittleEndian.PutUint64(footer[0:8], uint64(idxSec.off))
	copy(footer[8:], blockMagic)
	if err := w.write(footer[:]); err != nil {
		return nil, 0, err
	}
	if err := w.f.Commit(); err != nil {
		w.err = fmt.Errorf("block: finish: %w", err)
		return nil, 0, w.err
	}
	w.err = errors.New("block: writer finished")
	return w.meta, w.off, nil
}

// Abort discards the writer and its temp file.
func (w *Writer) Abort() {
	w.f.Abort()
	if w.err == nil {
		w.err = errors.New("block: writer aborted")
	}
}

func (w *Writer) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}
