package block

import (
	"sort"
	"unsafe"
)

// Restart tables. Every point of a chunk is coded against the one before
// it, so the chunk itself has no place a decode can start but its first
// sample. A restart table — the LevelDB/RocksDB block restart points,
// kept in memory instead of in the file — records the decoder state
// just before every restartEvery-th point. A read that starts at `from`
// resumes at the last restart before it and decodes at most
// restartEvery points it then drops, wherever `from` falls in the chunk.
//
// The table is built by one full decode, the first time a read of the
// series skips ahead, and lives as long as the block's mapping. The file
// format does not change.

// restartEvery is the point spacing of a restart table.
const restartEvery = 128

// restart is the chunkIter state just before point k·restartEvery. A
// bitReader reads the same bits from the same offset whatever its
// refill word holds, so the offset stands in for the reader's state.
type restart struct {
	t, delta         int64  // T of point k·restartEvery-1, and the delta that led to it
	v                uint64 // value bits of point k·restartEvery-1
	bit              uint64 // offset into the chunk's bitstream
	leading, sigbits uint8
	haveWin          bool
}

// restartSize is the heap one table entry holds.
const restartSize = int64(unsafe.Sizeof(restart{}))

// restartTable holds, at index k, the restart before point
// (k+1)·restartEvery; timestamps ascend with k.
type restartTable []restart

// buildRestarts decodes the whole chunk in payload once, noting the
// decoder state at every restart.
func buildRestarts(payload []byte) (restartTable, error) {
	var it chunkIter
	if err := it.reset(payload); err != nil {
		return nil, err
	}
	tab := make(restartTable, 0, max(it.n-1, 0)/restartEvery)
	for i := 1; it.Next(); i++ {
		if i%restartEvery == 0 && it.n > 0 {
			tab = append(tab, restart{
				t: it.t, delta: it.delta, v: it.v,
				bit:     it.r.offset(it.bits),
				leading: uint8(it.leading), sigbits: uint8(it.sigbits),
				haveWin: it.haveWin,
			})
		}
	}
	return tab, it.Err()
}

// seek moves a fresh iterator to the last restart whose previous point
// lies before mint. Every point it skips has T at or before that
// point's, so before mint: the skip drops nothing a read from mint
// wants, duplicate timestamps included.
func (it *chunkIter) seek(tab restartTable, mint int64) {
	k := sort.Search(len(tab), func(k int) bool { return tab[k].t >= mint })
	if k == 0 {
		return
	}
	rs := tab[k-1]
	it.r.seek(it.bits, rs.bit)
	it.n -= k * restartEvery
	it.first = false
	it.t, it.delta, it.v = rs.t, rs.delta, rs.v
	it.leading, it.sigbits, it.haveWin = uint(rs.leading), uint(rs.sigbits), rs.haveWin
}
