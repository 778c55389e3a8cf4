package blockstore

// Arena is a per-worker scratch reservoir for the scan hot path. Column
// payloads are parsed in place from the block's mapping, but each read
// still needs a ColVec per wanted column, RLE run slices, and sometimes a
// copy of the file's tail (see ReadColVecsArena). An arena owns all of
// that storage and hands it back out on every read, so a steady-state
// scan allocates nothing per block.
//
// Contract: an Arena is single-owner (one scan worker); the vecs
// returned by Store.ReadColVecsArena — and everything they reference —
// are valid only until the same arena's next ReadColVecsArena call, and
// only until the store's Close.
// Plain-converted delta vectors are likewise valid until ResetPlain.
// Arenas come from a process-wide sync.Pool (GetArena/PutArena) so
// concurrent queries reuse warmed buffers; ArenaPoolStats feeds the
// qd_arena_pool_* metrics.

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// colScratch is the reusable per-column storage of one arena.
type colScratch struct {
	dec     []int64 // BatchSize decode buffer (advanced cuts, projection, grouping)
	runVals []int64 // RLE run scratch, grown to the widest run count seen
	runEnds []int32
}

// Arena holds reusable scan scratch. The zero value is ready to use.
type Arena struct {
	payload   []byte // copy of a block file's tail whose packed columns need packSlack
	vecs      []ColVec
	ptrs      []*ColVec
	want      []bool
	cols      []colScratch
	decodedAt []int

	// Delta-conversion space (Plain/ResetPlain).
	plainBuf  []byte
	plainOff  int
	plainVecs []ColVec
	plainN    int
}

var (
	arenaPool   = sync.Pool{New: func() any { arenaMisses.Add(1); return new(Arena) }}
	arenaGets   atomic.Uint64
	arenaMisses atomic.Uint64
)

// GetArena returns a pooled arena, allocating a fresh one on pool miss.
func GetArena() *Arena {
	arenaGets.Add(1)
	return arenaPool.Get().(*Arena)
}

// PutArena returns an arena to the pool. The caller must hold no
// references into it afterwards.
func PutArena(a *Arena) {
	if a != nil {
		arenaPool.Put(a)
	}
}

// ArenaPoolStats reports cumulative arena pool gets and misses (a miss
// allocated a fresh arena). gets-misses is the number of reuses.
func ArenaPoolStats() (gets, misses uint64) {
	return arenaGets.Load(), arenaMisses.Load()
}

// grow sizes the per-column structures for an ncols-wide schema,
// keeping existing scratch when already wide enough.
func (a *Arena) grow(ncols int) {
	if len(a.vecs) >= ncols {
		return
	}
	a.vecs = make([]ColVec, ncols)
	a.ptrs = make([]*ColVec, ncols)
	a.want = make([]bool, ncols)
	cols := make([]colScratch, ncols)
	copy(cols, a.cols) // keep already-grown decode/run buffers
	a.cols = cols
	a.decodedAt = make([]int, ncols)
}

// buffer returns the tail buffer sized to n+packSlack bytes.
func (a *Arena) buffer(n int64) []byte {
	need := int(n) + packSlack
	if cap(a.payload) < need {
		a.payload = make([]byte, need)
	}
	return a.payload[:need]
}

// wantCols expands a column selection (nil = all) into a per-column flag
// slice backed by arena storage, validating indices.
func (a *Arena) wantCols(cols []int, ncols int) ([]bool, error) {
	a.grow(ncols)
	want := a.want[:ncols]
	if cols == nil {
		for i := range want {
			want[i] = true
		}
		return want, nil
	}
	for i := range want {
		want[i] = false
	}
	for _, c := range cols {
		if c < 0 || c >= ncols {
			return nil, errColRange(c)
		}
		want[c] = true
	}
	return want, nil
}

// DecodeBuf returns the reusable BatchSize decode buffer for column c.
// The arena must already be grown past c (any ReadColVecsArena or
// DecodedAt call does that).
func (a *Arena) DecodeBuf(c int) []int64 {
	cs := &a.cols[c]
	if cs.dec == nil {
		cs.dec = make([]int64, BatchSize)
	}
	return cs.dec
}

// DecodedAt returns the per-column batch-start memo, reset to -1 — the
// late-materialization bookkeeping projection and grouping loops share.
func (a *Arena) DecodedAt(ncols int) []int {
	a.grow(ncols)
	d := a.decodedAt[:ncols]
	for i := range d {
		d[i] = -1
	}
	return d
}

// ResetPlain recycles the delta-conversion space. Vectors from earlier
// Plain calls on this arena become invalid.
func (a *Arena) ResetPlain() {
	a.plainOff, a.plainN = 0, 0
}

// Plain converts vals into a PLAIN column vector backed by arena
// scratch, so the vectorized filter and aggregate kernels scan delta
// rows that were never encoded to disk through the same code path as
// base blocks. The vector is valid until ResetPlain.
func (a *Arena) Plain(vals []int64) *ColVec {
	need := 8 * len(vals)
	if a.plainOff+need > len(a.plainBuf) {
		// Grow without copying: vectors already carved keep the old
		// backing array alive and intact.
		size := 2*len(a.plainBuf) + need
		a.plainBuf = make([]byte, size)
		a.plainOff = 0
	}
	raw := a.plainBuf[a.plainOff : a.plainOff+need : a.plainOff+need]
	a.plainOff += need
	for i, v := range vals {
		binary.LittleEndian.PutUint64(raw[8*i:], uint64(v))
	}
	if a.plainN == len(a.plainVecs) {
		a.plainVecs = append(a.plainVecs, ColVec{})
	}
	v := &a.plainVecs[a.plainN]
	a.plainN++
	*v = ColVec{Enc: EncPlain, N: len(vals), raw: raw}
	return v
}
