package cost

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/core"
	"repro/internal/expr"
)

// blockIndex is a columnar index over a sequence of blocks that answers
// "which blocks may a query match" for all blocks at once, 64 blocks to
// a machine word. Block b is bit b&63 of word b>>6 in every bitmap.
//
// Per column it holds the blocks' inclusive value intervals as two
// arrays, padded to a whole number of words; an empty interval is
// stored as (MaxInt64, MinInt64), which no range test passes. A column's
// arrays are built from the source metadata when a query first tests it,
// so the index grows only by the columns queries use. Per categorical
// column with a mask it holds one block bitmap per dictionary value (the
// block masks transposed), and per advanced cut the bitmap of blocks
// whose AdvMay bit is set.
//
// An index built without masks or advanced cuts (numAdv 0) is the
// intervals-only (zone map) form: = and IN test the intervals, and
// every advanced cut matches, exactly as mayMatch.
type blockIndex struct {
	words int
	cols  []colBounds
	// interval returns block b's inclusive interval on column c; lo > hi
	// when it is empty.
	interval func(b, c int) (lo, hi int64)
	// masks[c] holds the value bitmaps of column c, value v at words
	// [v*words, (v+1)*words); nil for a column without a mask.
	masks [][]uint64
	// adv holds the advanced-cut bitmaps, cut i at words
	// [i*words, (i+1)*words); an advanced cut i >= numAdv always matches.
	adv    []uint64
	numAdv int
	// live holds the blocks a query is evaluated over: the non-empty
	// blocks of a layout, every block of a store. count is its size.
	live  []uint64
	count int
}

// colBounds holds one column's interval arrays, built once on first use.
type colBounds struct {
	once   sync.Once
	lo, hi []int64
}

func newBlockIndex(blocks, ncols int, interval func(b, c int) (lo, hi int64)) *blockIndex {
	words := (blocks + 63) / 64
	return &blockIndex{words: words, cols: make([]colBounds, ncols), interval: interval, masks: make([][]uint64, ncols), live: make([]uint64, words)}
}

// bounds returns column c's interval arrays, building them on first use.
// Blocks outside live keep zero bounds: every test is masked by live.
func (ix *blockIndex) bounds(c int) (lo, hi []int64) {
	col := &ix.cols[c]
	col.once.Do(func() {
		col.lo, col.hi = make([]int64, ix.words*64), make([]int64, ix.words*64)
		for w, lv := range ix.live {
			for ; lv != 0; lv &= lv - 1 {
				b := w*64 + bits.TrailingZeros64(lv)
				l, h := ix.interval(b, c)
				if l > h {
					l, h = math.MaxInt64, math.MinInt64
				}
				col.lo[b], col.hi[b] = l, h
			}
		}
	})
	return col.lo, col.hi
}

// setBits ORs block b into the bitmap at bm[i*words:] for every set bit i
// of words.
func setBits(bm []uint64, nwords int, words []uint64, b int) {
	for wi, w := range words {
		for w != 0 {
			i := wi*64 + bits.TrailingZeros64(w)
			w &= w - 1
			bm[i*nwords+b>>6] |= 1 << (b & 63)
		}
	}
}

// newLayoutIndex indexes a layout's block descriptions. It returns nil,
// and BlocksFor checks every block, when there are no blocks or the
// descriptions differ in shape (column count, mask columns and widths,
// advanced-cut vector lengths).
func newLayoutIndex(descs []core.Desc, counts []int) *blockIndex {
	if len(descs) == 0 || !sameShape(descs) {
		return nil
	}
	first := &descs[0]
	ix := newBlockIndex(len(descs), len(first.Lo), func(b, c int) (int64, int64) {
		// [Lo, Hi) is non-empty only when Hi > Lo >= MinInt64, so Hi-1
		// cannot overflow.
		if l, h := descs[b].Lo[c], descs[b].Hi[c]; l < h {
			return l, h - 1
		}
		return 1, 0
	})
	for c, m := range first.Masks {
		ix.masks[c] = make([]uint64, m.Len()*ix.words)
	}
	ix.numAdv = first.AdvMay.Len()
	ix.adv = make([]uint64, ix.numAdv*ix.words)
	for b := range descs {
		d := &descs[b]
		for c, m := range d.Masks {
			setBits(ix.masks[c], ix.words, m.Words(), b)
		}
		setBits(ix.adv, ix.words, d.AdvMay.Words(), b)
		if counts[b] != 0 {
			ix.live[b>>6] |= 1 << (b & 63)
			ix.count++
		}
	}
	return ix
}

// sameShape reports whether every description has the first one's
// column count, mask columns and widths, and advanced-cut vector length.
func sameShape(descs []core.Desc) bool {
	first := &descs[0]
	for i := range descs {
		d := &descs[i]
		if len(d.Lo) != len(first.Lo) || len(d.Hi) != len(first.Lo) || len(d.Masks) != len(first.Masks) ||
			d.AdvMay == nil || d.AdvMay.Len() != first.AdvMay.Len() {
			return false
		}
		for c, m := range first.Masks {
			if dm, ok := d.Masks[c]; !ok || dm.Len() != m.Len() {
				return false
			}
		}
	}
	return true
}

// evaluator is the scratch of one index evaluation: a stack of word
// frames, reused across evaluations through evalFree.
type evaluator struct {
	ix     *blockIndex
	frames [][]uint64
	depth  int
}

// evalFree pools idle evaluators. It is a buffered channel rather than a
// sync.Pool, which drops items at random under the race detector and
// would make an evaluation's allocations vary from run to run. Each
// in-flight prune holds one evaluator, and 64 exceeds the statements a
// server runs at once; an evaluator released into a full pool is left to
// the garbage collector.
var evalFree = make(chan *evaluator, 64)

func (ix *blockIndex) evaluator() *evaluator {
	var e *evaluator
	select {
	case e = <-evalFree:
	default:
		e = new(evaluator)
	}
	e.ix, e.depth = ix, 0
	return e
}

func (e *evaluator) release() {
	e.ix = nil
	select {
	case evalFree <- e:
	default:
	}
}

// push returns a fresh frame of the index's word count; its contents are
// undefined.
func (e *evaluator) push() []uint64 {
	n := e.ix.words
	if e.depth == len(e.frames) {
		e.frames = append(e.frames, make([]uint64, n))
	} else if cap(e.frames[e.depth]) < n {
		e.frames[e.depth] = make([]uint64, n)
	}
	f := e.frames[e.depth][:n]
	e.depth++
	return f
}

func (e *evaluator) pop() { e.depth-- }

// node sets out to the blocks of live that n may match. It evaluates an
// AND's next child only over the words still live and an OR's next
// child only over the words not yet all true, and stops as soon as no
// word is left.
func (e *evaluator) node(n *expr.Node, live, out []uint64) {
	switch n.Kind {
	case expr.KindPred:
		e.pred(&n.Pred, live, out)
	case expr.KindAdv:
		ix := e.ix
		if n.Adv >= ix.numAdv {
			copy(out, live)
			return
		}
		bm := ix.adv[n.Adv*ix.words:]
		for w, lv := range live {
			out[w] = lv & bm[w]
		}
	case expr.KindAnd:
		copy(out, live)
		tmp := e.push()
		for _, c := range n.Children {
			e.node(c, out, tmp)
			if !copyAny(out, tmp) {
				break
			}
		}
		e.pop()
	case expr.KindOr:
		clear(out)
		rest, tmp := e.push(), e.push()
		copy(rest, live)
		for _, c := range n.Children {
			e.node(c, rest, tmp)
			left := false
			for w, t := range tmp {
				out[w] |= t
				rest[w] &^= t
				left = left || rest[w] != 0
			}
			if !left {
				break
			}
		}
		e.pop()
		e.pop()
	default:
		copy(out, live)
	}
}

// copyAny copies src into dst and reports whether any bit is set.
func copyAny(dst, src []uint64) bool {
	var any uint64
	for w, s := range src {
		dst[w] = s
		any |= s
	}
	return any != 0
}

// pred sets out to the blocks of live that p may match: = and IN on a
// masked column OR the value bitmaps; every other test is one pass over
// the column's interval arrays. Literals at the ends of int64 are
// rewritten so that no bound is ever incremented past them.
func (e *evaluator) pred(p *expr.Pred, live, out []uint64) {
	ix := e.ix
	c := p.Col
	if vals := ix.masks[c]; vals != nil && (p.Op == expr.Eq || p.Op == expr.In) {
		clear(out)
		if p.Op == expr.Eq {
			orValue(vals, ix.words, p.Literal, live, out)
		} else {
			for _, v := range p.Set {
				orValue(vals, ix.words, v, live, out)
			}
		}
		return
	}
	lo, hi := ix.bounds(c)
	lit := p.Literal
	switch p.Op {
	case expr.Lt:
		below(lo, lit, live, out)
	case expr.Le:
		if lit == math.MaxInt64 {
			nonEmpty(lo, hi, live, out)
		} else {
			below(lo, lit+1, live, out)
		}
	case expr.Gt:
		if lit == math.MaxInt64 {
			clear(out)
		} else {
			atLeast(hi, lit+1, live, out)
		}
	case expr.Ge:
		if lit == math.MinInt64 {
			nonEmpty(lo, hi, live, out)
		} else {
			atLeast(hi, lit, live, out)
		}
	case expr.Eq:
		contains(lo, hi, lit, live, out)
	case expr.In:
		containsAny(lo, hi, p.Set, live, out)
	default:
		nonEmpty(lo, hi, live, out)
	}
}

// orValue ORs into out the blocks of live whose mask holds value v.
func orValue(vals []uint64, words int, v int64, live, out []uint64) {
	if v < 0 || v >= int64(len(vals)/words) {
		return
	}
	bm := vals[int(v)*words:]
	for w, lv := range live {
		out[w] |= lv & bm[w]
	}
}

// The interval kernels below set out[w] to the blocks of live[w] whose
// interval passes the test, and skip every word with no live block.

// below tests lo < x.
func below(lo []int64, x int64, live, out []uint64) {
	for w, lv := range live {
		var m uint64
		if lv != 0 {
			for j, v := range (*[64]int64)(lo[w*64:]) {
				if v < x {
					m |= 1 << j
				}
			}
		}
		out[w] = m & lv
	}
}

// atLeast tests hi >= x.
func atLeast(hi []int64, x int64, live, out []uint64) {
	for w, lv := range live {
		var m uint64
		if lv != 0 {
			for j, v := range (*[64]int64)(hi[w*64:]) {
				if v >= x {
					m |= 1 << j
				}
			}
		}
		out[w] = m & lv
	}
}

// contains tests lo <= x <= hi.
func contains(lo, hi []int64, x int64, live, out []uint64) {
	for w, lv := range live {
		var m uint64
		if lv != 0 {
			l, h := (*[64]int64)(lo[w*64:]), (*[64]int64)(hi[w*64:])
			for j := range l {
				if l[j] <= x && x <= h[j] {
					m |= 1 << j
				}
			}
		}
		out[w] = m & lv
	}
}

// containsAny tests whether some value of the sorted set lies in
// [lo, hi].
func containsAny(lo, hi []int64, set []int64, live, out []uint64) {
	for w, lv := range live {
		var m uint64
		for rest := lv; rest != 0; rest &= rest - 1 {
			j := bits.TrailingZeros64(rest)
			l, h := lo[w*64+j], hi[w*64+j]
			for _, v := range set {
				if v > h {
					break
				}
				if v >= l {
					m |= 1 << j
					break
				}
			}
		}
		out[w] = m
	}
}

// nonEmpty tests lo <= hi.
func nonEmpty(lo, hi []int64, live, out []uint64) {
	for w, lv := range live {
		var m uint64
		if lv != 0 {
			l, h := (*[64]int64)(lo[w*64:]), (*[64]int64)(hi[w*64:])
			for j := range l {
				if l[j] <= h[j] {
					m |= 1 << j
				}
			}
		}
		out[w] = m & lv
	}
}

// appendBlocks appends to dst, in ascending order, the blocks set in bm.
func appendBlocks(dst []int, bm []uint64) []int {
	for w, m := range bm {
		for ; m != 0; m &= m - 1 {
			dst = append(dst, w*64+bits.TrailingZeros64(m))
		}
	}
	return dst
}

func popCount(bm []uint64) int {
	n := 0
	for _, m := range bm {
		n += bits.OnesCount64(m)
	}
	return n
}

// ZoneIndex is the intervals-only block index over a block store's
// catalog zone maps (inclusive per-column [Min, Max]). It prunes exactly
// as SMAMayMatch does block by block: categorical masks and advanced-cut
// bits are not available at this level, so = and IN test the intervals
// and advanced cuts always match. A block without zone maps always
// matches.
type ZoneIndex struct {
	ix *blockIndex
	// noZone holds the blocks without zone maps.
	noZone []uint64
}

// NewZoneIndex indexes the zone maps of a store's blocks: zone(b)
// returns block b's inclusive per-column minima and maxima, or empty
// slices when the block has none.
func NewZoneIndex(blocks, ncols int, zone func(b int) (min, max []int64)) *ZoneIndex {
	ix := newBlockIndex(blocks, ncols, func(b, c int) (int64, int64) {
		if mins, maxs := zone(b); len(mins) == ncols && len(maxs) == ncols {
			return mins[c], maxs[c]
		}
		return 1, 0 // no zone maps: noZone keeps the block
	})
	z := &ZoneIndex{ix: ix, noZone: make([]uint64, ix.words)}
	for b := range blocks {
		ix.live[b>>6] |= 1 << (b & 63)
		if mins, maxs := zone(b); len(mins) != ncols || len(maxs) != ncols {
			z.noZone[b>>6] |= 1 << (b & 63)
		}
	}
	ix.count = blocks
	return z
}

// Prune keeps, in their order, the blocks of the list whose zone maps q
// may match, calling pruned (when non-nil) for every other one in that
// order. It filters blocks in place and returns the kept prefix.
// Every block must be below the index's block count.
func (z *ZoneIndex) Prune(q expr.Query, blocks []int, pruned func(b int)) []int {
	if q.Root == nil || len(blocks) == 0 {
		return blocks
	}
	e := z.ix.evaluator()
	live, match := e.push(), e.push()
	clear(live)
	for _, b := range blocks {
		live[b>>6] |= 1 << (b & 63)
	}
	e.node(q.Root, live, match)
	out := blocks[:0]
	for _, b := range blocks {
		bit := uint64(1) << (b & 63)
		if (match[b>>6]|z.noZone[b>>6])&bit != 0 {
			out = append(out, b)
		} else if pruned != nil {
			pruned(b)
		}
	}
	e.release()
	return out
}
