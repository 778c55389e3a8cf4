// Package cost implements the skipping cost model of Sec. 2.1: the
// per-block skip function S(P, q), the workload skipping capacity
// C(P) = Σ_i |P_i| Σ_q S(P_i, q) (Equation 1), the logical access-percentage
// metric reported in Table 2, and the true-selectivity lower bound.
package cost

import (
	"sort"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/table"
)

// Evaluator scores semantic descriptions against a fixed workload. It is
// the inner loop of both constructors (greedy criterion and RL reward).
type Evaluator struct {
	Queries []expr.Query
}

// SkippedQueries returns the number of workload queries that provably skip
// a block with description d (S(P,q)=1).
func (e *Evaluator) SkippedQueries(d core.Desc) int {
	k := 0
	for _, q := range e.Queries {
		if !d.QueryMayMatch(q) {
			k++
		}
	}
	return k
}

// BlockSkip returns C(P_i) for a block of the given size: size × number of
// queries that skip it (Equation 1).
func (e *Evaluator) BlockSkip(d core.Desc, size int) int64 {
	return int64(size) * int64(e.SkippedQueries(d))
}

// Layout is a materialized partitioning: a per-row block assignment plus a
// per-block semantic description usable for skipping. Both qd-tree layouts
// (frozen leaf descriptions) and baseline layouts (plain min-max / SMA
// descriptions) fit this shape, so Table 2 compares all approaches with the
// same metric code.
type Layout struct {
	Name      string
	NumRows   int
	BIDs      []int       // per-row block ID
	Counts    []int       // per-block row count
	Descs     []core.Desc // per-block tightened description
	Tree      *core.Tree  // non-nil for qd-tree layouts (enables query routing)
	ExtraSkip func(block int, q expr.Query) bool
	// ExtraSkip, when non-nil, may prove additional blocks skippable (used
	// by the Bottom-Up baseline's feature-bitmap skipping).

	// index is the columnar form of Descs and Counts that BlocksFor
	// evaluates (see blockIndex), so Descs must not change once the
	// layout is built; nil for a Layout assembled without NewLayout or
	// FromTree, or whose descriptions differ in shape.
	index *blockIndex
}

// BuildDescs computes min-max + categorical-mask (+ advanced-cut)
// descriptions for an arbitrary row→block assignment. This is the SMA /
// zone-map metadata every layout gets (Sec. 8, "Partition Pruning").
// Every value must be at most table.MaxValue: a block's interval ends one
// past its largest value.
func BuildDescs(tbl *table.Table, bids []int, numBlocks int, acs []expr.AdvCut) ([]core.Desc, []int) {
	counts := make([]int, numBlocks)
	descs := make([]core.Desc, numBlocks)
	for b := range descs {
		descs[b] = core.NewRootDesc(tbl.Schema, len(acs))
		// Start empty; widen with observed rows.
		for c := range descs[b].Lo {
			descs[b].Lo[c], descs[b].Hi[c] = 0, 0
		}
		for c := range descs[b].Masks {
			descs[b].Masks[c] = expr.NewBitset(descs[b].Masks[c].Len())
		}
		descs[b].AdvMay = expr.NewBitset(len(acs))
		descs[b].AdvMayNot = expr.NewBitset(len(acs))
	}
	first := make([]bool, numBlocks)
	ncols := tbl.Schema.NumCols()
	rowBuf := make([]int64, ncols)
	for r, b := range bids {
		counts[b]++
		d := &descs[b]
		if !first[b] {
			for c := 0; c < ncols; c++ {
				v := tbl.Cols[c][r]
				d.Lo[c], d.Hi[c] = v, v+1
			}
			first[b] = true
		} else {
			for c := 0; c < ncols; c++ {
				v := tbl.Cols[c][r]
				if v < d.Lo[c] {
					d.Lo[c] = v
				}
				if v+1 > d.Hi[c] {
					d.Hi[c] = v + 1
				}
			}
		}
		for c, m := range d.Masks {
			v := tbl.Cols[c][r]
			if v >= 0 && v < int64(m.Len()) {
				m.Set(int(v))
			}
		}
		if len(acs) > 0 {
			rowBuf = tbl.Row(r, rowBuf)
			for i, ac := range acs {
				if ac.Eval(rowBuf) {
					d.AdvMay.Set(i)
				} else {
					d.AdvMayNot.Set(i)
				}
			}
		}
	}
	return descs, counts
}

// NewLayout assembles a Layout from a row→block assignment, computing the
// per-block descriptions.
func NewLayout(name string, tbl *table.Table, bids []int, numBlocks int, acs []expr.AdvCut) *Layout {
	descs, counts := BuildDescs(tbl, bids, numBlocks, acs)
	return &Layout{Name: name, NumRows: tbl.N, BIDs: bids, Counts: counts, Descs: descs, index: newLayoutIndex(descs, counts)}
}

// FromTree routes the full table through a qd-tree, freezes the leaf
// descriptions (min-max tightening, Sec. 3.2), and returns the layout.
func FromTree(name string, t *core.Tree, tbl *table.Table) *Layout {
	bids := t.RouteTable(tbl)
	t.Freeze(tbl, bids)
	leaves := t.Leaves()
	descs := make([]core.Desc, len(leaves))
	counts := make([]int, len(leaves))
	for i, leaf := range leaves {
		descs[i] = leaf.Desc
		counts[i] = leaf.Count
	}
	return &Layout{Name: name, NumRows: tbl.N, BIDs: bids, Counts: counts, Descs: descs, Tree: t, index: newLayoutIndex(descs, counts)}
}

// NumBlocks returns the number of blocks in the layout.
func (l *Layout) NumBlocks() int { return len(l.Counts) }

// DisableDictionaryFiltering widens every block's categorical masks and
// advanced-cut bits to "anything possible", leaving only min-max interval
// (zone map) skipping. The deployed baselines of Sec. 7.3 maintain plain
// min-max metadata; the paper notes the commercial DBMS "lack[s]
// block-level indexes (dictionaries) for categorical fields".
func (l *Layout) DisableDictionaryFiltering() {
	for b := range l.Descs {
		d := &l.Descs[b]
		for c, m := range d.Masks {
			d.Masks[c] = expr.NewFullBitset(m.Len())
		}
		d.AdvMay = expr.NewFullBitset(d.AdvMay.Len())
		d.AdvMayNot = expr.NewFullBitset(d.AdvMayNot.Len())
	}
	l.index = newLayoutIndex(l.Descs, l.Counts)
}

// BlocksFor returns, in ascending order, the block IDs that must be
// scanned for query q: the non-empty blocks whose description intersects
// the query and that ExtraSkip (if any) cannot prove skippable. It
// evaluates q once over the layout's columnar index, 64 blocks at a
// time, and calls ExtraSkip only for the blocks that survive.
func (l *Layout) BlocksFor(q expr.Query) []int {
	out := l.blocksFor(q, false)
	if l.ExtraSkip != nil {
		kept := out[:0]
		for _, b := range out {
			if !l.ExtraSkip(b, q) {
				kept = append(kept, b)
			}
		}
		out = kept
	}
	return out
}

// MinMaxBlocksFor returns, in ascending order, the non-empty blocks whose
// description intervals q may match, exactly as MinMaxMayMatch decides
// block by block: BlocksFor with every categorical mask and advanced cut
// ignored and no ExtraSkip, the zone-map pruning of the paper's "no
// route" configuration (Sec. 7.5.1). It evaluates the same index as
// BlocksFor and shares its column arrays.
func (l *Layout) MinMaxBlocksFor(q expr.Query) []int {
	return l.blocksFor(q, true)
}

// blocksFor evaluates q over the layout's index, intervals only or in
// full; without an index it checks every non-empty block one by one.
func (l *Layout) blocksFor(q expr.Query, intervalsOnly bool) []int {
	ix := l.index
	if ix == nil {
		var out []int
		for b := range l.Descs {
			if l.Counts[b] == 0 {
				continue
			}
			d := &l.Descs[b]
			if intervalsOnly && MinMaxMayMatch(d.Lo, d.Hi, q) || !intervalsOnly && d.QueryMayMatch(q) {
				out = append(out, b)
			}
		}
		return out
	}
	e := ix.evaluator(intervalsOnly)
	match := e.push()
	if q.Root == nil {
		copy(match, ix.live)
	} else {
		e.node(q.Root, ix.live, match)
	}
	var out []int
	if n := popCount(match); n > 0 {
		out = appendBlocks(make([]int, 0, n), match)
	}
	e.release()
	return out
}

// NonEmptyBlocks returns how many blocks hold rows: the blocks BlocksFor
// chooses from, so every one of them it does not return was pruned.
func (l *Layout) NonEmptyBlocks() int {
	if l.index != nil {
		return l.index.count
	}
	n := 0
	for b := range l.Descs {
		if l.Counts[b] != 0 {
			n++
		}
	}
	return n
}

// AccessedTuples returns the number of tuples scanned for query q.
func (l *Layout) AccessedTuples(q expr.Query) int64 {
	var n int64
	for _, b := range l.BlocksFor(q) {
		n += int64(l.Counts[b])
	}
	return n
}

// PerQueryAccessed returns AccessedTuples for each query of the workload.
func (l *Layout) PerQueryAccessed(w []expr.Query) []int64 {
	out := make([]int64, len(w))
	for i, q := range w {
		out[i] = l.AccessedTuples(q)
	}
	return out
}

// AccessedFraction is the Table 2 metric: tuples accessed across the whole
// workload divided by |W|·|V| (1.0 = every query scans everything).
func (l *Layout) AccessedFraction(w []expr.Query) float64 {
	if len(w) == 0 || l.NumRows == 0 {
		return 0
	}
	var acc int64
	for _, q := range w {
		acc += l.AccessedTuples(q)
	}
	return float64(acc) / (float64(len(w)) * float64(l.NumRows))
}

// SkippedTuples returns C(P), the total tuples skipped across the workload
// (Equation 1 summed over blocks).
func (l *Layout) SkippedTuples(w []expr.Query) int64 {
	total := int64(l.NumRows) * int64(len(w))
	var acc int64
	for _, q := range w {
		acc += l.AccessedTuples(q)
	}
	return total - acc
}

// mayMatch evaluates SMA-only (zone map) pruning for query q against
// per-column value intervals supplied by interval(c) = (min, max), both
// inclusive. Categorical masks and advanced-cut bits are unavailable at
// this level (Sec. 7.5.1: the "no route" path lacks dictionaries), so
// KindAdv nodes are conservatively assumed to match.
func mayMatch(q expr.Query, interval func(c int) (lo, hi int64)) bool {
	if q.Root == nil {
		return true
	}
	var rec func(n *expr.Node) bool
	rec = func(n *expr.Node) bool {
		switch n.Kind {
		case expr.KindPred:
			p := n.Pred
			l, h := interval(p.Col) // inclusive [l, h]
			if l > h {
				return false
			}
			switch p.Op {
			case expr.Lt:
				return l < p.Literal
			case expr.Le:
				return l <= p.Literal
			case expr.Gt:
				return h > p.Literal
			case expr.Ge:
				return h >= p.Literal
			case expr.Eq:
				return p.Literal >= l && p.Literal <= h
			case expr.In:
				for _, v := range p.Set {
					if v >= l && v <= h {
						return true
					}
				}
				return false
			}
			return true
		case expr.KindAdv:
			return true // no advanced-cut metadata without routing
		case expr.KindAnd:
			for _, c := range n.Children {
				if !rec(c) {
					return false
				}
			}
			return true
		case expr.KindOr:
			for _, c := range n.Children {
				if rec(c) {
					return true
				}
			}
			return false
		}
		return true
	}
	return rec(q.Root)
}

// MinMaxMayMatch is SMA-only pruning over the Desc representation of
// per-column intervals: half-open [lo[c], hi[c]). An empty interval
// (lo >= hi) on a referenced column prunes the block.
func MinMaxMayMatch(lo, hi []int64, q expr.Query) bool {
	return mayMatch(q, func(c int) (int64, int64) { return inclusive(lo[c], hi[c]) })
}

// SMAMayMatch is SMA-only pruning over the blockstore catalog
// representation: inclusive [min[c], max[c]] per column.
func SMAMayMatch(min, max []int64, q expr.Query) bool {
	return mayMatch(q, func(c int) (int64, int64) { return min[c], max[c] })
}

// SMAFullyMatches reports whether the block's SMA metadata proves every
// row satisfies q — the dual of SMAMayMatch, used by the aggregate engine
// to serve COUNT/MIN/MAX of fully-selected blocks from zone maps without
// reading data. It is conservative: false means "not provable", never
// "no". Advanced-cut leaves are unprovable from per-column intervals. A
// nil root matches every row.
func SMAFullyMatches(min, max []int64, q expr.Query) bool {
	if q.Root == nil {
		return true
	}
	var rec func(n *expr.Node) bool
	rec = func(n *expr.Node) bool {
		switch n.Kind {
		case expr.KindPred:
			p := n.Pred
			lo, hi := min[p.Col], max[p.Col]
			switch p.Op {
			case expr.Lt:
				return hi < p.Literal
			case expr.Le:
				return hi <= p.Literal
			case expr.Gt:
				return lo > p.Literal
			case expr.Ge:
				return lo >= p.Literal
			case expr.Eq:
				return lo == p.Literal && hi == p.Literal
			case expr.In:
				// Every integer in [lo, hi] must be a set member. The set
				// is sorted and distinct, so it covers the interval iff lo
				// and hi both occur exactly hi-lo positions apart.
				span := uint64(hi) - uint64(lo) // lo <= hi always
				if span >= uint64(len(p.Set)) {
					return false
				}
				i := sort.Search(len(p.Set), func(k int) bool { return p.Set[k] >= lo })
				j := i + int(span)
				return i < len(p.Set) && p.Set[i] == lo && j < len(p.Set) && p.Set[j] == hi
			}
			return false
		case expr.KindAdv:
			return false // column-vs-column needs row values
		case expr.KindAnd:
			for _, c := range n.Children {
				if !rec(c) {
					return false
				}
			}
			return true
		case expr.KindOr:
			for _, c := range n.Children {
				if rec(c) {
					return true
				}
			}
			return false
		}
		return false
	}
	return rec(q.Root)
}

// SizeStats pairs the logical footprint of stored data (decoded, 8 bytes
// per value) with its encoded on-disk footprint. Block format v2 stores
// report these per store and per column; the engine profiles charge I/O
// ByteCost against encoded bytes while CPU RowCost stays a function of
// logical rows, so the compression ratio translates directly into scan
// speedup under the cost model.
type SizeStats struct {
	LogicalBytes int64
	EncodedBytes int64
}

// Add accumulates another stat into s.
func (s *SizeStats) Add(o SizeStats) {
	s.LogicalBytes += o.LogicalBytes
	s.EncodedBytes += o.EncodedBytes
}

// Ratio returns the compression ratio logical/encoded (1.0 = uncompressed,
// higher is better; 0 for an empty store).
func (s SizeStats) Ratio() float64 {
	if s.EncodedBytes == 0 {
		return 0
	}
	return float64(s.LogicalBytes) / float64(s.EncodedBytes)
}

// Selectivity returns the exact fraction of (query, row) matches — the
// lower bound on any layout's accessed fraction ("the true dataset
// selectivity ... itself a lower bound for the optimal solution", Sec. 5.2.4).
func Selectivity(tbl *table.Table, w []expr.Query, acs []expr.AdvCut) float64 {
	if tbl.N == 0 || len(w) == 0 {
		return 0
	}
	var matched int64
	row := make([]int64, tbl.Schema.NumCols())
	for r := 0; r < tbl.N; r++ {
		row = tbl.Row(r, row)
		for _, q := range w {
			if q.Eval(row, acs) {
				matched++
			}
		}
	}
	return float64(matched) / (float64(tbl.N) * float64(len(w)))
}

// PerQueryMatches returns, for each query, the exact number of matching
// rows (used for per-query selectivity lower bounds and result checks).
func PerQueryMatches(tbl *table.Table, w []expr.Query, acs []expr.AdvCut) []int64 {
	out := make([]int64, len(w))
	row := make([]int64, tbl.Schema.NumCols())
	for r := 0; r < tbl.N; r++ {
		row = tbl.Row(r, row)
		for i, q := range w {
			if q.Eval(row, acs) {
				out[i]++
			}
		}
	}
	return out
}
