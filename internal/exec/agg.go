package exec

// Vectorized aggregation over encoded block columns — the execution layer
// behind SELECT <aggs> FROM t [WHERE ...] [GROUP BY ...].
//
// Aggregation rides the same scan pipeline as counting: candidate blocks
// are pruned by the layout (plus SMA metadata), dispatched to a worker
// pool, and each worker evaluates the filter in batch-of-1024 SelVec
// bitmaps over the block's encoded columns. On top of the selection,
// aggregates reduce where the encoding allows it without decoding:
//
//   - SUM/COUNT over RLE columns add run-value × selected-run-length
//     (ColVec.SumSelected), never touching individual rows.
//   - COUNT/MIN/MAX short-circuit to the catalog's per-block zone maps
//     when a block is fully selected — proven per block by SMA
//     subsumption (cost.SMAFullyMatches), which covers both filterless
//     queries and blocks lying wholly inside a filter's range. Such
//     blocks contribute row counts and min/max without being read; if no
//     SUM/AVG needs data either, they cost nothing at all.
//   - GROUP BY on a dictionary-encoded column groups in code space: the
//     accumulator is a dense array indexed by dictionary code (codes are
//     global dictionary positions, identical across blocks), and group
//     keys are materialized once at the end, not per row.
//
// Each worker owns a private partial-aggregate state (counts, sums,
// min/max per group), merged once after the pool drains — contention-free
// exactly like ScanStats. All reductions are order-independent integer
// arithmetic, so results are bit-identical across Parallelism settings,
// block formats, and pruning modes; AVG divides the merged exact integer
// sum by the merged exact count, so it too is deterministic.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
)

// AggVal is one aggregate output cell. Valid is false when no row
// contributed (SUM/MIN/MAX/AVG over an empty selection); COUNT of an
// empty selection is a valid 0. AVG is reported in Float; every other
// function reports in Int.
type AggVal struct {
	Valid bool    `json:"valid"`
	Int   int64   `json:"int"`
	Float float64 `json:"float,omitempty"`
}

// AggRow is one result row: the group key (nil for global aggregates, in
// GROUP BY column order otherwise) and one AggVal per aggregate in
// SELECT-list order.
type AggRow struct {
	Key  []int64  `json:"key,omitempty"`
	Vals []AggVal `json:"vals"`
}

// AggResult reports one aggregate query execution. ScanStats count only
// physical work: blocks answered from catalog metadata (zone-map MIN/MAX,
// filterless COUNT) contribute RowsMatched but no scanned blocks, rows,
// or bytes.
type AggResult struct {
	Header
	// GroupBy is the grouping column set (schema ordinals, GROUP BY order).
	GroupBy []int
	// Rows holds the result sorted by group key (one keyless row for
	// global aggregates — present even when nothing matched).
	Rows []AggRow
}

// aggCell accumulates one aggregate for one group. count doubles as the
// contribution counter for Valid and AVG; sum, min, and max are only
// meaningful for the functions that use them.
type aggCell struct {
	count int64
	sum   int64
	min   int64
	max   int64
}

// add folds one value into the cell (v is ignored for COUNT functions).
func (c *aggCell) add(f expr.AggFunc, v int64) {
	switch f {
	case expr.AggSum, expr.AggAvg:
		c.sum += v
	case expr.AggMin:
		if c.count == 0 || v < c.min {
			c.min = v
		}
	case expr.AggMax:
		if c.count == 0 || v > c.max {
			c.max = v
		}
	}
	c.count++
}

// addBulk folds a pre-reduced batch (sum over cnt values in [lo, hi]).
func (c *aggCell) addBulk(f expr.AggFunc, sum, lo, hi, cnt int64) {
	if cnt == 0 {
		return
	}
	switch f {
	case expr.AggSum, expr.AggAvg:
		c.sum += sum
	case expr.AggMin:
		if c.count == 0 || lo < c.min {
			c.min = lo
		}
	case expr.AggMax:
		if c.count == 0 || hi > c.max {
			c.max = hi
		}
	}
	c.count += cnt
}

// mergeCell folds src into dst for function f.
func mergeCell(f expr.AggFunc, dst *aggCell, src aggCell) {
	if src.count == 0 {
		return
	}
	switch f {
	case expr.AggMin:
		if dst.count == 0 || src.min < dst.min {
			dst.min = src.min
		}
	case expr.AggMax:
		if dst.count == 0 || src.max > dst.max {
			dst.max = src.max
		}
	}
	dst.sum += src.sum
	dst.count += src.count
}

// finalizeCell turns an accumulated cell into its output value.
func finalizeCell(f expr.AggFunc, c aggCell) AggVal {
	switch f {
	case expr.AggCountStar, expr.AggCount:
		return AggVal{Valid: true, Int: c.count}
	case expr.AggSum:
		if c.count == 0 {
			return AggVal{}
		}
		return AggVal{Valid: true, Int: c.sum}
	case expr.AggMin:
		if c.count == 0 {
			return AggVal{}
		}
		return AggVal{Valid: true, Int: c.min}
	case expr.AggMax:
		if c.count == 0 {
			return AggVal{}
		}
		return AggVal{Valid: true, Int: c.max}
	case expr.AggAvg:
		if c.count == 0 {
			return AggVal{}
		}
		return AggVal{Valid: true, Float: float64(c.sum) / float64(c.count)}
	}
	return AggVal{}
}

// aggGroup is one group's accumulator row.
type aggGroup struct {
	key   []int64
	rows  int64 // selected rows in the group (group-presence counter)
	cells []aggCell
}

// aggPartial is one worker's private aggregate state.
type aggPartial struct {
	naggs  int
	global aggGroup             // used when there is no GROUP BY
	dense  []aggGroup           // code-space groups for one small-domain column
	m      map[string]*aggGroup // general grouping fallback
	keybuf []byte
}

func newAggPartial(naggs, denseDom int) *aggPartial {
	p := &aggPartial{naggs: naggs, m: make(map[string]*aggGroup)}
	p.global.cells = make([]aggCell, naggs)
	if denseDom > 0 {
		p.dense = make([]aggGroup, denseDom)
	}
	return p
}

// groupFor returns the accumulator of the given key, creating it on first
// use. Single-column keys within the dense domain index the code-space
// array; everything else lands in the map under a packed byte key.
func (p *aggPartial) groupFor(key []int64) *aggGroup {
	if p.dense != nil && len(key) == 1 && key[0] >= 0 && key[0] < int64(len(p.dense)) {
		g := &p.dense[key[0]]
		if g.cells == nil {
			g.cells = make([]aggCell, p.naggs)
			g.key = []int64{key[0]}
		}
		return g
	}
	p.keybuf = p.keybuf[:0]
	for _, k := range key {
		for s := 0; s < 64; s += 8 {
			p.keybuf = append(p.keybuf, byte(uint64(k)>>s))
		}
	}
	g, ok := p.m[string(p.keybuf)]
	if !ok {
		g = &aggGroup{key: append([]int64(nil), key...), cells: make([]aggCell, p.naggs)}
		p.m[string(p.keybuf)] = g
	}
	return g
}

// merge folds o into p (same shape; run after the worker pool drains).
func (p *aggPartial) merge(o *aggPartial, aggs []expr.Agg) {
	mergeGroup := func(dst *aggGroup, src *aggGroup) {
		dst.rows += src.rows
		for i := range aggs {
			mergeCell(aggs[i].Func, &dst.cells[i], src.cells[i])
		}
	}
	mergeGroup(&p.global, &o.global)
	for idx := range o.dense {
		if o.dense[idx].cells == nil {
			continue
		}
		mergeGroup(p.groupFor(o.dense[idx].key), &o.dense[idx])
	}
	for _, g := range o.m {
		mergeGroup(p.groupFor(g.key), g)
	}
}

// keyLess is the lexicographic group-key order of AggResult.Rows.
func keyLess(a, b []int64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// aggPlan is the per-query execution plan shared by all scan workers.
type aggPlan struct {
	aq       expr.AggQuery
	acs      []expr.AdvCut
	grouped  bool
	denseDom int // >0: dense code-space grouping on aq.GroupBy[0]
	// Groupless queries split the aggregate list by what a fully-selected
	// block (every row provably satisfies the filter, per zone-map
	// subsumption — see cost.SMAFullyMatches) can answer from catalog
	// metadata alone: COUNT needs only the row count, MIN/MAX only the
	// per-block min/max; SUM/AVG always need the column data.
	metaAggs []int // aggregate indices servable from metadata when fully selected
	dataAggs []int // aggregate indices that always read column data
	readCols []int // read set for partially-selected blocks (nil = all columns)
	dataCols []int // read set for fully-selected blocks (nil = all columns)
}

// planAgg validates the query and decides metadata shortcuts and read
// sets.
func planAgg(store *blockstore.Store, aq expr.AggQuery, acs []expr.AdvCut, prof Profile) (*aggPlan, error) {
	ncols := store.Schema.NumCols()
	for _, a := range aq.Aggs {
		if a.Func != expr.AggCountStar && (a.Col < 0 || a.Col >= ncols) {
			return nil, fmt.Errorf("exec: aggregate %s references column %d outside %d-column schema", a.Func, a.Col, ncols)
		}
	}
	for _, g := range aq.GroupBy {
		if g < 0 || g >= ncols {
			return nil, fmt.Errorf("exec: GROUP BY column %d outside %d-column schema", g, ncols)
		}
	}
	for _, a := range aq.Filter.AdvRefs() {
		if a < 0 || a >= len(acs) {
			return nil, fmt.Errorf("exec: filter references advanced cut %d but the cut table holds %d", a, len(acs))
		}
	}
	pl := &aggPlan{aq: aq, acs: acs, grouped: len(aq.GroupBy) > 0}
	for i, a := range aq.Aggs {
		switch a.Func {
		case expr.AggCountStar, expr.AggCount, expr.AggMin, expr.AggMax:
			pl.metaAggs = append(pl.metaAggs, i)
		default:
			pl.dataAggs = append(pl.dataAggs, i)
		}
	}
	if pl.grouped && len(aq.GroupBy) == 1 {
		col := store.Schema.Cols[aq.GroupBy[0]]
		if col.Kind == table.Categorical && col.Dom > 0 && col.Dom <= 65536 {
			pl.denseDom = int(col.Dom)
		}
	}
	if prof.Columnar {
		seen := make(map[int]bool)
		for _, p := range aq.Filter.Preds() {
			seen[p.Col] = true
		}
		for _, a := range aq.Filter.AdvRefs() {
			seen[acs[a].Left] = true
			seen[acs[a].Right] = true
		}
		for _, g := range aq.GroupBy {
			seen[g] = true
		}
		for _, a := range aq.Aggs {
			if a.NeedsColumn() {
				seen[a.Col] = true
			}
		}
		pl.readCols = sortedCols(seen)
		dataSeen := make(map[int]bool)
		for _, ai := range pl.dataAggs {
			dataSeen[aq.Aggs[ai].Col] = true
		}
		pl.dataCols = sortedCols(dataSeen)
	}
	return pl, nil
}

// sortedCols flattens a column set into sorted order. An empty set gives
// an empty, non-nil slice: a nil read set means "all columns".
func sortedCols(seen map[int]bool) []int {
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// RunAggDelta executes one aggregate query over the merged view `delta ∪
// base` with a pool of opt.Parallelism scan workers: after the pruned
// block scan, every delta table is aggregated in full through the same
// batch kernels (no zone-map shortcuts — delta rows carry no metadata).
// Per-worker partial aggregates are merged after the pool drains with
// order-independent arithmetic, so the result is bit-identical for every
// Options value, both block formats, both pruning modes, and to the
// reference evaluator over the concatenated table. A nil view means no
// delta.
func RunAggDelta(store *blockstore.Store, layout *cost.Layout, aq expr.AggQuery, acs []expr.AdvCut, prof Profile, mode Mode, opt Options, dv *DeltaView) (*AggResult, error) {
	p, err := RunAggPartialDelta(store, layout, aq, acs, prof, mode, opt, dv)
	if err != nil {
		return nil, err
	}
	return p.Finalize(aq.Aggs), nil
}

// RunAggPartialDelta is RunAggDelta stopping short of finalization: it
// returns the mergeable per-group accumulator state — the shard-side
// entry point of distributed scatter/gather (see merge.go).
func RunAggPartialDelta(store *blockstore.Store, layout *cost.Layout, aq expr.AggQuery, acs []expr.AdvCut, prof Profile, mode Mode, opt Options, dv *DeltaView) (*AggPartialResult, error) {
	start := time.Now()
	pl, err := planAgg(store, aq, acs, prof)
	if err != nil {
		return nil, err
	}
	ncols := store.Schema.NumCols()
	sp := scanSpec{filter: aq.Filter, cols: pl.readCols, workers: opt.workers()}
	type aggWorker struct {
		part *aggPartial
		grp  aggScratch
	}
	aws := make([]aggWorker, sp.workers)
	for i := range aws {
		aws[i].part = newAggPartial(len(aq.Aggs), pl.denseDom)
	}
	sp.fold = func(w *scanWorker, vecs []*blockstore.ColVec, nrows int, full bool) int64 {
		aw := &aws[w.slot]
		if full {
			aggregateFullySelected(pl, vecs, nrows, &w.sel, aw.part)
			return 0 // counted from the catalog row count below
		}
		return aggregateBlock(pl, vecs, nrows, &w.sel, &w.scratch, &aw.grp, w.arena, aw.part)
	}
	if !pl.grouped {
		sp.catalog = func(w *scanWorker, b int) ([]int, bool, bool) {
			m := store.Blocks[b]
			if len(m.Min) != ncols || !cost.SMAFullyMatches(m.Min, m.Max, aq.Filter) {
				return pl.readCols, false, false
			}
			// Every row of this block satisfies the filter: COUNT comes
			// from the catalog row count, MIN/MAX from the zone maps, and
			// the filter columns are never read. Only SUM/AVG columns (if
			// any) are fetched, with the whole block selected; without
			// them the block is answered entirely from the catalog.
			rows := int64(m.Rows)
			w.stats.RowsMatched += rows
			for _, ai := range pl.metaAggs {
				ag := aq.Aggs[ai]
				cell := &aws[w.slot].part.global.cells[ai]
				switch ag.Func {
				case expr.AggCountStar, expr.AggCount:
					cell.count += rows
				default: // AggMin / AggMax
					cell.addBulk(ag.Func, 0, m.Min[ag.Col], m.Max[ag.Col], rows)
				}
			}
			return pl.dataCols, true, len(pl.dataAggs) == 0
		}
	}
	h, _, err := scan(store, layout, prof, mode, opt, dv, sp)
	if err != nil {
		return nil, err
	}
	h.Query = aq.Name
	res := &AggPartialResult{Header: h, GroupBy: append([]int(nil), aq.GroupBy...), Grouped: pl.grouped}

	msp := opt.Trace.Start("merge")
	part := aws[0].part
	for i := 1; i < len(aws); i++ {
		part.merge(aws[i].part, aq.Aggs)
	}
	res.Global, res.Groups = exportPartial(part, pl.grouped)
	msp.SetAttr("rows_matched", res.RowsMatched).SetAttr("groups", len(res.Groups))
	msp.End()
	res.WallTime = time.Since(start)
	return res, nil
}

// aggregateFullySelected folds a block whose every row is selected:
// only SUM/AVG aggregates remain (COUNT/MIN/MAX were served from the
// block's catalog metadata), so each batch reduces with a full selection
// and no filter pass.
func aggregateFullySelected(pl *aggPlan, vecs []*blockstore.ColVec, nrows int, sel *blockstore.SelVec, part *aggPartial) {
	for start := 0; start < nrows; start += blockstore.BatchSize {
		n := nrows - start
		if n > blockstore.BatchSize {
			n = blockstore.BatchSize
		}
		sel.SetFirst(n)
		for _, ai := range pl.dataAggs {
			ag := pl.aq.Aggs[ai]
			s, c := vecs[ag.Col].SumSelected(sel, start, n)
			cell := &part.global.cells[ai]
			cell.sum += s
			cell.count += c
		}
	}
}

// aggScratch is the per-worker grouped-aggregation scratch: header
// slices whose shapes are fixed per query, reused across every block the
// worker folds.
type aggScratch struct {
	groupVals [][]int64
	aggVals   [][]int64
	key       []int64
}

// grow sizes the scratch for ngroups group columns and naggs aggregates.
func (g *aggScratch) grow(ngroups, naggs int) {
	if cap(g.groupVals) < ngroups {
		g.groupVals = make([][]int64, ngroups)
		g.key = make([]int64, ngroups)
	}
	g.groupVals = g.groupVals[:ngroups]
	g.key = g.key[:ngroups]
	if cap(g.aggVals) < naggs {
		g.aggVals = make([][]int64, naggs)
	}
	g.aggVals = g.aggVals[:naggs]
}

// aggregateBlock evaluates the filter over one block batch-by-batch and
// folds the selected rows into the worker's partial state. It returns the
// number of selected (matched) rows. Decode buffers and the per-column
// batch memo come from the worker's arena; gs provides the grouped-path
// header scratch — nothing here allocates once the worker is warm.
func aggregateBlock(pl *aggPlan, vecs []*blockstore.ColVec, nrows int, sel *blockstore.SelVec, st *vecScratch, gs *aggScratch, ar *blockstore.Arena, part *aggPartial) int64 {
	var matched int64
	root := pl.aq.Filter.Root
	var groupVals, aggVals [][]int64
	var key []int64
	var decodedAt []int // per column: batch start already decoded, -1 = none
	if pl.grouped {
		gs.grow(len(pl.aq.GroupBy), len(pl.aq.Aggs))
		groupVals, aggVals, key = gs.groupVals, gs.aggVals, gs.key
		decodedAt = ar.DecodedAt(len(vecs))
	}
	for start := 0; start < nrows; start += blockstore.BatchSize {
		n := nrows - start
		if n > blockstore.BatchSize {
			n = blockstore.BatchSize
		}
		if root == nil {
			sel.SetFirst(n)
		} else {
			evalNodeVec(root, pl.acs, vecs, start, n, sel, st)
			if sel.None() {
				continue
			}
		}
		cnt := int64(sel.Count())
		matched += cnt
		if !pl.grouped {
			part.global.rows += cnt
			for i, a := range pl.aq.Aggs {
				cell := &part.global.cells[i]
				switch a.Func {
				case expr.AggCountStar, expr.AggCount:
					cell.count += cnt
				case expr.AggSum, expr.AggAvg:
					s, c := vecs[a.Col].SumSelected(sel, start, n)
					cell.sum += s
					cell.count += c
				case expr.AggMin, expr.AggMax:
					lo, hi, ok := vecs[a.Col].MinMaxSelected(sel, start, n)
					if ok {
						cell.addBulk(a.Func, 0, lo, hi, cnt)
					}
				}
			}
			continue
		}
		// Grouped: materialize the batch of every referenced column once,
		// then fold row-at-a-time into the per-group accumulators. DICT
		// group columns decode to raw dictionary codes (base 0), so the
		// dense path below really does group in code space.
		// decode materializes a column's batch once even when the column
		// appears in several aggregates and/or the group key.
		decode := func(c int) []int64 {
			buf := ar.DecodeBuf(c)
			if decodedAt[c] != start {
				vecs[c].DecodeRange(buf, start, n)
				decodedAt[c] = start
			}
			return buf
		}
		for gi, g := range pl.aq.GroupBy {
			groupVals[gi] = decode(g)
		}
		for ai, a := range pl.aq.Aggs {
			aggVals[ai] = nil
			if a.NeedsColumn() {
				aggVals[ai] = decode(a.Col)
			}
		}
		sel.ForEach(n, func(i int) {
			for gi := range key {
				key[gi] = groupVals[gi][i]
			}
			g := part.groupFor(key)
			g.rows++
			for ai, a := range pl.aq.Aggs {
				v := int64(0)
				if aggVals[ai] != nil {
					v = aggVals[ai][i]
				}
				g.cells[ai].add(a.Func, v)
			}
		})
	}
	return matched
}
