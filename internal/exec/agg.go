package exec

// Vectorized aggregation over encoded block columns — the execution layer
// behind SELECT <aggs> FROM t [WHERE ...] [GROUP BY ...].
//
// Aggregation rides the same scan pipeline as counting: candidate blocks
// are pruned by the layout's block index, dispatched to a worker
// pool, and each worker evaluates the filter in batch-of-1024 SelVec
// bitmaps over the block's encoded columns. On top of the selection:
//
//   - Global aggregates reduce without decoding where the encoding
//     allows it: SUM/COUNT over RLE columns add run-value ×
//     selected-run-length (ColVec.SumSelected), never touching
//     individual rows.
//   - Grouped aggregates fold a column at a time. Per batch the worker
//     lists the selected positions once, gives each selected row one
//     group id, and then runs each aggregate as one tight loop over the
//     batch — one switch per aggregate and batch, not per row. Group ids
//     come from one code space when every GROUP BY column is categorical
//     and the product of their domains is at most maxCodeSpace: a key's
//     slot is the key read in mixed radix (first column most
//     significant), computed by arithmetic over the decoded dictionary
//     codes (codes are global dictionary positions, identical across
//     blocks), and a slot-indexed array holds the group id. Numeric keys,
//     wider code spaces and keys outside the domain fall to a map from
//     the packed key bytes: one lookup per row. Accumulators are flat
//     per-group arrays; keys are materialized once per group, not per
//     row.
//   - A block whose every row is selected — proven per block by SMA
//     subsumption (cost.SMAFullyMatches), which covers both filterless
//     queries and blocks lying wholly inside a filter's range — skips the
//     filter. A global aggregate answers COUNT/MIN/MAX of such a block
//     from the catalog's row count and zone maps and reads only its
//     SUM/AVG columns (nothing at all if there are none). A grouped
//     aggregate still needs every row's group, so it reads the group and
//     aggregate columns only and folds the whole block; nothing of a
//     grouped query is answered from the catalog.
//
// Each worker owns a private partial-aggregate state (counts, sums,
// min/max per group), merged once after the pool drains — contention-free
// exactly like ScanStats. All reductions are order-independent integer
// arithmetic, so results are bit-identical across Parallelism settings,
// block formats, and pruning modes; AVG divides the merged exact integer
// sum by the merged exact count, so it too is deterministic.

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"
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

// maxCodeSpace caps the slots of the code-space group index (one int32
// per slot per worker).
const maxCodeSpace = 65536

// codeSpace returns the mixed-radix digits of the GROUP BY key — each
// column's dictionary size — when every column is categorical and the
// product of the sizes is at most maxCodeSpace; nil otherwise.
func codeSpace(schema *table.Schema, groupBy []int) []int64 {
	radix := make([]int64, len(groupBy))
	size := int64(1)
	for i, g := range groupBy {
		col := schema.Cols[g]
		if col.Kind != table.Categorical || col.Dom <= 0 || col.Dom > maxCodeSpace/size {
			return nil
		}
		radix[i] = col.Dom
		size *= col.Dom
	}
	return radix
}

// aggPartial is one worker's private aggregate state. Groups are numbered
// in first-seen order and live in flat per-group arrays; a global
// aggregate is group 0 with the empty key. A key finds its group id in
// the code-space index when radix holds it, else in the map.
type aggPartial struct {
	naggs int
	nkeys int
	rows  []int64   // per group: selected rows (group-presence counter)
	cells []aggCell // per group: naggs cells, group g at [g*naggs, (g+1)*naggs)
	keys  []int64   // per group: nkeys key values

	radix  []int64          // code space (codeSpace); nil = none
	slots  []int32          // per code-space slot: group id + 1, 0 = not seen
	m      map[string]int32 // packed key → group id, for keys outside the code space
	keybuf []byte
}

// newAggPartial returns an empty state for naggs aggregates over nkeys
// GROUP BY columns (0: a global aggregate, whose group exists from the
// start) with the given code space.
func newAggPartial(naggs, nkeys int, radix []int64) *aggPartial {
	p := &aggPartial{naggs: naggs, nkeys: nkeys, radix: radix}
	if radix != nil {
		size := int64(1)
		for _, d := range radix {
			size *= d
		}
		p.slots = make([]int32, size)
	}
	if nkeys == 0 {
		p.group(nil)
	}
	return p
}

// slot returns key's code-space slot: the key in mixed radix, first
// column most significant, so slot order is key order. ok is false when
// there is no code space or a key value lies outside its column's domain.
func (p *aggPartial) slot(key []int64) (int, bool) {
	if p.radix == nil {
		return 0, false
	}
	s := int64(0)
	for i, k := range key {
		if uint64(k) >= uint64(p.radix[i]) {
			return 0, false
		}
		s = s*p.radix[i] + k
	}
	return int(s), true
}

// group returns the id of key's group, adding the group on first sight.
func (p *aggPartial) group(key []int64) int32 {
	if s, ok := p.slot(key); ok {
		if id := p.slots[s]; id != 0 {
			return id - 1
		}
		id := p.add(key)
		p.slots[s] = id + 1
		return id
	}
	p.keybuf = p.keybuf[:0]
	for _, k := range key {
		p.keybuf = binary.LittleEndian.AppendUint64(p.keybuf, uint64(k))
	}
	if id, ok := p.m[string(p.keybuf)]; ok {
		return id
	}
	if p.m == nil {
		p.m = make(map[string]int32)
	}
	id := p.add(key)
	p.m[string(p.keybuf)] = id
	return id
}

// add appends an empty group with the given key.
func (p *aggPartial) add(key []int64) int32 {
	id := int32(len(p.rows))
	p.rows = append(p.rows, 0)
	p.cells = append(p.cells, make([]aggCell, p.naggs)...)
	p.keys = append(p.keys, key...)
	return id
}

// key returns group g's key (nil for a global aggregate: keys is nil).
func (p *aggPartial) key(g int) []int64 {
	return p.keys[g*p.nkeys : (g+1)*p.nkeys : (g+1)*p.nkeys]
}

// groupCells returns group g's cells.
func (p *aggPartial) groupCells(g int) []aggCell {
	return p.cells[g*p.naggs : (g+1)*p.naggs]
}

// merge folds o into p (same shape; run after the worker pool drains).
func (p *aggPartial) merge(o *aggPartial, aggs []expr.Agg) {
	for g := range o.rows {
		id := int(p.group(o.key(g)))
		p.rows[id] += o.rows[g]
		dst := p.groupCells(id)
		for i, c := range o.groupCells(g) {
			mergeCell(aggs[i].Func, &dst[i], c)
		}
	}
}

// groupIDs sets gid[j] to the group of selected row pos[j], whose key
// values are groupVals[gi][pos[j]]. In-domain code-space keys get their
// slot by arithmetic a column at a time; a batch holding any other key
// looks every row up through group.
func (p *aggPartial) groupIDs(groupVals [][]int64, pos, gid []int32, key []int64) {
	if p.radix != nil {
		inDomain := true
		for gi, vals := range groupVals {
			d := p.radix[gi]
			scale := int32(d)
			if gi == 0 {
				scale = 0 // gid still holds an earlier batch's ids
			}
			for j, r := range pos {
				v := vals[r]
				if uint64(v) >= uint64(d) {
					inDomain = false
				}
				gid[j] = gid[j]*scale + int32(v)
			}
		}
		if inDomain {
			for j, s := range gid {
				id := p.slots[s]
				if id == 0 {
					for gi, vals := range groupVals {
						key[gi] = vals[pos[j]]
					}
					id = p.group(key) + 1
				}
				gid[j] = id - 1
			}
			return
		}
	}
	for j, r := range pos {
		for gi, vals := range groupVals {
			key[gi] = vals[r]
		}
		gid[j] = p.group(key)
	}
}

// fold adds the selected rows pos, whose groups are gid, an aggregate at
// a time: aggVals[ai] is aggregate ai's decoded batch (nil for COUNT).
func (p *aggPartial) fold(aggs []expr.Agg, aggVals [][]int64, pos, gid []int32) {
	for _, g := range gid {
		p.rows[g]++
	}
	na := p.naggs
	for ai, a := range aggs {
		cells, vals := p.cells[ai:], aggVals[ai]
		switch a.Func {
		case expr.AggCountStar, expr.AggCount:
			for _, g := range gid {
				cells[int(g)*na].count++
			}
		case expr.AggSum, expr.AggAvg:
			for j, g := range gid {
				c := &cells[int(g)*na]
				c.sum += vals[pos[j]]
				c.count++
			}
		case expr.AggMin:
			for j, g := range gid {
				c, v := &cells[int(g)*na], vals[pos[j]]
				if c.count == 0 || v < c.min {
					c.min = v
				}
				c.count++
			}
		case expr.AggMax:
			for j, g := range gid {
				c, v := &cells[int(g)*na], vals[pos[j]]
				if c.count == 0 || v > c.max {
					c.max = v
				}
				c.count++
			}
		}
	}
}

// aggPlan is the per-query execution plan shared by all scan workers.
type aggPlan struct {
	aq      expr.AggQuery
	acs     []expr.AdvCut
	grouped bool
	radix   []int64 // code space of the GROUP BY key (codeSpace); nil = map only
	// A fully-selected block (every row provably satisfies the filter,
	// per zone-map subsumption — see cost.SMAFullyMatches) skips the
	// filter. A global aggregate splits its list by what such a block
	// can answer from catalog metadata alone: COUNT needs only the row
	// count, MIN/MAX only the per-block min/max; SUM/AVG always need the
	// column data. A grouped aggregate reads its group and aggregate
	// columns.
	metaAggs []int // aggregate indices servable from metadata when fully selected
	dataAggs []int // aggregate indices that always read column data
	readCols []int // read set for partially-selected blocks
	dataCols []int // read set for fully-selected blocks
}

// planAgg validates the query and decides metadata shortcuts, read sets
// and the code space.
func planAgg(store *blockstore.Store, aq expr.AggQuery, acs []expr.AdvCut) (*aggPlan, error) {
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
	pl := &aggPlan{aq: aq, acs: acs, grouped: len(aq.GroupBy) > 0}
	read := slices.Clone(aq.GroupBy)
	var data []int
	for i, a := range aq.Aggs {
		if a.NeedsColumn() {
			read = append(read, a.Col)
		}
		switch a.Func {
		case expr.AggCountStar, expr.AggCount, expr.AggMin, expr.AggMax:
			pl.metaAggs = append(pl.metaAggs, i)
		default:
			pl.dataAggs = append(pl.dataAggs, i)
			data = append(data, a.Col)
		}
	}
	if pl.grouped {
		data = read
		pl.radix = codeSpace(store.Schema, aq.GroupBy)
	}
	var err error
	if pl.readCols, err = readSet(aq.Filter, acs, ncols, read...); err != nil {
		return nil, err
	}
	pl.dataCols, _ = readSet(expr.Query{}, acs, ncols, data...) // no filter, no error
	return pl, nil
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
	pl, err := planAgg(store, aq, acs)
	if err != nil {
		return nil, err
	}
	ncols := store.Schema.NumCols()
	sp := scanSpec{filter: aq.Filter, cols: pl.readCols, workers: opt.workers()}
	type aggWorker struct {
		part *aggPartial
		grp  *aggScratch
	}
	aws := make([]aggWorker, sp.workers)
	for i := range aws {
		aws[i].part = newAggPartial(len(aq.Aggs), len(aq.GroupBy), pl.radix)
		aws[i].grp = aggScratchPool.Get().(*aggScratch)
	}
	defer func() {
		for i := range aws {
			aggScratchPool.Put(aws[i].grp)
		}
	}()
	sp.fold = func(w *scanWorker, vecs []*blockstore.ColVec, nrows int, full bool) int64 {
		aw := &aws[w.slot]
		if full && !pl.grouped {
			aggregateFullySelected(pl, vecs, nrows, &w.sel, aw.part)
			return 0 // counted from the catalog row count below
		}
		return aggregateBlock(pl, vecs, nrows, full, &w.sel, w.scratch, aw.grp, w.arena, aw.part)
	}
	sp.catalog = func(w *scanWorker, b int) ([]int, bool, bool) {
		m := store.Blocks[b]
		if len(m.Min) != ncols || !cost.SMAFullyMatches(m.Min, m.Max, aq.Filter) {
			return pl.readCols, false, false
		}
		if pl.grouped {
			// Every row is selected, but each still needs its group:
			// read the group and aggregate columns, not the filter's.
			return pl.dataCols, true, false
		}
		// Every row of this block satisfies the filter: COUNT comes from
		// the catalog row count, MIN/MAX from the zone maps, and the
		// filter columns are never read. Only SUM/AVG columns (if any) are
		// fetched, with the whole block selected; without them the block
		// is answered entirely from the catalog. The block's rows count
		// here whether or not aggregateFullySelected folds it next.
		rows := int64(m.Rows)
		w.stats.RowsMatched += rows
		part := aws[w.slot].part
		part.rows[0] += rows
		cells := part.groupCells(0)
		for _, ai := range pl.metaAggs {
			ag := aq.Aggs[ai]
			switch ag.Func {
			case expr.AggCountStar, expr.AggCount:
				cells[ai].count += rows
			default: // AggMin / AggMax
				cells[ai].addBulk(ag.Func, 0, m.Min[ag.Col], m.Max[ag.Col], rows)
			}
		}
		return pl.dataCols, true, len(pl.dataAggs) == 0
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

// aggregateFullySelected folds a block whose every row is selected into a
// global aggregate: only SUM/AVG aggregates remain (COUNT/MIN/MAX were
// served from the block's catalog metadata), so each batch reduces with a
// full selection and no filter pass.
func aggregateFullySelected(pl *aggPlan, vecs []*blockstore.ColVec, nrows int, sel *blockstore.SelVec, part *aggPartial) {
	cells := part.groupCells(0)
	for start := 0; start < nrows; start += blockstore.BatchSize {
		n := min(nrows-start, blockstore.BatchSize)
		sel.SetFirst(n)
		for _, ai := range pl.dataAggs {
			s, c := vecs[pl.aq.Aggs[ai].Col].SumSelected(sel, start, n)
			cells[ai].sum += s
			cells[ai].count += c
		}
	}
}

// aggScratch is the per-worker grouped-aggregation scratch, reused across
// every block the worker folds: header slices whose shapes are fixed per
// query, and the batch's selected positions and group ids.
type aggScratch struct {
	groupVals [][]int64
	aggVals   [][]int64
	key       []int64
	pos       [blockstore.BatchSize]int32
	gid       [blockstore.BatchSize]int32
}

// aggScratchPool recycles the workers' 8 KB grouped-aggregation scratch
// across statements. Every batch writes its positions and group ids
// before it reads them, so a recycled scratch needs no clearing.
var aggScratchPool = sync.Pool{New: func() any { return new(aggScratch) }}

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

// positions lists the selected rows of sel in [0, n), ascending.
func (g *aggScratch) positions(sel *blockstore.SelVec, n int) []int32 {
	k := 0
	for w := 0; w < (n+63)/64; w++ {
		for word := sel[w]; word != 0; word &= word - 1 {
			g.pos[k] = int32(w<<6 + bits.TrailingZeros64(word))
			k++
		}
	}
	return g.pos[:k]
}

// aggregateBlock folds one block batch-by-batch into the worker's partial
// state, evaluating the filter unless full says every row is selected. It
// returns the number of selected (matched) rows. Decode buffers and the
// per-column batch memo come from the worker's arena; gs provides the
// grouped-path scratch — nothing here allocates once the worker is warm.
func aggregateBlock(pl *aggPlan, vecs []*blockstore.ColVec, nrows int, full bool, sel *blockstore.SelVec, st *vecScratch, gs *aggScratch, ar *blockstore.Arena, part *aggPartial) int64 {
	var matched int64
	root := pl.aq.Filter.Root
	if full {
		root = nil
	}
	var decodedAt []int // per column: batch start already decoded, -1 = none
	if pl.grouped {
		gs.grow(len(pl.aq.GroupBy), len(pl.aq.Aggs))
		decodedAt = ar.DecodedAt(len(vecs))
	}
	for start := 0; start < nrows; start += blockstore.BatchSize {
		n := min(nrows-start, blockstore.BatchSize)
		if root == nil {
			sel.SetFirst(n)
		} else {
			evalNodeVec(root, pl.acs, vecs, start, n, sel, st)
			if sel.None() {
				continue
			}
		}
		cnt := sel.Count()
		matched += int64(cnt)
		if !pl.grouped {
			cells := part.groupCells(0)
			part.rows[0] += int64(cnt)
			for i, a := range pl.aq.Aggs {
				cell := &cells[i]
				switch a.Func {
				case expr.AggCountStar, expr.AggCount:
					cell.count += int64(cnt)
				case expr.AggSum, expr.AggAvg:
					s, c := vecs[a.Col].SumSelected(sel, start, n)
					cell.sum += s
					cell.count += c
				case expr.AggMin, expr.AggMax:
					lo, hi, ok := vecs[a.Col].MinMaxSelected(sel, start, n)
					if ok {
						cell.addBulk(a.Func, 0, lo, hi, int64(cnt))
					}
				}
			}
			continue
		}
		// Grouped: materialize the batch of every referenced column once
		// (a column in several aggregates and/or the key decodes once;
		// DICT group columns decode to raw dictionary codes, base 0, so
		// the code space really is code space), give every selected row
		// its group, then fold an aggregate at a time.
		decode := func(c int) []int64 {
			buf := ar.DecodeBuf(c)
			if decodedAt[c] != start {
				vecs[c].DecodeRange(buf, start, n)
				decodedAt[c] = start
			}
			return buf
		}
		for gi, g := range pl.aq.GroupBy {
			gs.groupVals[gi] = decode(g)
		}
		for ai, a := range pl.aq.Aggs {
			gs.aggVals[ai] = nil
			if a.NeedsColumn() {
				gs.aggVals[ai] = decode(a.Col)
			}
		}
		pos := gs.positions(sel, n)
		gid := gs.gid[:len(pos)]
		part.groupIDs(gs.groupVals, pos, gid, gs.key)
		part.fold(pl.aq.Aggs, gs.aggVals, pos, gid)
	}
	return matched
}
