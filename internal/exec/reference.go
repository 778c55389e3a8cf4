package exec

// Reference aggregation: a deliberately naive row-at-a-time evaluator
// used as ground truth by the differential test suite, plus a
// decode-then-aggregate store executor that models an engine without
// encoded-column pushdown. Neither path shares kernels — or accumulator
// and finalization code — with the vectorized layer in agg.go: the
// reference carries its own refCell/refGroup reduction, its own
// finalization switch, and its own key ordering, so a bug in either
// implementation shows up as a differential mismatch instead of
// cancelling out.

import (
	"sort"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
)

// refCell accumulates one aggregate for one group, independently of the
// vectorized engine's aggCell.
type refCell struct {
	n        int64 // rows folded in
	sum      int64
	min, max int64
}

// refGroup is one group's accumulator row.
type refGroup struct {
	key   []int64
	cells []refCell
}

// refState accumulates aggregates the simple way: one map of groups, one
// row at a time.
type refState struct {
	aq     expr.AggQuery
	acs    []expr.AdvCut
	global refGroup
	m      map[string]*refGroup
	keybuf []byte
	key    []int64
}

func newRefState(aq expr.AggQuery, acs []expr.AdvCut) *refState {
	return &refState{
		aq:     aq,
		acs:    acs,
		global: refGroup{cells: make([]refCell, len(aq.Aggs))},
		m:      make(map[string]*refGroup),
		key:    make([]int64, len(aq.GroupBy)),
	}
}

// addRow filters one decoded row and folds it into the state.
func (rs *refState) addRow(row []int64) bool {
	if !rs.aq.Filter.Eval(row, rs.acs) {
		return false
	}
	g := &rs.global
	if len(rs.aq.GroupBy) > 0 {
		for i, c := range rs.aq.GroupBy {
			rs.key[i] = row[c]
		}
		rs.keybuf = rs.keybuf[:0]
		for _, k := range rs.key {
			for s := 0; s < 64; s += 8 {
				rs.keybuf = append(rs.keybuf, byte(uint64(k)>>s))
			}
		}
		var ok bool
		if g, ok = rs.m[string(rs.keybuf)]; !ok {
			g = &refGroup{key: append([]int64(nil), rs.key...), cells: make([]refCell, len(rs.aq.Aggs))}
			rs.m[string(rs.keybuf)] = g
		}
	}
	for i, a := range rs.aq.Aggs {
		c := &g.cells[i]
		switch a.Func {
		case expr.AggCountStar, expr.AggCount:
			// Counting needs no value.
		case expr.AggSum, expr.AggAvg:
			c.sum += row[a.Col]
		case expr.AggMin:
			if c.n == 0 || row[a.Col] < c.min {
				c.min = row[a.Col]
			}
		case expr.AggMax:
			if c.n == 0 || row[a.Col] > c.max {
				c.max = row[a.Col]
			}
		}
		c.n++
	}
	return true
}

// refFinalize turns one reference cell into its output value, with its
// own empty-input semantics switch (COUNT of nothing is a valid 0,
// everything else is invalid).
func refFinalize(f expr.AggFunc, c refCell) AggVal {
	switch f {
	case expr.AggCountStar, expr.AggCount:
		return AggVal{Valid: true, Int: c.n}
	case expr.AggSum:
		if c.n == 0 {
			return AggVal{}
		}
		return AggVal{Valid: true, Int: c.sum}
	case expr.AggMin:
		if c.n == 0 {
			return AggVal{}
		}
		return AggVal{Valid: true, Int: c.min}
	case expr.AggMax:
		if c.n == 0 {
			return AggVal{}
		}
		return AggVal{Valid: true, Int: c.max}
	case expr.AggAvg:
		if c.n == 0 {
			return AggVal{}
		}
		return AggVal{Valid: true, Float: float64(c.sum) / float64(c.n)}
	}
	return AggVal{}
}

// rows materializes the accumulated result in the same shape and order as
// RunAggDelta: sorted by group key, or one keyless row for global
// aggregates.
func (rs *refState) rows() []AggRow {
	finalize := func(g *refGroup) []AggVal {
		vals := make([]AggVal, len(rs.aq.Aggs))
		for i, a := range rs.aq.Aggs {
			vals[i] = refFinalize(a.Func, g.cells[i])
		}
		return vals
	}
	if len(rs.aq.GroupBy) == 0 {
		return []AggRow{{Vals: finalize(&rs.global)}}
	}
	groups := make([]*refGroup, 0, len(rs.m))
	for _, g := range rs.m {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i].key, groups[j].key
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	out := make([]AggRow, len(groups))
	for i, g := range groups {
		out[i] = AggRow{Key: g.key, Vals: finalize(g)}
	}
	return out
}

// ReferenceAggregate evaluates the aggregate query over an in-memory
// table, row at a time, with no vectorization, encoding awareness, or
// metadata shortcuts — the ground truth the pushdown engine is held to.
func ReferenceAggregate(tbl *table.Table, aq expr.AggQuery, acs []expr.AdvCut) []AggRow {
	rs := newRefState(aq, acs)
	row := make([]int64, tbl.Schema.NumCols())
	for r := 0; r < tbl.N; r++ {
		row = tbl.Row(r, row)
		rs.addRow(row)
	}
	return rs.rows()
}

// RunAggNaive executes the aggregate query over a store with no pushdown:
// every candidate block is fully decoded (all columns), filtered and
// aggregated row at a time from the materialized rows. BytesRead charges
// the decoded logical footprint — the I/O a decode-then-aggregate engine
// pays before its aggregator sees a row. It is the cost baseline
// BenchmarkAggregatePushdown and TestAggregatePushdownAcceptance compare
// against, and a second differential witness for correctness tests.
func RunAggNaive(store *blockstore.Store, layout *cost.Layout, aq expr.AggQuery, acs []expr.AdvCut, prof Profile, mode Mode) (*AggResult, error) {
	// planAgg only validates: the evaluation below shares no plan with
	// the fast path.
	if _, err := planAgg(store, aq, acs); err != nil {
		return nil, err
	}
	res := &AggResult{Header: Header{Query: aq.Name}, GroupBy: append([]int(nil), aq.GroupBy...)}
	res.BlocksTotal, res.RowsTotal = storeTotals(store)
	candidates, err := candidateBlocks(store, layout, aq.Filter, mode, nil)
	if err != nil {
		return nil, err
	}
	ncols := store.Schema.NumCols()
	rs := newRefState(aq, acs)
	row := make([]int64, ncols)
	start := time.Now()
	for _, b := range candidates {
		data, nrows, _, err := store.ReadColumns(b, nil)
		if err != nil {
			return nil, err
		}
		if data == nil {
			continue
		}
		res.BlocksScanned++
		res.RowsScanned += int64(nrows)
		res.BytesRead += int64(8*nrows) * int64(ncols)
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				row[c] = data[c][r]
			}
			if rs.addRow(row) {
				res.RowsMatched++
			}
		}
	}
	res.Rows = rs.rows()
	res.WallTime = time.Since(start)
	res.SimTime = res.simTime(prof)
	return res, nil
}

// refRowLess is the reference implementation's own copy of the
// deterministic output order (ORDER BY keys, then the full tuple
// ascending) — deliberately not shared with the fast path's rowLess so
// an ordering bug cannot cancel out.
func refRowLess(order []expr.OrderKey, a, b []int64) bool {
	for _, k := range order {
		if a[k.Pos] == b[k.Pos] {
			continue
		}
		if k.Desc {
			return a[k.Pos] > b[k.Pos]
		}
		return a[k.Pos] < b[k.Pos]
	}
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// refSortLimit orders and truncates a reference result.
func refSortLimit(rows [][]int64, order []expr.OrderKey, limit int) [][]int64 {
	sort.Slice(rows, func(i, j int) bool { return refRowLess(order, rows[i], rows[j]) })
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	if rows == nil {
		rows = [][]int64{}
	}
	return rows
}

// ReferenceSelect evaluates a row query over an in-memory table, row
// at a time: filter, project, sort everything, then cut to the LIMIT.
// It is the ground truth the streaming executor in rows.go is held to.
func ReferenceSelect(tbl *table.Table, rq expr.RowQuery, acs []expr.AdvCut) [][]int64 {
	var out [][]int64
	row := make([]int64, tbl.Schema.NumCols())
	for r := 0; r < tbl.N; r++ {
		row = tbl.Row(r, row)
		if !rq.Filter.Eval(row, acs) {
			continue
		}
		t := make([]int64, len(rq.Cols))
		for i, c := range rq.Cols {
			t[i] = row[c]
		}
		out = append(out, t)
	}
	return refSortLimit(out, rq.OrderBy, rq.Limit)
}

// ReferenceJoin evaluates an equi-join of the table with itself (the
// single-table serving shape) as a nested loop: every filtered left
// row against every filtered right row, key equality checked by value.
// Quadratic on purpose — it shares nothing with the hash-join path.
func ReferenceJoin(tbl *table.Table, jq expr.JoinQuery, acs []expr.AdvCut) [][]int64 {
	ncols := tbl.Schema.NumCols()
	var lrows, rrows [][]int64
	row := make([]int64, ncols)
	for r := 0; r < tbl.N; r++ {
		row = tbl.Row(r, row)
		if jq.LeftFilter.Eval(row, acs) {
			lrows = append(lrows, append([]int64(nil), row...))
		}
		if jq.RightFilter.Eval(row, acs) {
			rrows = append(rrows, append([]int64(nil), row...))
		}
	}
	var out [][]int64
	for _, l := range lrows {
		for _, r := range rrows {
			if l[jq.LeftKey] != r[jq.RightKey] {
				continue
			}
			t := make([]int64, len(jq.Cols))
			for i, cr := range jq.Cols {
				if cr.Side == 0 {
					t[i] = l[cr.Col]
				} else {
					t[i] = r[cr.Col]
				}
			}
			out = append(out, t)
		}
	}
	return refSortLimit(out, jq.OrderBy, jq.Limit)
}

// RunRowsNaive executes a row query over a store with no TopK and no
// late materialization: every candidate block is fully decoded, every
// matching row fully materialized, the whole result sorted, and only
// then cut to the LIMIT — the full-sort-then-limit baseline the
// bounded-heap path is tested against. BytesRead
// charges the decoded logical footprint, as in RunAggNaive.
func RunRowsNaive(store *blockstore.Store, layout *cost.Layout, rq expr.RowQuery, acs []expr.AdvCut, prof Profile, mode Mode) (*RowsResult, error) {
	res := &RowsResult{Header: Header{Query: rq.Name}}
	res.BlocksTotal, res.RowsTotal = storeTotals(store)
	res.Cols = make([]expr.ColRef, len(rq.Cols))
	for i, c := range rq.Cols {
		res.Cols[i] = expr.ColRef{Side: 0, Col: c}
	}
	if _, err := validateRowQuery(store, rq, acs); err != nil {
		return nil, err
	}
	candidates, err := candidateBlocks(store, layout, rq.Filter, mode, nil)
	if err != nil {
		return nil, err
	}
	ncols := store.Schema.NumCols()
	row := make([]int64, ncols)
	var out [][]int64
	start := time.Now()
	for _, b := range candidates {
		data, nrows, _, err := store.ReadColumns(b, nil)
		if err != nil {
			return nil, err
		}
		if data == nil {
			continue
		}
		res.BlocksScanned++
		res.RowsScanned += int64(nrows)
		res.BytesRead += int64(8*nrows) * int64(ncols)
		for r := 0; r < nrows; r++ {
			for c := 0; c < ncols; c++ {
				row[c] = data[c][r]
			}
			if !rq.Filter.Eval(row, acs) {
				continue
			}
			res.RowsMatched++
			t := make([]int64, len(rq.Cols))
			for i, c := range rq.Cols {
				t[i] = row[c]
			}
			out = append(out, t)
		}
	}
	res.Rows = refSortLimit(out, rq.OrderBy, rq.Limit)
	res.WallTime = time.Since(start)
	res.SimTime = res.simTime(prof)
	return res, nil
}
