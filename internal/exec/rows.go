package exec

// Row-returning execution: SELECT a, b FROM t [WHERE ...]
// [ORDER BY ...] [LIMIT k] over the pruned block scan pipeline.
//
// Projection is late-materializing: the filter runs over encoded
// columns in batch-of-1024 SelVec bitmaps exactly like counting, and
// only the projected columns of batches with surviving rows are
// decoded. Each worker feeds its own rowSink (bounded TopK heap when
// the query has a LIMIT), merged once after the pool drains.
//
// # Zone-map-ordered TopK short-circuit
//
// When a query has both ORDER BY and LIMIT, candidate blocks are
// visited sequentially in zone-map order of the primary sort key
// (ascending block Min for ASC, descending block Max for DESC). Once
// the heap holds k rows, a block whose best possible primary-key value
// is strictly worse than the heap's worst kept row cannot contribute —
// and neither can any later block in the visitation order, so the scan
// stops. The comparison is strict because a primary-key tie can still
// beat the heap on the full-tuple tie-break. Delta tables and blocks
// without zone maps carry no bound, so they scan first. This path is
// sequential by construction (the bound must be current when each
// block is considered), so its SimTime is the single-stream cost
// regardless of Options.Parallelism; emitted rows are bit-identical to
// the pooled path either way.

import (
	"fmt"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"sort"
)

// JoinStats are the join-path physical counters (see join.go),
// surfaced through /stats and /metrics so the drift log sees join
// traffic.
type JoinStats struct {
	// RowsBuild is the number of build-side (left) rows retained after
	// the left filter; RowsProbe the number of probe-side (right) rows
	// that survived the right filter and probed the table.
	RowsBuild int64 `json:"rows_build"`
	RowsProbe int64 `json:"rows_probe"`
	// PartitionCount is the number of hash partitions the build was
	// split into; 1 on the dense code-space path.
	PartitionCount int `json:"partition_count"`
	// CodeSpace reports whether the build side stayed in dictionary
	// code space (dense array indexed by code, no hashing, no decode).
	CodeSpace bool `json:"code_space"`
}

// RowsResult reports one row-returning execution (single-table or
// join). Rows is the complete ordered output; RowsMatched counts
// filter survivors before any LIMIT — in the blocks actually visited,
// so under the TopK short-circuit it is a lower bound (stopping early
// is the whole point).
type RowsResult struct {
	Header
	// Cols names the output columns; Side is 0 for single-table
	// queries and selects the join side otherwise.
	Cols []expr.ColRef
	Rows [][]int64
	// Left/Right split ScanStats per join side (nil for single-table
	// queries) so the drift log can record each side's filter traffic.
	Left  *ScanStats
	Right *ScanStats
	// Join carries the join-path counters (nil for single-table).
	Join *JoinStats
	// MatchedLowerBound reports that the TopK short-circuit stopped
	// before visiting every candidate block, so RowsMatched undercounts
	// and must not be compared against an exhaustive scan's counter.
	MatchedLowerBound bool
}

// validateRowQuery bounds-checks the query against the store schema and
// returns its read set: filter columns plus the projection.
func validateRowQuery(store *blockstore.Store, rq expr.RowQuery, acs []expr.AdvCut) ([]int, error) {
	ncols := store.Schema.NumCols()
	if len(rq.Cols) == 0 {
		return nil, fmt.Errorf("exec: row query has an empty projection")
	}
	for _, c := range rq.Cols {
		if c < 0 || c >= ncols {
			return nil, fmt.Errorf("exec: projected column %d outside %d-column schema", c, ncols)
		}
	}
	for _, k := range rq.OrderBy {
		if k.Pos < 0 || k.Pos >= len(rq.Cols) {
			return nil, fmt.Errorf("exec: ORDER BY position %d outside %d-column projection", k.Pos, len(rq.Cols))
		}
	}
	if rq.Limit < 0 {
		return nil, fmt.Errorf("exec: negative LIMIT %d", rq.Limit)
	}
	return readSet(rq.Filter, acs, ncols, rq.Cols...)
}

// RunRowsDelta executes a row query over the merged view `delta ∪ base`
// with a pool of scan workers (or the sequential TopK path — see package
// comment). Emitted rows are bit-identical for every Options value. A
// nil view means no delta.
func RunRowsDelta(store *blockstore.Store, layout *cost.Layout, rq expr.RowQuery, acs []expr.AdvCut, prof Profile, mode Mode, opt Options, dv *DeltaView) (*RowsResult, error) {
	start := time.Now()
	cols, err := validateRowQuery(store, rq, acs)
	if err != nil {
		return nil, err
	}
	sp := scanSpec{filter: rq.Filter, cols: cols, workers: opt.workers()}
	topk := rq.Limit > 0 && len(rq.OrderBy) > 0
	if topk {
		sp.workers = 1 // the bound must be current when each block is considered
	}
	sinks := make([]*rowSink, sp.workers)
	emit := make([]func([]int64), sp.workers)
	for i := range sinks {
		sinks[i] = newRowSink(rq.Limit, rq.OrderBy)
		emit[i] = sinks[i].add
	}
	sp.fold = func(w *scanWorker, vecs []*blockstore.ColVec, nrows int, _ bool) int64 {
		return projectBlock(rq.Filter.Root, acs, vecs, nrows, rq.Cols, w, emit[w.slot])
	}
	if topk {
		// Zone-map-ordered visitation: unmapped blocks first (no bound
		// available), then SMA-sorted blocks until the heap bound beats
		// the next block's best value.
		pos, desc := rq.OrderBy[0].Pos, rq.OrderBy[0].Desc
		pc := rq.Cols[pos]
		sp.order = func(candidates []int) []int {
			var unmapped, mapped []int
			for _, b := range candidates {
				if pc < len(store.Blocks[b].Min) {
					mapped = append(mapped, b)
				} else {
					unmapped = append(unmapped, b)
				}
			}
			sort.Slice(mapped, func(i, j int) bool {
				bi, bj := mapped[i], mapped[j]
				vi, vj := store.Blocks[bi].Min[pc], store.Blocks[bj].Min[pc]
				if desc {
					vi, vj = store.Blocks[bi].Max[pc], store.Blocks[bj].Max[pc]
					if vi != vj {
						return vi > vj
					}
					return bi < bj
				}
				if vi != vj {
					return vi < vj
				}
				return bi < bj
			})
			return append(unmapped, mapped...)
		}
		sp.stop = func(b int) bool {
			m := store.Blocks[b]
			if pc >= len(m.Min) || !sinks[0].full() {
				return false
			}
			bound := sinks[0].worst()[pos]
			return (!desc && m.Min[pc] > bound) || (desc && m.Max[pc] < bound)
		}
	}
	h, stopped, err := scan(store, layout, prof, mode, opt, dv, sp)
	if err != nil {
		return nil, err
	}
	h.Query = rq.Name
	res := &RowsResult{Header: h, MatchedLowerBound: stopped > 0}
	res.Cols = make([]expr.ColRef, len(rq.Cols))
	for i, c := range rq.Cols {
		res.Cols[i] = expr.ColRef{Side: 0, Col: c}
	}
	msp := opt.Trace.Start("merge")
	res.Rows = finishSinks(sinks, rq.OrderBy, rq.Limit)
	msp.SetAttr("rows_returned", len(res.Rows))
	msp.End()
	res.WallTime = time.Since(start)
	return res, nil
}

// projectBlock evaluates the filter over one block batch-by-batch and
// emits the projected tuple of every selected row (ownership of the
// tuple transfers to emit). Only projected columns of batches with
// survivors are decoded (late materialization). Returns the number of
// selected rows.
func projectBlock(root *expr.Node, acs []expr.AdvCut, vecs []*blockstore.ColVec, nrows int, proj []int, a *scanWorker, emit func([]int64)) int64 {
	var matched int64
	decodedAt := a.arena.DecodedAt(len(vecs))
	for start := 0; start < nrows; start += blockstore.BatchSize {
		n := nrows - start
		if n > blockstore.BatchSize {
			n = blockstore.BatchSize
		}
		if root == nil {
			a.sel.SetFirst(n)
		} else {
			evalNodeVec(root, acs, vecs, start, n, &a.sel, a.scratch)
			if a.sel.None() {
				continue
			}
		}
		matched += int64(a.sel.Count())
		for _, c := range proj {
			if decodedAt[c] != start {
				vecs[c].DecodeRange(a.arena.DecodeBuf(c), start, n)
				decodedAt[c] = start
			}
		}
		a.sel.ForEach(n, func(i int) {
			// The emitted tuple escapes into the sink; this allocation is
			// inherent (one per matched row), unlike the scan scratch.
			out := make([]int64, len(proj))
			for j, c := range proj {
				out[j] = a.arena.DecodeBuf(c)[i]
			}
			emit(out)
		})
	}
	return matched
}
