package exec

// Exported partial-aggregate state and merge entry points — the gather
// side of distributed scatter/gather execution (internal/cluster).
//
// A shard cannot ship finalized AggResult rows: AVG is already divided,
// and MIN/MAX of an absent group is indistinguishable from a valid zero.
// Instead a shard runs RunAggPartialDelta and ships AggPartialResult — the
// same per-group (count, sum, min, max) cells the in-process worker pool
// accumulates — and the front door folds shard partials with
// MergeAggPartials exactly as RunAggDelta folds per-worker partials. The
// merge arithmetic is the order-independent integer arithmetic of
// aggPartial.merge, so a scatter/gather execution is bit-identical to a
// single-node run over the union of the shards' rows.

import (
	"fmt"
	"slices"

	"repro/internal/expr"
)

// AggCellState is the mergeable accumulator of one aggregate for one
// group: contribution count, exact integer sum, and running min/max.
// Which fields are meaningful depends on the aggregate function, exactly
// as for the in-process accumulator.
type AggCellState struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
}

// AggGroupState is one group's partial state: the group key (nil for the
// global group), the number of selected rows, and one cell per aggregate
// in SELECT-list order.
type AggGroupState struct {
	Key   []int64        `json:"key,omitempty"`
	Rows  int64          `json:"rows"`
	Cells []AggCellState `json:"cells"`
}

// AggPartialResult is one shard's (or one node's) contribution to a
// distributed aggregation: scan stats plus unfinalized per-group
// accumulators. Finalize turns it into an AggResult; MergeAggPartials
// folds several partials into one.
type AggPartialResult struct {
	Header
	// GroupBy is the grouping column set (schema ordinals, GROUP BY order);
	// Grouped distinguishes "GROUP BY over zero groups" from a global
	// aggregate.
	GroupBy []int `json:"group_by,omitempty"`
	Grouped bool  `json:"grouped"`
	// Global holds the accumulators of a non-grouped query; Groups the
	// per-group accumulators of a grouped one, sorted by key.
	Global AggGroupState   `json:"global"`
	Groups []AggGroupState `json:"groups,omitempty"`
}

// cellState exports one internal accumulator cell.
func cellState(c aggCell) AggCellState {
	return AggCellState{Count: c.count, Sum: c.sum, Min: c.min, Max: c.max}
}

// cellOf imports one exported cell.
func cellOf(c AggCellState) aggCell {
	return aggCell{count: c.Count, sum: c.Sum, min: c.Min, max: c.Max}
}

// groupState exports group g of p.
func groupState(p *aggPartial, g int) AggGroupState {
	out := AggGroupState{Key: p.key(g), Rows: p.rows[g], Cells: make([]AggCellState, p.naggs)}
	for i, c := range p.groupCells(g) {
		out.Cells[i] = cellState(c)
	}
	return out
}

// exportPartial flattens a merged aggPartial into the wire shape: a
// global aggregate as Global, a grouped one as its non-empty groups
// sorted by key (AggResult row order) beside an all-zero Global.
func exportPartial(p *aggPartial, grouped bool) (AggGroupState, []AggGroupState) {
	if !grouped {
		return groupState(p, 0), nil
	}
	global := AggGroupState{Cells: make([]AggCellState, p.naggs)}
	out := make([]AggGroupState, 0, len(p.rows))
	for g := range p.rows {
		if p.rows[g] > 0 {
			out = append(out, groupState(p, g))
		}
	}
	sortGroupStates(out)
	return global, out
}

// sortGroupStates orders group states by lexicographic key, a prefix
// first.
func sortGroupStates(gs []AggGroupState) {
	slices.SortFunc(gs, func(a, b AggGroupState) int { return slices.Compare(a.Key, b.Key) })
}

// importPartial folds one exported partial into an internal accumulator
// of the same shape.
func importPartial(dst *aggPartial, src *AggPartialResult, aggs []expr.Agg) {
	fold := func(s AggGroupState) {
		g := int(dst.group(s.Key))
		dst.rows[g] += s.Rows
		cells := dst.groupCells(g)
		for i := range aggs {
			mergeCell(aggs[i].Func, &cells[i], cellOf(s.Cells[i]))
		}
	}
	if !src.Grouped {
		fold(src.Global)
	}
	for _, s := range src.Groups {
		fold(s)
	}
}

// Finalize turns a partial into the finalized AggResult a single-node run
// would have produced over the same rows: grouped results materialize one
// row per group (sorted by key), global results one keyless row, and AVG
// divides the merged exact integer sum by the merged exact count.
func (p *AggPartialResult) Finalize(aggs []expr.Agg) *AggResult {
	res := &AggResult{Header: p.Header, GroupBy: append([]int(nil), p.GroupBy...)}
	if p.Grouped {
		res.Rows = make([]AggRow, len(p.Groups))
		for i, g := range p.Groups {
			vals := make([]AggVal, len(aggs))
			for ai := range aggs {
				vals[ai] = finalizeCell(aggs[ai].Func, cellOf(g.Cells[ai]))
			}
			res.Rows[i] = AggRow{Key: g.Key, Vals: vals}
		}
		return res
	}
	vals := make([]AggVal, len(aggs))
	for i := range aggs {
		vals[i] = finalizeCell(aggs[i].Func, cellOf(p.Global.Cells[i]))
	}
	res.Rows = []AggRow{{Vals: vals}}
	return res
}

// EmptyAggPartial is the partial of an aggregation that scanned no rows —
// the identity element of MergeAggPartials. Its accumulator cells carry
// the same initial state the in-process pool starts from, so seeding a
// merge with it never changes the outcome; a front door uses it when
// shard pruning leaves no shard to contact.
func EmptyAggPartial(query string, naggs int, groupBy []int) *AggPartialResult {
	out := &AggPartialResult{
		Header:  Header{Query: query},
		GroupBy: append([]int(nil), groupBy...),
		Grouped: len(groupBy) > 0,
	}
	out.Global, out.Groups = exportPartial(newAggPartial(naggs, len(groupBy), nil), out.Grouped)
	return out
}

// MergeAggPartials folds shard partials into one: per-group cells merge
// with the same order-independent arithmetic as in-process worker
// partials, counters (blocks, rows, bytes) sum, and SimTime/WallTime take
// the maximum — the shards of a scatter execute concurrently, so the
// gather's critical path is the slowest shard. Partials must agree on
// aggregate count and grouping shape (they were produced by the same
// statement); a mismatch is an error, not a silent wrong answer.
func MergeAggPartials(aggs []expr.Agg, parts ...*AggPartialResult) (*AggPartialResult, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("exec: MergeAggPartials needs at least one partial")
	}
	first := parts[0]
	acc := newAggPartial(len(aggs), len(first.GroupBy), nil)
	out := &AggPartialResult{
		Header:  Header{Query: first.Query},
		GroupBy: append([]int(nil), first.GroupBy...),
		Grouped: first.Grouped,
	}
	for _, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("exec: MergeAggPartials: nil partial")
		}
		if p.Grouped != first.Grouped || len(p.GroupBy) != len(first.GroupBy) {
			return nil, fmt.Errorf("exec: MergeAggPartials: grouping shape mismatch (%v vs %v)", p.GroupBy, first.GroupBy)
		}
		if len(p.Global.Cells) != len(aggs) {
			return nil, fmt.Errorf("exec: MergeAggPartials: partial has %d aggregate cells, statement has %d", len(p.Global.Cells), len(aggs))
		}
		for _, g := range p.Groups {
			if len(g.Cells) != len(aggs) || len(g.Key) != len(first.GroupBy) {
				return nil, fmt.Errorf("exec: MergeAggPartials: malformed group state (key %v, %d cells)", g.Key, len(g.Cells))
			}
		}
		importPartial(acc, p, aggs)
		out.Header.Merge(p.Header)
	}
	out.Global, out.Groups = exportPartial(acc, out.Grouped)
	return out, nil
}
