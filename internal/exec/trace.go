package exec

import (
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/table"
)

// BlockPrune is the per-block explain record attached to a query
// trace's block_prune span: which block was skipped, by which mode's
// stage ("route" = qd-tree routing, "sma" = the zone-map intervals of
// NoRoute), and — when a single predicate witnesses the prune — the
// column, operator, bound, and the block's [Min, Max] interval for that
// column.
type BlockPrune struct {
	Block  int    `json:"block"`
	By     string `json:"by"`
	Column string `json:"column,omitempty"`
	Op     string `json:"op,omitempty"`
	Bound  int64  `json:"bound,omitempty"`
	Min    int64  `json:"min,omitempty"`
	Max    int64  `json:"max,omitempty"`
}

// maxPruneDetail bounds the per-block detail list on a span; counts are
// always exact, only the witness list is truncated.
const maxPruneDetail = 32

// pruneRecorder accumulates the pruning decisions of candidateBlocks. A
// nil recorder disables recording at zero cost. pruned is the exact
// count of blocks the stage named by by left out; detail holds the
// witnesses of the first maxPruneDetail of them in block order, and no
// witness past them is ever computed.
type pruneRecorder struct {
	pruned int
	by     string
	detail []BlockPrune
}

// explain appends pruned block b's witness to detail; a nil cause leaves
// only block/by.
func (r *pruneRecorder) explain(schema *table.Schema, b int, c *cost.PruneCause) {
	if r.detail == nil {
		r.detail = make([]BlockPrune, 0, maxPruneDetail)
	}
	p := BlockPrune{Block: b, By: r.by}
	if c != nil {
		if schema != nil && c.Col >= 0 && c.Col < len(schema.Cols) {
			p.Column = schema.Cols[c.Col].Name
		}
		p.Op = c.Op
		p.Bound = c.Literal
		p.Min = c.Lo
		p.Max = c.Hi
	}
	r.detail = append(r.detail, p)
}

// explainPrunes records the prunes of stage by, given the sorted
// candidates the layout's index returned: their count by arithmetic (the
// candidates are a subset of the non-empty blocks, so the rest of those
// were pruned), and the witnesses of the first ones by a merge-walk of
// the block order against the candidates that stops once detail is full
// or every prune is explained. The block's Desc interval usually yields
// a single predicate witness; categorical masks and advanced-cut routing
// may not.
func (r *pruneRecorder) explainPrunes(schema *table.Schema, layout *cost.Layout, q expr.Query, candidates []int, by string) {
	r.pruned, r.by = layout.NonEmptyBlocks()-len(candidates), by
	want := min(r.pruned, maxPruneDetail)
	j := 0
	for b := 0; want > 0 && b < len(layout.Descs); b++ {
		if j < len(candidates) && candidates[j] == b {
			j++
			continue
		}
		if layout.Counts[b] == 0 {
			continue
		}
		d := &layout.Descs[b]
		r.explain(schema, b, cost.MinMaxPruneCause(d.Lo, d.Hi, q))
		want--
	}
}

// truncated reports whether pruned blocks were left out of detail.
func (r *pruneRecorder) truncated() bool {
	return r.pruned > len(r.detail)
}

// counts splits the prunes by stage: one of the two is always 0.
func (r *pruneRecorder) counts() (route, sma int) {
	if r.by == "sma" {
		return 0, r.pruned
	}
	return r.pruned, 0
}

// annotate writes the recorder's summary onto the block_prune span. Both
// stage counts are written, so the span has the same shape under either
// mode.
func (r *pruneRecorder) annotate(sp *obs.ActiveSpan, blocksTotal, candidates int) {
	if r == nil || sp == nil {
		return
	}
	route, sma := r.counts()
	sp.SetAttr("blocks_total", blocksTotal)
	sp.SetAttr("candidates", candidates)
	sp.SetAttr("pruned_route", route)
	sp.SetAttr("pruned_sma", sma)
	if len(r.detail) > 0 {
		sp.SetAttr("pruned", r.detail)
	}
	if r.truncated() {
		sp.SetAttr("pruned_truncated", true)
	}
}
