package exec

import (
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/table"
)

// BlockPrune is the per-block explain record attached to a query
// trace's block_prune span: which block was skipped, at which stage
// ("route" = qd-tree routing, "sma" = zone-map metadata), and — when a
// single predicate witnesses the prune — the column, operator, bound,
// and the block's [Min, Max] interval for that column.
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

// pruneRecorder accumulates pruning decisions during candidateBlocks.
// A nil recorder disables recording at zero cost. The counts are exact;
// detail holds the witnesses of the first maxPruneDetail pruned blocks,
// routing's in block order and then the zone maps', and no witness past
// them is ever computed.
type pruneRecorder struct {
	routePruned int
	smaPruned   int
	detail      []BlockPrune
}

// smaPrune counts one block the zone maps pruned and reports whether its
// witness still fits in detail.
func (r *pruneRecorder) smaPrune() bool {
	if r == nil {
		return false
	}
	r.smaPruned++
	return len(r.detail) < maxPruneDetail
}

// explain appends pruned block b's witness to detail; a nil cause leaves
// only block/by.
func (r *pruneRecorder) explain(schema *table.Schema, b int, by string, c *cost.PruneCause) {
	if r.detail == nil {
		r.detail = make([]BlockPrune, 0, maxPruneDetail)
	}
	p := BlockPrune{Block: b, By: by}
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

// explainRoute records the witnesses of the first routing prunes, given
// routePruned and the sorted candidates: a merge-walk of the block order
// against the candidates that stops once detail is full or every routing
// prune is explained. The block's Desc interval usually yields a single
// predicate witness; categorical masks and advanced-cut routing may not.
func (r *pruneRecorder) explainRoute(schema *table.Schema, layout *cost.Layout, q expr.Query, candidates []int) {
	want := min(r.routePruned, maxPruneDetail-len(r.detail))
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
		r.explain(schema, b, "route", cost.MinMaxPruneCause(d.Lo, d.Hi, q))
		want--
	}
}

// truncated reports whether pruned blocks were left out of detail.
func (r *pruneRecorder) truncated() bool {
	return r.routePruned+r.smaPruned > len(r.detail)
}

// annotate writes the recorder's summary onto the block_prune span.
func (r *pruneRecorder) annotate(sp *obs.ActiveSpan, blocksTotal, candidates int) {
	if r == nil || sp == nil {
		return
	}
	sp.SetAttr("blocks_total", blocksTotal)
	sp.SetAttr("candidates", candidates)
	sp.SetAttr("pruned_route", r.routePruned)
	sp.SetAttr("pruned_sma", r.smaPruned)
	if len(r.detail) > 0 {
		sp.SetAttr("pruned", r.detail)
	}
	if r.truncated() {
		sp.SetAttr("pruned_truncated", true)
	}
}
