package cost

import (
	"repro/internal/core"
	"repro/internal/expr"
)

// hullLeafBlocks is the most blocks a bottom node of the hull index
// covers. Bottom nodes hold consecutive runs of this many blocks and a
// binary hierarchy joins them, so the index holds 2·⌈n/16⌉−1 ≤ ⌈n/8⌉
// hull descriptions for n blocks.
const hullLeafBlocks = 16

// hullNode is one node of a layout's hull index: the blocks [lo, hi) and
// the union (hull) of their non-empty descriptions. Bottom nodes have no
// children (left < 0).
type hullNode struct {
	lo, hi      int
	left, right int
	// nonEmpty counts the blocks of the range that hold rows; hull is
	// unset while it is 0.
	nonEmpty int
	hull     core.Desc
}

// buildHulls indexes descs, in block order, by the hulls of consecutive
// block ranges. A hull contains every description under it, and
// Desc.QueryMayMatch is monotone in the description, so a query that
// cannot match a node's hull cannot match any block below it: descending
// the index prunes exactly the blocks a linear scan would. Blocks of a
// qd-tree layout are its leaves in left-to-right order, so consecutive
// blocks share ancestors and their hulls stay tight: the descent is the
// Sec. 3.3 routing, and it needs no tree. The hulls are built from the
// frozen block descriptions, never the tree's inner ones, which stop
// covering their leaves once rows beyond the schema bounds are ingested
// and re-frozen.
//
// It returns nil, and BlocksFor checks every block, when there are no
// blocks or the descriptions differ in shape (column count, categorical
// mask columns and widths, advanced-cut vector lengths): a hull is a
// superset only of descriptions shaped like it.
func buildHulls(descs []core.Desc, counts []int) []hullNode {
	n := len(descs)
	if n == 0 || !sameShape(descs) {
		return nil
	}
	chunks := (n + hullLeafBlocks - 1) / hullLeafBlocks
	nodes := make([]hullNode, 0, 2*chunks-1)
	var build func(c0, c1 int) int
	build = func(c0, c1 int) int {
		i := len(nodes)
		nodes = append(nodes, hullNode{lo: c0 * hullLeafBlocks, hi: min(c1*hullLeafBlocks, n), left: -1, right: -1})
		if c1-c0 == 1 {
			nd := &nodes[i]
			for b := nd.lo; b < nd.hi; b++ {
				if counts[b] != 0 {
					widen(nd, &descs[b], 1)
				}
			}
			return i
		}
		mid := (c0 + c1) / 2
		l := build(c0, mid)
		r := build(mid, c1)
		nd := &nodes[i]
		nd.left, nd.right = l, r
		for _, child := range []int{l, r} {
			if k := nodes[child].nonEmpty; k > 0 {
				widen(nd, &nodes[child].hull, k)
			}
		}
		return i
	}
	build(0, chunks)
	return nodes
}

// widen grows nd's hull to contain d, the hull of k non-empty blocks.
func widen(nd *hullNode, d *core.Desc, k int) {
	if nd.nonEmpty == 0 {
		nd.hull = d.Clone()
	} else {
		nd.hull.Widen(d)
	}
	nd.nonEmpty += k
}

// sameShape reports whether every description has the first one's
// column count, mask columns and widths, and advanced-cut vector lengths.
func sameShape(descs []core.Desc) bool {
	first := &descs[0]
	for i := range descs {
		d := &descs[i]
		if len(d.Lo) != len(first.Lo) || len(d.Hi) != len(first.Lo) || len(d.Masks) != len(first.Masks) ||
			d.AdvMay == nil || d.AdvMayNot == nil || first.AdvMay == nil || first.AdvMayNot == nil ||
			d.AdvMay.Len() != first.AdvMay.Len() || d.AdvMayNot.Len() != first.AdvMayNot.Len() {
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

// descend appends, in block order, the blocks under node i that q must
// scan.
func (l *Layout) descend(i int, q expr.Query, out []int) []int {
	nd := &l.hulls[i]
	if nd.nonEmpty == 0 || !nd.hull.QueryMayMatch(q) {
		return out
	}
	if nd.left < 0 {
		return l.scanBlocks(nd.lo, nd.hi, q, out)
	}
	out = l.descend(nd.left, q, out)
	return l.descend(nd.right, q, out)
}

// scanBlocks appends the blocks in [lo, hi) that q must scan: non-empty,
// description intersecting q, and not proven skippable by ExtraSkip.
func (l *Layout) scanBlocks(lo, hi int, q expr.Query, out []int) []int {
	for b := lo; b < hi; b++ {
		if l.Counts[b] == 0 {
			continue
		}
		if !l.Descs[b].QueryMayMatch(q) {
			continue
		}
		if l.ExtraSkip != nil && l.ExtraSkip(b, q) {
			continue
		}
		out = append(out, b)
	}
	return out
}
