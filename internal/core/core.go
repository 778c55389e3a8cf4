// Package core implements the query-data routing tree (qd-tree) of
// Yang et al., SIGMOD 2020 — the paper's primary contribution.
//
// A qd-tree is a binary tree over the table's data space. Each internal
// node carries a cut p; its left child holds rows satisfying p and its
// right child rows satisfying ¬p (Sec. 3). Each node has a semantic
// description (paper Table 1): a hypercube range over numeric columns, a
// per-categorical-column bit mask, and — for the Sec. 6.1 extension — an
// advanced-cut bit vector. Leaves correspond to data blocks; descriptions
// are complete: every record matching a leaf's description is routed to
// that leaf.
package core

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/table"
)

// Cut is one edge predicate of the tree: either a unary predicate or a
// reference into the tree's advanced-cut table (Sec. 6.1).
type Cut struct {
	IsAdv bool
	Pred  expr.Pred // when !IsAdv
	Adv   int       // index into Tree.ACs when IsAdv
}

// UnaryCut wraps a unary predicate as a cut.
func UnaryCut(p expr.Pred) Cut { return Cut{Pred: p} }

// AdvancedCut wraps an advanced-cut index as a cut.
func AdvancedCut(i int) Cut { return Cut{IsAdv: true, Adv: i} }

// ExtractCuts derives the candidate cut set from a workload (Sec. 3.4):
// all pushed-down unary predicates, de-duplicated, plus one advanced cut
// per distinct reference. Shared by the qd facade and the serving
// subsystem's background replanner.
func ExtractCuts(queries []expr.Query) []Cut {
	seen := make(map[string]bool)
	var out []Cut
	for _, q := range queries {
		for _, p := range q.Preds() {
			c := UnaryCut(p)
			if !seen[c.Key()] {
				seen[c.Key()] = true
				out = append(out, c)
			}
		}
		for _, a := range q.AdvRefs() {
			c := AdvancedCut(a)
			if !seen[c.Key()] {
				seen[c.Key()] = true
				out = append(out, c)
			}
		}
	}
	return out
}

// Eval evaluates the cut on a row given the tree's advanced-cut table.
func (c Cut) Eval(row []int64, acs []expr.AdvCut) bool {
	if c.IsAdv {
		return acs[c.Adv].Eval(row)
	}
	return c.Pred.Eval(row)
}

// String renders the cut with positional names; see StringWith.
func (c Cut) String() string { return c.StringWith(nil, nil) }

// StringWith renders the cut with column names and the advanced-cut table.
func (c Cut) StringWith(names []string, acs []expr.AdvCut) string {
	if c.IsAdv {
		if acs != nil && c.Adv < len(acs) {
			return acs[c.Adv].StringWith(names)
		}
		return fmt.Sprintf("AC%d", c.Adv)
	}
	return c.Pred.StringWith(names)
}

// Key returns a canonical identity string for de-duplication.
func (c Cut) Key() string {
	if c.IsAdv {
		return fmt.Sprintf("AC%d", c.Adv)
	}
	return c.Pred.Key()
}

// Desc is a node's semantic description (paper Table 1): the hypercube
// range, categorical masks, and advanced-cut bits. It is a conservative
// (complete) over-approximation of the node's contents used for skipping.
type Desc struct {
	// Lo and Hi give the half-open interval [Lo[c], Hi[c]) per column.
	// Categorical columns keep their full [0, Dom) interval; their masks
	// carry the precision.
	Lo, Hi []int64
	// Masks maps categorical column ordinal -> |Dom|-bit presence mask.
	Masks map[int]*expr.Bitset
	// AdvMay[i] is 1 when the node may contain rows satisfying advanced
	// cut i; AdvMayNot[i] is 1 when it may contain rows violating it.
	// Tracking both sides preserves completeness under ¬AC cuts.
	AdvMay, AdvMayNot *expr.Bitset
}

// NewRootDesc builds the whole-table description: full intervals, full
// masks, and both advanced-cut sides possible.
func NewRootDesc(s *table.Schema, numAC int) Desc {
	n := s.NumCols()
	d := Desc{
		Lo:        make([]int64, n),
		Hi:        make([]int64, n),
		Masks:     make(map[int]*expr.Bitset),
		AdvMay:    expr.NewFullBitset(numAC),
		AdvMayNot: expr.NewFullBitset(numAC),
	}
	for c, col := range s.Cols {
		if col.Kind == table.Categorical {
			d.Lo[c], d.Hi[c] = 0, col.Dom
			d.Masks[c] = expr.NewFullBitset(int(col.Dom))
		} else {
			d.Lo[c], d.Hi[c] = col.Min, col.Max+1
		}
	}
	return d
}

// Clone deep-copies the description.
func (d Desc) Clone() Desc {
	out := Desc{
		Lo:        append([]int64(nil), d.Lo...),
		Hi:        append([]int64(nil), d.Hi...),
		Masks:     make(map[int]*expr.Bitset, len(d.Masks)),
		AdvMay:    d.AdvMay.Clone(),
		AdvMayNot: d.AdvMayNot.Clone(),
	}
	for c, m := range d.Masks {
		out.Masks[c] = m.Clone()
	}
	return out
}

// Widen grows d to contain o: the hull of the two intervals per column
// and the union of every categorical mask and advanced-cut bitset. The
// two descriptions must have the same shape (columns, mask columns and
// widths, advanced-cut count), and d must own its slices and bitsets.
func (d *Desc) Widen(o *Desc) {
	for c := range d.Lo {
		d.Lo[c] = min(d.Lo[c], o.Lo[c])
		d.Hi[c] = max(d.Hi[c], o.Hi[c])
	}
	for c, m := range d.Masks {
		m.UnionWith(o.Masks[c])
	}
	d.AdvMay.UnionWith(o.AdvMay)
	d.AdvMayNot.UnionWith(o.AdvMayNot)
}

// Empty reports whether the description provably contains no rows.
func (d Desc) Empty() bool {
	for c := range d.Lo {
		if d.Lo[c] >= d.Hi[c] {
			return true
		}
	}
	for _, m := range d.Masks {
		if m.None() {
			return true
		}
	}
	return false
}

// restrict applies predicate p (when left) or ¬p (when !left) to the
// description in place. Equality on numeric columns tightens only the
// positive side; the negative side keeps the parent interval, which is a
// sound relaxation (the routing predicates stay exact).
func (d *Desc) restrict(p expr.Pred, left bool, s *table.Schema) {
	c := p.Col
	if m, isCat := d.Masks[c]; isCat && (p.Op == expr.Eq || p.Op == expr.In) {
		if p.Op == expr.Eq {
			if left {
				keep := expr.NewBitset(m.Len())
				if p.Literal >= 0 && p.Literal < int64(m.Len()) && m.Get(int(p.Literal)) {
					keep.Set(int(p.Literal))
				}
				d.Masks[c] = keep
			} else if p.Literal >= 0 && p.Literal < int64(m.Len()) {
				m.Clear(int(p.Literal))
			}
			return
		}
		set := expr.NewBitset(m.Len())
		for _, v := range p.Set {
			if v >= 0 && v < int64(m.Len()) {
				set.Set(int(v))
			}
		}
		if left {
			m.IntersectWith(set)
		} else {
			m.SubtractWith(set)
		}
		return
	}
	lit := p.Literal
	min64 := func(a, b int64) int64 {
		if a < b {
			return a
		}
		return b
	}
	max64 := func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	}
	switch p.Op {
	case expr.Lt: // left: x < lit; right: x >= lit
		if left {
			d.Hi[c] = min64(d.Hi[c], lit)
		} else {
			d.Lo[c] = max64(d.Lo[c], lit)
		}
	case expr.Le: // left: x <= lit; right: x > lit
		if left {
			d.Hi[c] = min64(d.Hi[c], lit+1)
		} else {
			d.Lo[c] = max64(d.Lo[c], lit+1)
		}
	case expr.Gt: // left: x > lit; right: x <= lit
		if left {
			d.Lo[c] = max64(d.Lo[c], lit+1)
		} else {
			d.Hi[c] = min64(d.Hi[c], lit+1)
		}
	case expr.Ge: // left: x >= lit; right: x < lit
		if left {
			d.Lo[c] = max64(d.Lo[c], lit)
		} else {
			d.Hi[c] = min64(d.Hi[c], lit)
		}
	case expr.Eq: // numeric equality
		if left {
			d.Lo[c] = max64(d.Lo[c], lit)
			d.Hi[c] = min64(d.Hi[c], lit+1)
		}
		// right side: interval unchanged (hole not representable).
	case expr.In:
		// numeric IN: only the span [min(Set), max(Set)] is representable.
		if left && len(p.Set) > 0 {
			d.Lo[c] = max64(d.Lo[c], p.Set[0])
			d.Hi[c] = min64(d.Hi[c], p.Set[len(p.Set)-1]+1)
		}
	}
}

// PredMayMatch reports whether predicate p can be satisfied by some point
// of the description. This is the Sec. 3.3 leaf-intersection check for a
// single unary predicate.
func (d *Desc) PredMayMatch(p expr.Pred) bool {
	c := p.Col
	// Only = and IN consult a categorical mask; range comparisons on a
	// categorical column use the interval check below (ordered dictionary
	// codes), so they skip the map lookup.
	if p.Op == expr.Eq || p.Op == expr.In {
		if m, isCat := d.Masks[c]; isCat {
			if p.Op == expr.Eq {
				return p.Literal >= 0 && p.Literal < int64(m.Len()) && m.Get(int(p.Literal))
			}
			for _, v := range p.Set {
				if v >= 0 && v < int64(m.Len()) && m.Get(int(v)) {
					return true
				}
			}
			return false
		}
	}
	lo, hi := d.Lo[c], d.Hi[c] // [lo, hi)
	if lo >= hi {
		return false
	}
	switch p.Op {
	case expr.Lt:
		return lo < p.Literal
	case expr.Le:
		return lo <= p.Literal
	case expr.Gt:
		return hi-1 > p.Literal
	case expr.Ge:
		return hi-1 >= p.Literal
	case expr.Eq:
		return p.Literal >= lo && p.Literal < hi
	case expr.In:
		for _, v := range p.Set {
			if v >= lo && v < hi {
				return true
			}
		}
		return false
	}
	return true
}

// QueryMayMatch reports whether query q can select any point of the
// description: an AND intersects iff all conjuncts do, an OR iff any
// disjunct does (Sec. 3.3).
func (d *Desc) QueryMayMatch(q expr.Query) bool {
	if q.Root == nil {
		return true
	}
	return d.nodeMayMatch(q.Root)
}

func (d *Desc) nodeMayMatch(n *expr.Node) bool {
	switch n.Kind {
	case expr.KindPred:
		return d.PredMayMatch(n.Pred)
	case expr.KindAdv:
		return n.Adv >= d.AdvMay.Len() || d.AdvMay.Get(n.Adv)
	case expr.KindAnd:
		for _, c := range n.Children {
			if !d.nodeMayMatch(c) {
				return false
			}
		}
		return true
	case expr.KindOr:
		for _, c := range n.Children {
			if d.nodeMayMatch(c) {
				return true
			}
		}
		return false
	}
	return true
}

// Node is one qd-tree node. Internal nodes carry a Cut and two children;
// leaves carry a block ID. Count is the number of full-dataset rows routed
// to the subtree (set by RouteTable / Freeze).
type Node struct {
	ID          int
	Cut         *Cut
	Left, Right *Node
	Desc        Desc
	BlockID     int // leaf block ordinal; -1 for internal nodes
	Count       int
	Depth       int
}

// IsLeaf reports whether the node has no cut.
func (n *Node) IsLeaf() bool { return n.Cut == nil }

// Tree is a complete qd-tree: schema, advanced-cut table, and node graph.
type Tree struct {
	Schema *table.Schema
	ACs    []expr.AdvCut
	Root   *Node
	leaves []*Node
	nextID int
}

// NewTree returns a single-node tree (the root spans the whole table).
func NewTree(s *table.Schema, acs []expr.AdvCut) *Tree {
	t := &Tree{Schema: s, ACs: acs}
	t.Root = &Node{ID: 0, BlockID: -1, Desc: NewRootDesc(s, len(acs))}
	t.nextID = 1
	t.leaves = nil // computed lazily
	return t
}

// Clone returns a deep copy of the node graph and every description, so
// the copy can be re-routed and re-frozen — Freeze rewrites leaf
// descriptions and widens inner ones in place — while layouts derived
// from the original keep pruning with theirs. The schema, the
// advanced-cut table and the cuts are immutable and stay shared.
func (t *Tree) Clone() *Tree {
	var clone func(n *Node) *Node
	clone = func(n *Node) *Node {
		if n == nil {
			return nil
		}
		c := *n
		c.Desc = n.Desc.Clone()
		c.Left, c.Right = clone(n.Left), clone(n.Right)
		return &c
	}
	return &Tree{Schema: t.Schema, ACs: t.ACs, Root: clone(t.Root), nextID: t.nextID}
}

// Split applies cut c to leaf n, producing two children with restricted
// descriptions (the T ⊕ (p, n) operation of Sec. 4). It panics if n already
// has children.
func (t *Tree) Split(n *Node, c Cut) (left, right *Node) {
	if !n.IsLeaf() {
		panic("core: split of non-leaf node")
	}
	cc := c
	n.Cut = &cc
	ld, rd := n.Desc.Clone(), n.Desc.Clone()
	if c.IsAdv {
		ld.AdvMayNot.Clear(c.Adv) // left satisfies AC: no violating rows
		rd.AdvMay.Clear(c.Adv)    // right violates AC: no satisfying rows
	} else {
		ld.restrict(c.Pred, true, t.Schema)
		rd.restrict(c.Pred, false, t.Schema)
	}
	left = &Node{ID: t.nextID, BlockID: -1, Desc: ld, Depth: n.Depth + 1}
	right = &Node{ID: t.nextID + 1, BlockID: -1, Desc: rd, Depth: n.Depth + 1}
	t.nextID += 2
	n.Left, n.Right = left, right
	t.leaves = nil
	return left, right
}

// Leaves returns the leaf nodes in stable left-to-right order and assigns
// block IDs 0..k-1 in that order.
func (t *Tree) Leaves() []*Node {
	if t.leaves != nil {
		return t.leaves
	}
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			n.BlockID = len(out)
			out = append(out, n)
			return
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	t.leaves = out
	return out
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int {
	n := 0
	t.Walk(func(*Node) { n++ })
	return n
}

// Depth returns the maximum leaf depth.
func (t *Tree) Depth() int {
	d := 0
	t.Walk(func(n *Node) {
		if n.IsLeaf() && n.Depth > d {
			d = n.Depth
		}
	})
	return d
}

// Walk visits every node pre-order.
func (t *Tree) Walk(fn func(*Node)) {
	var rec func(n *Node)
	rec = func(n *Node) {
		if n == nil {
			return
		}
		fn(n)
		rec(n.Left)
		rec(n.Right)
	}
	rec(t.Root)
}

// RouteRow routes one row to its leaf and returns the leaf node. Each row
// lands in exactly one leaf because every split is binary (p / ¬p).
func (t *Tree) RouteRow(row []int64) *Node {
	n := t.Root
	for !n.IsLeaf() {
		if n.Cut.Eval(row, t.ACs) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n
}

// RouteTable routes every row of tbl and returns the per-row block ID. It
// partitions row-index slices down the tree so each cut is evaluated
// column-at-a-time (the vectorized strategy of Sec. 3.1), and it updates
// each node's Count.
func (t *Tree) RouteTable(tbl *table.Table) []int {
	t.Leaves() // assign block IDs
	bids := make([]int, tbl.N)
	rows := make([]int, tbl.N)
	for i := range rows {
		rows[i] = i
	}
	t.routeRows(t.Root, tbl, rows, bids)
	return bids
}

func (t *Tree) routeRows(n *Node, tbl *table.Table, rows []int, bids []int) {
	n.Count = len(rows)
	if n.IsLeaf() {
		for _, r := range rows {
			bids[r] = n.BlockID
		}
		return
	}
	left, right := t.PartitionRows(tbl, rows, *n.Cut)
	t.routeRows(n.Left, tbl, left, bids)
	t.routeRows(n.Right, tbl, right, bids)
}

// PartitionRows splits the row-index set by the cut: rows satisfying the
// cut go left, the rest right. The unary path reads a single column.
func (t *Tree) PartitionRows(tbl *table.Table, rows []int, c Cut) (left, right []int) {
	left = make([]int, 0, len(rows)/2+1)
	right = make([]int, 0, len(rows)/2+1)
	if c.IsAdv {
		ac := t.ACs[c.Adv]
		lc, rc := tbl.Cols[ac.Left], tbl.Cols[ac.Right]
		for _, r := range rows {
			take := false
			switch ac.Op {
			case expr.Lt:
				take = lc[r] < rc[r]
			case expr.Le:
				take = lc[r] <= rc[r]
			case expr.Gt:
				take = lc[r] > rc[r]
			case expr.Ge:
				take = lc[r] >= rc[r]
			case expr.Eq:
				take = lc[r] == rc[r]
			}
			if take {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
		return left, right
	}
	col := tbl.Cols[c.Pred.Col]
	p := c.Pred
	switch p.Op {
	case expr.Lt:
		for _, r := range rows {
			if col[r] < p.Literal {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
	case expr.Le:
		for _, r := range rows {
			if col[r] <= p.Literal {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
	case expr.Gt:
		for _, r := range rows {
			if col[r] > p.Literal {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
	case expr.Ge:
		for _, r := range rows {
			if col[r] >= p.Literal {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
	case expr.Eq:
		for _, r := range rows {
			if col[r] == p.Literal {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
	case expr.In:
		for _, r := range rows {
			if p.InSet(col[r]) {
				left = append(left, r)
			} else {
				right = append(right, r)
			}
		}
	}
	return left, right
}

// QueryBlocks returns the sorted block IDs of all leaves whose semantic
// description intersects the query — the BID IN (...) list of Sec. 3.3.
func (t *Tree) QueryBlocks(q expr.Query) []int {
	var out []int
	for _, leaf := range t.Leaves() {
		if leaf.Desc.QueryMayMatch(q) {
			out = append(out, leaf.BlockID)
		}
	}
	return out
}

// Freeze tightens every leaf description to the min-max hull (and observed
// categorical values / advanced-cut outcomes) of the rows actually routed
// there, per the optimization in Sec. 3.2: "replace each leaf's range with
// a min-max index over the leaf's records". bids must come from RouteTable
// on the same table, and every value must be at most table.MaxValue: a
// leaf's interval ends one past its largest value.
//
// Rows beyond the schema bounds (ingest accepts any numeric value) can
// give a leaf an interval outside its ancestors' split-time ones, so
// Freeze then widens every inner description, bottom-up, to contain its
// non-empty children's: each node keeps describing everything below it.
// On rows inside the bounds the frozen leaves already lie within their
// ancestors and the widening changes nothing.
func (t *Tree) Freeze(tbl *table.Table, bids []int) {
	t.freezeLeaves(tbl, bids)
	widenAncestors(t.Root)
}

// widenAncestors widens every inner description under n to contain its
// non-empty children's and reports whether n's subtree holds any row.
func widenAncestors(n *Node) bool {
	if n.IsLeaf() {
		return n.Count > 0
	}
	l, r := widenAncestors(n.Left), widenAncestors(n.Right)
	if l {
		n.Desc.Widen(&n.Left.Desc)
	}
	if r {
		n.Desc.Widen(&n.Right.Desc)
	}
	return l || r
}

// freezeLeaves tightens each leaf description to the rows bids routes
// to it and sets the leaf counts.
func (t *Tree) freezeLeaves(tbl *table.Table, bids []int) {
	leaves := t.Leaves()
	perLeaf := make([][]int, len(leaves))
	for r, b := range bids {
		perLeaf[b] = append(perLeaf[b], r)
	}
	for li, leaf := range leaves {
		rows := perLeaf[li]
		leaf.Count = len(rows)
		if len(rows) == 0 {
			// Mark provably empty.
			for c := range leaf.Desc.Lo {
				leaf.Desc.Hi[c] = leaf.Desc.Lo[c]
			}
			continue
		}
		for c, col := range t.Schema.Cols {
			lo, hi, _ := tbl.MinMax(c, rows)
			leaf.Desc.Lo[c], leaf.Desc.Hi[c] = lo, hi+1
			if col.Kind == table.Categorical {
				m := expr.NewBitset(int(col.Dom))
				src := tbl.Cols[c]
				for _, r := range rows {
					v := src[r]
					if v >= 0 && v < col.Dom {
						m.Set(int(v))
					}
				}
				leaf.Desc.Masks[c] = m
			}
		}
		if len(t.ACs) > 0 {
			may, mayNot := expr.NewBitset(len(t.ACs)), expr.NewBitset(len(t.ACs))
			rowBuf := make([]int64, t.Schema.NumCols())
			for _, r := range rows {
				rowBuf = tbl.Row(r, rowBuf)
				for i, ac := range t.ACs {
					if ac.Eval(rowBuf) {
						may.Set(i)
					} else {
						mayNot.Set(i)
					}
				}
			}
			leaf.Desc.AdvMay, leaf.Desc.AdvMayNot = may, mayNot
		}
	}
}

// CutCounts returns, per column name (or "AC<i>" for advanced cuts), the
// number of cuts on that column at each depth — the data behind Figure 9.
func (t *Tree) CutCounts() map[string][]int {
	depth := t.Depth()
	out := make(map[string][]int)
	t.Walk(func(n *Node) {
		if n.IsLeaf() {
			return
		}
		key := ""
		if n.Cut.IsAdv {
			key = fmt.Sprintf("AC%d", n.Cut.Adv)
		} else {
			key = t.Schema.Cols[n.Cut.Pred.Col].Name
		}
		row := out[key]
		if row == nil {
			row = make([]int, depth+1)
			out[key] = row
		}
		row[n.Depth]++
	})
	return out
}

// LeafPredicate returns the exact semantic predicate of a leaf: the
// conjunction of cut literals along the root-to-leaf path.
func (t *Tree) LeafPredicate(leaf *Node) string {
	var path []string
	var walk func(n *Node) bool
	walk = func(n *Node) bool {
		if n == leaf {
			return true
		}
		if n.IsLeaf() {
			return false
		}
		cs := n.Cut.StringWith(t.Schema.Names(), t.ACs)
		if walk(n.Left) {
			path = append(path, cs)
			return true
		}
		if walk(n.Right) {
			path = append(path, "NOT("+cs+")")
			return true
		}
		return false
	}
	if !walk(t.Root) {
		return ""
	}
	// path was appended leaf-to-root; reverse for readability.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	if len(path) == 0 {
		return "TRUE"
	}
	return strings.Join(path, " AND ")
}

// String renders the tree structure for debugging and the qdtool CLI.
func (t *Tree) String() string {
	var b strings.Builder
	names := t.Schema.Names()
	var rec func(n *Node, indent string)
	rec = func(n *Node, indent string) {
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%sleaf B%d (count=%d)\n", indent, n.BlockID, n.Count)
			return
		}
		fmt.Fprintf(&b, "%s[%s] (count=%d)\n", indent, n.Cut.StringWith(names, t.ACs), n.Count)
		rec(n.Left, indent+"  ")
		rec(n.Right, indent+"  ")
	}
	t.Leaves()
	rec(t.Root, "")
	return b.String()
}
