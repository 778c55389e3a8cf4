package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/table"
)

// twoColSchema: cpu numeric [0,100), mode categorical of 3 values — enough
// to exercise ranges and masks.
func twoColSchema() *table.Schema {
	return table.MustSchema([]table.Column{
		{Name: "cpu", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "mode", Kind: table.Categorical, Dom: 3, Dict: []string{"LOW", "MED", "HIGH"}},
	})
}

func randomTable(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	tbl := table.New(twoColSchema(), n)
	for i := 0; i < n; i++ {
		tbl.AppendRow([]int64{int64(rng.Intn(100)), int64(rng.Intn(3))})
	}
	return tbl
}

func TestRootDesc(t *testing.T) {
	d := NewRootDesc(twoColSchema(), 2)
	if d.Lo[0] != 0 || d.Hi[0] != 100 {
		t.Errorf("numeric interval = [%d,%d)", d.Lo[0], d.Hi[0])
	}
	if d.Masks[1].Count() != 3 {
		t.Error("categorical mask must start full")
	}
	if !d.AdvMay.Get(0) || !d.AdvMayNot.Get(1) {
		t.Error("advanced-cut bits must start full on both sides")
	}
	if d.Empty() {
		t.Error("root desc must not be empty")
	}
}

func TestSplitRangeRestriction(t *testing.T) {
	// Mirrors the paper's Sec. 3.2 example: cut cpu < 10 on the root.
	tree := NewTree(twoColSchema(), nil)
	l, r := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 10}))
	if l.Desc.Lo[0] != 0 || l.Desc.Hi[0] != 10 {
		t.Errorf("left = [%d,%d), want [0,10)", l.Desc.Lo[0], l.Desc.Hi[0])
	}
	if r.Desc.Lo[0] != 10 || r.Desc.Hi[0] != 100 {
		t.Errorf("right = [%d,%d), want [10,100)", r.Desc.Lo[0], r.Desc.Hi[0])
	}
}

func TestSplitCategoricalMask(t *testing.T) {
	// Paper Sec. 3.2: cutting on priority = MED keeps the left mask full
	// at MED only... left keeps [1,1,1]? No: the paper keeps the full
	// parent mask on the left ([1,1,1]) because "may appear" is sound,
	// but our implementation tightens the left to exactly {MED}, which is
	// strictly more precise and still complete.
	tree := NewTree(twoColSchema(), nil)
	l, r := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 1, Op: expr.Eq, Literal: 1}))
	lm, rm := l.Desc.Masks[1], r.Desc.Masks[1]
	if !lm.Get(1) || lm.Count() != 1 {
		t.Errorf("left mask = %v bits", lm.Count())
	}
	if rm.Get(1) || !rm.Get(0) || !rm.Get(2) {
		t.Error("right mask must be [1,0,1]")
	}
}

func TestSplitInMask(t *testing.T) {
	tree := NewTree(twoColSchema(), nil)
	l, r := tree.Split(tree.Root, UnaryCut(expr.NewIn(1, []int64{0, 2})))
	if !l.Desc.Masks[1].Get(0) || l.Desc.Masks[1].Get(1) || !l.Desc.Masks[1].Get(2) {
		t.Error("left IN mask wrong")
	}
	if r.Desc.Masks[1].Get(0) || !r.Desc.Masks[1].Get(1) || r.Desc.Masks[1].Get(2) {
		t.Error("right IN mask wrong")
	}
}

func TestSplitAdvancedCut(t *testing.T) {
	acs := []expr.AdvCut{{Left: 0, Op: expr.Lt, Right: 1}}
	schema := table.MustSchema([]table.Column{
		{Name: "a", Kind: table.Numeric, Min: 0, Max: 9},
		{Name: "b", Kind: table.Numeric, Min: 0, Max: 9},
	})
	tree := NewTree(schema, acs)
	l, r := tree.Split(tree.Root, AdvancedCut(0))
	if !l.Desc.AdvMay.Get(0) || l.Desc.AdvMayNot.Get(0) {
		t.Error("left child: may=1 mayNot=0 expected")
	}
	if r.Desc.AdvMay.Get(0) || !r.Desc.AdvMayNot.Get(0) {
		t.Error("right child: may=0 mayNot=1 expected")
	}
	// A query requiring AC0 must skip the right child.
	q := expr.Query{Root: expr.NewAdv(0)}
	if r.Desc.QueryMayMatch(q) {
		t.Error("right child must skip AC0 query")
	}
	if !l.Desc.QueryMayMatch(q) {
		t.Error("left child must not skip AC0 query")
	}
}

func TestRoutingUniqueAndComplete(t *testing.T) {
	tbl := randomTable(2000, 3)
	tree := NewTree(tbl.Schema, nil)
	l, _ := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 50}))
	tree.Split(l, UnaryCut(expr.Pred{Col: 1, Op: expr.Eq, Literal: 0}))
	bids := tree.RouteTable(tbl)
	leaves := tree.Leaves()
	if len(leaves) != 3 {
		t.Fatalf("leaves = %d", len(leaves))
	}
	// Every row lands in exactly one leaf; counts agree.
	total := 0
	for _, leaf := range leaves {
		total += leaf.Count
	}
	if total != tbl.N {
		t.Fatalf("leaf counts sum to %d, want %d", total, tbl.N)
	}
	// RouteRow agrees with RouteTable.
	row := make([]int64, 2)
	for i := 0; i < tbl.N; i += 37 {
		row = tbl.Row(i, row)
		if got := tree.RouteRow(row).BlockID; got != bids[i] {
			t.Fatalf("row %d: RouteRow=%d RouteTable=%d", i, got, bids[i])
		}
	}
	// Completeness: every row satisfies its own leaf's semantic
	// description (range + mask).
	tree.Freeze(tbl, bids)
	for i := 0; i < tbl.N; i += 17 {
		row = tbl.Row(i, row)
		leaf := leaves[bids[i]]
		for c := range row {
			if row[c] < leaf.Desc.Lo[c] || row[c] >= leaf.Desc.Hi[c] {
				t.Fatalf("row %d violates its leaf description on col %d", i, c)
			}
		}
		if m := leaf.Desc.Masks[1]; !m.Get(int(row[1])) {
			t.Fatalf("row %d categorical value not in leaf mask", i)
		}
	}
}

func TestQueryBlocksConservative(t *testing.T) {
	// QueryBlocks must return a superset of the blocks containing matches.
	tbl := randomTable(3000, 5)
	tree := NewTree(tbl.Schema, nil)
	l, r := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 33}))
	tree.Split(l, UnaryCut(expr.Pred{Col: 1, Op: expr.Eq, Literal: 2}))
	tree.Split(r, UnaryCut(expr.Pred{Col: 0, Op: expr.Ge, Literal: 66}))
	bids := tree.RouteTable(tbl)
	tree.Freeze(tbl, bids)

	queries := []expr.Query{
		expr.AndQ("q1", expr.Pred{Col: 0, Op: expr.Lt, Literal: 10}),
		expr.AndQ("q2", expr.Pred{Col: 1, Op: expr.Eq, Literal: 2}, expr.Pred{Col: 0, Op: expr.Ge, Literal: 50}),
		{Name: "q3", Root: expr.Or(
			expr.NewPred(expr.Pred{Col: 0, Op: expr.Lt, Literal: 5}),
			expr.NewPred(expr.Pred{Col: 0, Op: expr.Gt, Literal: 95}))},
	}
	row := make([]int64, 2)
	for _, q := range queries {
		sel := make(map[int]bool)
		for _, b := range tree.QueryBlocks(q) {
			sel[b] = true
		}
		for i := 0; i < tbl.N; i++ {
			row = tbl.Row(i, row)
			if q.Eval(row, nil) && !sel[bids[i]] {
				t.Fatalf("%s: matching row %d in pruned block %d", q.Name, i, bids[i])
			}
		}
	}
}

func TestFreezeTightens(t *testing.T) {
	tbl := randomTable(1000, 7)
	tree := NewTree(tbl.Schema, nil)
	tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 50}))
	bids := tree.RouteTable(tbl)
	tree.Freeze(tbl, bids)
	left := tree.Leaves()[0]
	// Frozen hull must be within the logical interval and match the data.
	lo, hi, _ := tbl.MinMax(0, nil)
	_ = hi
	if left.Desc.Lo[0] < lo || left.Desc.Hi[0] > 50 {
		t.Errorf("frozen left interval [%d,%d) exceeds logical bounds", left.Desc.Lo[0], left.Desc.Hi[0])
	}
}

func TestSplitPanicsOnInternal(t *testing.T) {
	tree := NewTree(twoColSchema(), nil)
	tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 10}))
	defer func() {
		if recover() == nil {
			t.Fatal("second split of same node must panic")
		}
	}()
	tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 20}))
}

func TestSerializeRoundTrip(t *testing.T) {
	acs := []expr.AdvCut{{Left: 0, Op: expr.Lt, Right: 1}}
	schema := table.MustSchema([]table.Column{
		{Name: "a", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "b", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "c", Kind: table.Categorical, Dom: 5, Dict: []string{"p", "q", "r", "s", "t"}},
	})
	tree := NewTree(schema, acs)
	l, _ := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 42}))
	tree.Split(l, AdvancedCut(0))
	rng := rand.New(rand.NewSource(11))
	tbl := table.New(schema, 500)
	for i := 0; i < 500; i++ {
		tbl.AppendRow([]int64{int64(rng.Intn(100)), int64(rng.Intn(100)), int64(rng.Intn(5))})
	}
	bids := tree.RouteTable(tbl)
	tree.Freeze(tbl, bids)

	var buf bytes.Buffer
	if err := tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded tree must route every row identically.
	row := make([]int64, 3)
	for i := 0; i < tbl.N; i++ {
		row = tbl.Row(i, row)
		if got.RouteRow(row).BlockID != tree.RouteRow(row).BlockID {
			t.Fatalf("row %d routes differently after round trip", i)
		}
	}
	// And prune identically.
	q := expr.AndQ("q", expr.Pred{Col: 0, Op: expr.Lt, Literal: 10})
	a, b := tree.QueryBlocks(q), got.QueryBlocks(q)
	if len(a) != len(b) {
		t.Fatalf("QueryBlocks differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("QueryBlocks differ: %v vs %v", a, b)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := Unmarshal([]byte(`{"version":9}`)); err == nil {
		t.Error("bad version must fail")
	}
	if _, err := Unmarshal([]byte(`{"version":1,"nodes":[]}`)); err == nil {
		t.Error("empty node list must fail")
	}
}

func TestLeafPredicate(t *testing.T) {
	tree := NewTree(twoColSchema(), nil)
	l, _ := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 10}))
	_, lr := tree.Split(l, UnaryCut(expr.Pred{Col: 1, Op: expr.Eq, Literal: 1}))
	got := tree.LeafPredicate(lr)
	want := "cpu < 10 AND NOT(mode = 1)"
	if got != want {
		t.Errorf("LeafPredicate = %q, want %q", got, want)
	}
}

func TestCutCountsDepths(t *testing.T) {
	tree := NewTree(twoColSchema(), nil)
	l, _ := tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 50}))
	tree.Split(l, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 25}))
	counts := tree.CutCounts()
	if counts["cpu"][0] != 1 || counts["cpu"][1] != 1 {
		t.Errorf("CutCounts = %v", counts)
	}
}

func TestTreeStringAndStats(t *testing.T) {
	tree := NewTree(twoColSchema(), nil)
	tree.Split(tree.Root, UnaryCut(expr.Pred{Col: 0, Op: expr.Lt, Literal: 50}))
	if tree.NumNodes() != 3 || tree.Depth() != 1 {
		t.Errorf("nodes=%d depth=%d", tree.NumNodes(), tree.Depth())
	}
	if s := tree.String(); len(s) == 0 {
		t.Error("empty render")
	}
}

// TestPredMayMatchTruthTable checks PredMayMatch exhaustively on small
// descriptions against its definition: = and IN on a categorical column
// ask whether some value in the mask satisfies the predicate; every other
// predicate asks whether some value of the interval does.
func TestPredMayMatchTruthTable(t *testing.T) {
	ref := func(d *Desc, p expr.Pred) bool {
		if m, isCat := d.Masks[p.Col]; isCat && (p.Op == expr.Eq || p.Op == expr.In) {
			for v := 0; v < m.Len(); v++ {
				if m.Get(v) && p.EvalValue(int64(v)) {
					return true
				}
			}
			return false
		}
		for v := d.Lo[p.Col]; v < d.Hi[p.Col]; v++ {
			if p.EvalValue(v) {
				return true
			}
		}
		return false
	}
	var preds []expr.Pred
	for c := 0; c < 2; c++ {
		for lit := int64(-1); lit <= 6; lit++ {
			for _, op := range []expr.Op{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq} {
				preds = append(preds, expr.Pred{Col: c, Op: op, Literal: lit})
			}
			preds = append(preds, expr.NewIn(c, []int64{lit}), expr.NewIn(c, []int64{lit, lit + 2}))
		}
	}
	d := NewRootDesc(twoColSchema(), 0)
	for lo := int64(0); lo <= 5; lo++ {
		for hi := int64(0); hi <= 5; hi++ {
			d.Lo[0], d.Hi[0] = lo, hi
			d.Lo[1], d.Hi[1] = min(lo, 3), min(hi, 3)
			for mask := 0; mask < 8; mask++ {
				m := expr.NewBitset(3)
				for v := 0; v < 3; v++ {
					if mask&(1<<v) != 0 {
						m.Set(v)
					}
				}
				d.Masks[1] = m
				for _, p := range preds {
					if got, want := d.PredMayMatch(p), ref(&d, p); got != want {
						t.Fatalf("%v on cpu [%d,%d) mode [%d,%d) mask %03b: got %v, want %v",
							p, d.Lo[0], d.Hi[0], d.Lo[1], d.Hi[1], mask, got, want)
					}
				}
			}
		}
	}
}

// TestRestrictAtInt64Ends splits an unfrozen one-column tree on every
// operator with a literal at either end of int64. A bound one past
// MaxInt64 must saturate instead of wrapping, so for every probe row the
// leaf the row routes to is among QueryBlocks of `x = row`.
func TestRestrictAtInt64Ends(t *testing.T) {
	s := table.MustSchema([]table.Column{{Name: "x", Kind: table.Numeric, Min: math.MinInt64, Max: table.MaxValue}})
	probes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 5, table.MaxValue - 1, table.MaxValue}
	var cuts []expr.Pred
	for _, lit := range []int64{math.MinInt64, math.MaxInt64} {
		for _, op := range []expr.Op{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq} {
			cuts = append(cuts, expr.Pred{Col: 0, Op: op, Literal: lit})
		}
		cuts = append(cuts, expr.NewIn(0, []int64{5, lit}))
	}
	for _, p := range cuts {
		tree := NewTree(s, nil)
		tree.Split(tree.Root, UnaryCut(p))
		for _, v := range probes {
			leaf := tree.RouteRow([]int64{v})
			q := expr.Query{Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Eq, Literal: v})}
			if got := tree.QueryBlocks(q); !slices.Contains(got, leaf.BlockID) {
				t.Errorf("cut %v: row x=%d routes to leaf %d, QueryBlocks(x = %d) = %v", p, v, leaf.BlockID, v, got)
			}
		}
	}
}
