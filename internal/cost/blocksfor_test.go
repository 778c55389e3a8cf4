package cost_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/baselines"
	"repro/internal/bottomup"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/greedy"
	"repro/internal/table"
	"repro/internal/workload"
)

// linearBlocksFor is the reference for Layout.BlocksFor: every block's
// description checked one by one, in block order.
func linearBlocksFor(l *cost.Layout, q expr.Query) []int {
	var out []int
	for b := range l.Descs {
		if l.Counts[b] == 0 || !l.Descs[b].QueryMayMatch(q) {
			continue
		}
		if l.ExtraSkip != nil && l.ExtraSkip(b, q) {
			continue
		}
		out = append(out, b)
	}
	return out
}

// propSchema has two numeric columns and two categorical ones, one of them
// wider than a 64-bit mask word.
func propSchema() *table.Schema {
	return table.MustSchema([]table.Column{
		{Name: "a", Kind: table.Numeric, Min: 0, Max: 999},
		{Name: "b", Kind: table.Numeric, Min: -50, Max: 50},
		{Name: "k", Kind: table.Categorical, Dom: 5},
		{Name: "m", Kind: table.Categorical, Dom: 70},
	})
}

var propACs = []expr.AdvCut{{Left: 0, Op: expr.Lt, Right: 1}, {Left: 1, Op: expr.Ge, Right: 3}}

// propTable draws n rows inside the schema bounds; with beyond set, about
// one numeric value in eight lies past its column's Max, as ingest allows.
func propTable(rng *rand.Rand, s *table.Schema, n int, beyond bool) *table.Table {
	tbl := table.New(s, n)
	row := make([]int64, s.NumCols())
	for i := 0; i < n; i++ {
		for c, col := range s.Cols {
			if col.Kind == table.Categorical {
				row[c] = rng.Int63n(col.Dom)
				continue
			}
			row[c] = col.Min + rng.Int63n(col.Max-col.Min+1)
			if beyond && rng.Intn(8) == 0 {
				row[c] = col.Max + 1 + rng.Int63n(2000)
			}
		}
		tbl.AppendRow(row)
	}
	return tbl
}

// propPred draws a unary predicate whose literal may fall outside the
// column's bounds.
func propPred(rng *rand.Rand, s *table.Schema) expr.Pred {
	c := rng.Intn(s.NumCols())
	col := s.Cols[c]
	lo, hi := col.Min, col.Max
	if col.Kind == table.Categorical {
		lo, hi = 0, col.Dom-1
	}
	lit := func() int64 { return lo - 3 + rng.Int63n(hi-lo+7) }
	ops := []expr.Op{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq, expr.In}
	op := ops[rng.Intn(len(ops))]
	if op == expr.In {
		vals := make([]int64, 1+rng.Intn(4))
		for i := range vals {
			vals[i] = lit()
		}
		return expr.NewIn(c, vals)
	}
	return expr.Pred{Col: c, Op: op, Literal: lit()}
}

// propNode draws a random AND/OR tree of predicates and advanced cuts.
func propNode(rng *rand.Rand, s *table.Schema, depth int) *expr.Node {
	switch k := rng.Intn(10); {
	case depth == 0 || k < 5:
		return expr.NewPred(propPred(rng, s))
	case k < 6:
		return expr.NewAdv(rng.Intn(len(propACs)))
	default:
		kids := make([]*expr.Node, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = propNode(rng, s, depth-1)
		}
		if k < 8 {
			return expr.And(kids...)
		}
		return expr.Or(kids...)
	}
}

func propQueries(rng *rand.Rand, s *table.Schema, n int) []expr.Query {
	qs := []expr.Query{{Name: "all"}}
	for i := 0; i < n; i++ {
		qs = append(qs, expr.Query{Name: fmt.Sprintf("q%d", i), Root: propNode(rng, s, 3)})
	}
	return qs
}

// propTree splits random leaves with random cuts until the tree has the
// given number of leaves.
func propTree(rng *rand.Rand, s *table.Schema, leaves int) *core.Tree {
	t := core.NewTree(s, propACs)
	for len(t.Leaves()) < leaves {
		ls := t.Leaves()
		cut := core.UnaryCut(propPred(rng, s))
		if rng.Intn(4) == 0 {
			cut = core.AdvancedCut(rng.Intn(len(propACs)))
		}
		t.Split(ls[rng.Intn(len(ls))], cut)
	}
	return t
}

// checkLayout compares BlocksFor with the linear reference on every query,
// and checks that every row a query selects lies in a returned block.
func checkLayout(t *testing.T, name string, l *cost.Layout, tbl *table.Table, queries []expr.Query) {
	t.Helper()
	nonEmpty := 0
	for b := range l.Descs {
		if l.Counts[b] != 0 {
			nonEmpty++
		}
	}
	if got := l.NonEmptyBlocks(); got != nonEmpty {
		t.Fatalf("%s, %d blocks: NonEmptyBlocks %d, want %d", name, l.NumBlocks(), got, nonEmpty)
	}
	row := make([]int64, tbl.Schema.NumCols())
	for _, q := range queries {
		got, want := l.BlocksFor(q), linearBlocksFor(l, q)
		if !slices.Equal(got, want) {
			t.Fatalf("%s, %d blocks, %s: BlocksFor %v, linear %v", name, l.NumBlocks(), q.StringWith(tbl.Schema.Names(), propACs), got, want)
		}
		for r := 0; r < tbl.N; r++ {
			if q.Eval(tbl.Row(r, row), propACs) {
				if _, found := slices.BinarySearch(got, l.BIDs[r]); !found {
					t.Fatalf("%s, %s: row %d (%v) matches but its block %d was pruned", name, q.Name, r, row, l.BIDs[r])
				}
			}
		}
	}
}

// TestBlocksForMatchesLinearScan pins the hull-index descent of BlocksFor
// to the block-by-block check on random tables and AND/OR queries with IN
// lists and advanced cuts, for every way a layout is built, at block
// counts around the index's 16-block bottom nodes, and with empty blocks.
func TestBlocksForMatchesLinearScan(t *testing.T) {
	s := propSchema()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		queries := propQueries(rng, s, 60)
		for _, nb := range []int{0, 1, 15, 16, 17, 33} {
			tag := fmt.Sprintf("seed %d", seed)
			if nb == 0 {
				empty := table.New(s, 0)
				checkLayout(t, tag+" NewLayout", cost.NewLayout("empty", empty, nil, 0, propACs), empty, queries)
				continue
			}
			// NewLayout, no tree: rows land in a random subset of the blocks,
			// so some blocks stay empty.
			tbl := propTable(rng, s, 40*nb, false)
			used := rng.Perm(nb)[:1+rng.Intn(nb)]
			bids := make([]int, tbl.N)
			for r := range bids {
				bids[r] = used[rng.Intn(len(used))]
			}
			checkLayout(t, tag+" NewLayout", cost.NewLayout("flat", tbl, bids, nb, propACs), tbl, queries)

			// FromTree over a random tree, then a clone of that tree
			// re-frozen over a bigger table holding rows beyond the
			// schema bounds.
			tree := propTree(rng, s, nb)
			checkLayout(t, tag+" FromTree", cost.FromTree("tree", tree, tbl), tbl, queries)
			bigger := table.New(s, 0)
			bigger.Concat(tbl)
			bigger.Concat(propTable(rng, s, 20*nb, true))
			checkLayout(t, tag+" Clone+FromTree", cost.FromTree("clone", tree.Clone(), bigger), bigger, queries)

			// The zone-map baselines widen their descriptions after the
			// layout is built.
			rnd, err := baselines.Random(tbl, nb, propACs, seed)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, tag+" Random", rnd, tbl, queries)
			rg, err := baselines.Range(tbl, 0, nb, propACs)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, tag+" Range", rg, tbl, queries)
		}

		// Bottom-Up adds feature-bitmap skipping through ExtraSkip.
		tbl := propTable(rng, s, 1200, false)
		var cuts []core.Cut
		for _, q := range queries[1:20] {
			for _, p := range q.Preds() {
				cuts = append(cuts, core.UnaryCut(p))
			}
		}
		res, err := bottomup.Build(tbl, propACs, bottomup.Options{MinSize: 30, Cuts: cuts, Queries: queries[1:20]})
		if err != nil {
			t.Fatal(err)
		}
		if res.Layout.ExtraSkip == nil {
			t.Fatal("bottom-up layout has no ExtraSkip")
		}
		checkLayout(t, fmt.Sprintf("seed %d Bottom-Up", seed), res.Layout, tbl, queries)
	}
}

// BenchmarkBlocksFor times block pruning on the layout the benchmark's
// point workload serves: ErrorLog-Int at 200,000 rows, planned by greedy
// with 100-row minimum blocks (713 blocks), and pruned for its 600
// filters. The layout is rebuilt the way a server rebuilds it from its
// store, without a tree. It reports µs per statement.
func BenchmarkBlocksFor(b *testing.B) {
	spec := workload.ErrorLogInt(workload.ErrorLogConfig{Rows: 200000, NumQueries: 600, Seed: 42})
	cuts := make([]core.Cut, len(spec.Cuts))
	for i, c := range spec.Cuts {
		if c.IsAdv {
			cuts[i] = core.AdvancedCut(c.Adv)
		} else {
			cuts[i] = core.UnaryCut(c.Pred)
		}
	}
	tree, err := greedy.Build(spec.Table, spec.ACs, greedy.Options{MinSize: 100, Cuts: cuts, Queries: spec.Queries})
	if err != nil {
		b.Fatal(err)
	}
	bids := tree.RouteTable(spec.Table)
	l := cost.NewLayout("point", spec.Table, bids, len(tree.Leaves()), spec.ACs)
	stmts := 0
	for b.Loop() {
		for _, q := range spec.Queries {
			l.BlocksFor(q)
		}
		stmts += len(spec.Queries)
	}
	b.ReportMetric(float64(l.NumBlocks()), "blocks")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(stmts), "us/stmt")
}
