package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/greedy"
	"repro/internal/table"
	"repro/internal/workload"
)

// walkRecord is what the reference walk records: every pruned block is
// counted and offered to the witness list, which keeps the first
// maxPruneDetail and flags the rest.
type walkRecord struct {
	routePruned, smaPruned int
	truncated              bool
	detail                 []BlockPrune
}

func (r *walkRecord) add(schema *table.Schema, b int, by string, c *cost.PruneCause) {
	if by == "route" {
		r.routePruned++
	} else {
		r.smaPruned++
	}
	if len(r.detail) == maxPruneDetail {
		r.truncated = true
		return
	}
	p := BlockPrune{Block: b, By: by}
	if c != nil {
		p.Column, p.Op, p.Bound, p.Min, p.Max = schema.Cols[c.Col].Name, c.Op, c.Literal, c.Lo, c.Hi
	}
	r.detail = append(r.detail, p)
}

// fullWalk is the reference for candidateBlocks with a recorder: it
// checks each non-empty block of the layout, in block order, and
// explains every pruned one.
func fullWalk(store *blockstore.Store, layout *cost.Layout, q expr.Query, mode Mode) ([]int, walkRecord) {
	var r walkRecord
	var candidates []int
	switch mode {
	case RouteQdTree:
		candidates = layout.BlocksFor(q)
		routed := make(map[int]bool, len(candidates))
		for _, b := range candidates {
			routed[b] = true
		}
		for b := range layout.Descs {
			if layout.Counts[b] == 0 || routed[b] {
				continue
			}
			r.add(store.Schema, b, "route", cost.MinMaxPruneCause(layout.Descs[b].Lo, layout.Descs[b].Hi, q))
		}
	case NoRoute:
		for b := range layout.Descs {
			if layout.Counts[b] == 0 {
				continue
			}
			if cost.MinMaxMayMatch(layout.Descs[b].Lo, layout.Descs[b].Hi, q) {
				candidates = append(candidates, b)
			} else {
				r.add(store.Schema, b, "sma", cost.MinMaxPruneCause(layout.Descs[b].Lo, layout.Descs[b].Hi, q))
			}
		}
	}
	return candidates, r
}

// catalogStore is the catalog a blockstore would hold for tbl under
// bids: per-block row counts and zone maps, no files. candidateBlocks
// reads nothing else.
func catalogStore(tbl *table.Table, bids []int, nblocks int) *blockstore.Store {
	ncols := tbl.Schema.NumCols()
	metas := make([]blockstore.BlockMeta, nblocks)
	for b := range metas {
		metas[b].ID = b
	}
	for r, b := range bids {
		m := &metas[b]
		if m.Rows == 0 {
			m.Min, m.Max = make([]int64, ncols), make([]int64, ncols)
			for c := 0; c < ncols; c++ {
				m.Min[c], m.Max[c] = tbl.Cols[c][r], tbl.Cols[c][r]
			}
		}
		m.Rows++
		for c := 0; c < ncols; c++ {
			m.Min[c] = min(m.Min[c], tbl.Cols[c][r])
			m.Max[c] = max(m.Max[c], tbl.Cols[c][r])
		}
	}
	return &blockstore.Store{Schema: tbl.Schema, Blocks: metas}
}

var pruneACs = []expr.AdvCut{{Left: 0, Op: expr.Lt, Right: 1}, {Left: 1, Op: expr.Ge, Right: 3}}

func pruneSchema() *table.Schema {
	return table.MustSchema([]table.Column{
		{Name: "a", Kind: table.Numeric, Min: 0, Max: 999},
		{Name: "b", Kind: table.Numeric, Min: -50, Max: 50},
		{Name: "k", Kind: table.Categorical, Dom: 5},
		{Name: "m", Kind: table.Categorical, Dom: 70},
	})
}

// pruneTable draws n rows inside the schema bounds, a ascending.
func pruneTable(rng *rand.Rand, s *table.Schema, n int) *table.Table {
	tbl := table.New(s, n)
	for i := 0; i < n; i++ {
		tbl.AppendRow([]int64{int64(i * 1000 / n), -50 + rng.Int63n(101), rng.Int63n(5), rng.Int63n(70)})
	}
	return tbl
}

// prunePred draws a unary predicate whose literal may fall outside the
// column's bounds.
func prunePred(rng *rand.Rand, s *table.Schema) expr.Pred {
	c := rng.Intn(s.NumCols())
	col := s.Cols[c]
	lo, hi := col.Min, col.Max
	if col.Kind == table.Categorical {
		lo, hi = 0, col.Dom-1
	}
	lit := func() int64 { return lo - 3 + rng.Int63n(hi-lo+7) }
	op := []expr.Op{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq, expr.In}[rng.Intn(6)]
	if op == expr.In {
		vals := make([]int64, 1+rng.Intn(4))
		for i := range vals {
			vals[i] = lit()
		}
		return expr.NewIn(c, vals)
	}
	return expr.Pred{Col: c, Op: op, Literal: lit()}
}

// pruneNode draws a random AND/OR tree of predicates and advanced cuts.
func pruneNode(rng *rand.Rand, s *table.Schema, depth int) *expr.Node {
	switch k := rng.Intn(10); {
	case depth == 0 || k < 5:
		return expr.NewPred(prunePred(rng, s))
	case k < 6:
		return expr.NewAdv(rng.Intn(len(pruneACs)))
	default:
		kids := make([]*expr.Node, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = pruneNode(rng, s, depth-1)
		}
		if k < 8 {
			return expr.And(kids...)
		}
		return expr.Or(kids...)
	}
}

// TestPruneExplainMatchesFullWalk pins the bounded explanation of a prune
// to the block-by-block walk: the same candidates, exact route and SMA
// counts, the same first maxPruneDetail witnesses in the same order and
// the same truncation flag. It covers NewLayout and FromTree layouts under
// both modes, empty blocks, IN/OR/advanced-cut queries (often no interval
// witness), and pruned totals below, at and above the witness list's
// size.
func TestPruneExplainMatchesFullWalk(t *testing.T) {
	s := pruneSchema()
	covered := map[string]int{}
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		queries := []expr.Query{{Name: "all"}}
		for i := 0; i < 60; i++ {
			queries = append(queries, expr.Query{Name: fmt.Sprintf("q%d", i), Root: pruneNode(rng, s, 3)})
		}
		// Range queries on the layout's sort column walk the pruned total
		// through every count around maxPruneDetail.
		for v := int64(0); v <= 1000; v += 12 {
			queries = append(queries, expr.AndQ("ge", expr.Pred{Col: 0, Op: expr.Ge, Literal: v}),
				expr.AndQ("lt", expr.Pred{Col: 0, Op: expr.Lt, Literal: v}))
		}
		for _, nb := range []int{20, 48, 80} {
			tbl := pruneTable(rng, s, 60*nb)
			sorted := make([]int, tbl.N)
			random := make([]int, tbl.N)
			used := rng.Perm(nb)[:nb/2+rng.Intn(nb/2)]
			for r := range sorted {
				sorted[r] = r * nb / tbl.N
				random[r] = used[rng.Intn(len(used))]
			}
			tree := core.NewTree(s, pruneACs)
			for len(tree.Leaves()) < nb {
				cut := core.UnaryCut(prunePred(rng, s))
				if rng.Intn(4) == 0 {
					cut = core.AdvancedCut(rng.Intn(len(pruneACs)))
				}
				ls := tree.Leaves()
				tree.Split(ls[rng.Intn(len(ls))], cut)
			}
			fromTree := cost.FromTree("tree", tree, tbl)
			layouts := []struct {
				name   string
				layout *cost.Layout
				bids   []int
			}{
				{"sorted", cost.NewLayout("sorted", tbl, sorted, nb, pruneACs), sorted},
				{"random", cost.NewLayout("random", tbl, random, nb, pruneACs), random},
				{"tree", fromTree, fromTree.BIDs},
			}
			for _, l := range layouts {
				store := catalogStore(tbl, l.bids, nb)
				for _, mode := range []Mode{RouteQdTree, NoRoute} {
					for _, q := range queries {
						tag := fmt.Sprintf("seed %d, %d blocks, %s layout, mode %d, %s",
							seed, nb, l.name, mode, q.StringWith(s.Names(), pruneACs))
						rec := &pruneRecorder{}
						got, err := candidateBlocks(store, l.layout, q, mode, rec)
						if err != nil {
							t.Fatalf("%s: %v", tag, err)
						}
						want, ref := fullWalk(store, l.layout, q, mode)
						if !slices.Equal(got, want) {
							t.Fatalf("%s: candidates %v, want %v", tag, got, want)
						}
						if route, sma := rec.counts(); route != ref.routePruned || sma != ref.smaPruned {
							t.Fatalf("%s: pruned route/sma %d/%d, want %d/%d", tag, route, sma, ref.routePruned, ref.smaPruned)
						}
						if rec.truncated() != ref.truncated {
							t.Fatalf("%s: truncated %v, want %v", tag, rec.truncated(), ref.truncated)
						}
						if !slices.Equal(rec.detail, ref.detail) {
							t.Fatalf("%s: witnesses\n%+v\nwant\n%+v", tag, rec.detail, ref.detail)
						}
						switch total := ref.routePruned + ref.smaPruned; {
						case total < maxPruneDetail:
							covered["below"]++
						case total == maxPruneDetail:
							covered["at"]++
						default:
							covered["above"]++
						}
						for _, p := range ref.detail {
							if p.Op == "" {
								covered["no interval witness"]++
								break
							}
						}
					}
				}
			}
		}
	}
	for _, c := range []string{"below", "at", "above", "no interval witness"} {
		if covered[c] == 0 {
			t.Errorf("no case with pruned total or witness %q: %v", c, covered)
		}
	}
}

// pointLayout is n blocks of four consecutive values of one column, and
// a query that routes to exactly one of them.
func pointLayout(n int) (*blockstore.Store, *cost.Layout, expr.Query) {
	s := table.MustSchema([]table.Column{{Name: "v", Kind: table.Numeric, Min: 0, Max: 1 << 20}})
	tbl := table.New(s, 4*n)
	bids := make([]int, 4*n)
	for i := range bids {
		tbl.AppendRow([]int64{int64(i)})
		bids[i] = i / 4
	}
	q := expr.AndQ("point", expr.Pred{Col: 0, Op: expr.Eq, Literal: int64(2 * n)})
	return catalogStore(tbl, bids, n), cost.NewLayout("point", tbl, bids, n, nil), q
}

// TestTracedPruneAllocsDoNotScaleWithBlocks: explaining a prune costs
// the same allocations on 700 blocks as on four times as many, under
// both modes, because only the listed witnesses are ever computed.
func TestTracedPruneAllocsDoNotScaleWithBlocks(t *testing.T) {
	for _, mode := range []Mode{RouteQdTree, NoRoute} {
		var allocs []float64
		for _, n := range []int{700, 2800} {
			store, layout, q := pointLayout(n)
			allocs = append(allocs, testing.AllocsPerRun(50, func() {
				rec := &pruneRecorder{}
				got, err := candidateBlocks(store, layout, q, mode, rec)
				if err != nil || len(got) != 1 || len(rec.detail) != maxPruneDetail {
					t.Fatalf("candidates %v (%v), %d witnesses", got, err, len(rec.detail))
				}
			}))
		}
		if allocs[0] != allocs[1] || allocs[0] > maxPruneDetail+4 {
			t.Errorf("mode %d: %v allocations on 700 and 2800 blocks, want equal and at most %d", mode, allocs, maxPruneDetail+4)
		}
	}
}

// BenchmarkCandidateBlocksTraced times pruning with the always-on
// explanation, as a server runs it, on the layout of BenchmarkBlocksFor:
// ErrorLog-Int at 200,000 rows, planned by greedy with 100-row minimum
// blocks (713 blocks), pruned for its 600 filters, under each mode. It
// reports µs per statement; allocs/op covers the 600 statements.
func BenchmarkCandidateBlocksTraced(b *testing.B) {
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
	nb := len(tree.Leaves())
	layout := cost.NewLayout("point", spec.Table, bids, nb, spec.ACs)
	store := catalogStore(spec.Table, bids, nb)
	for _, mode := range []struct {
		name string
		mode Mode
	}{{"RouteQdTree", RouteQdTree}, {"NoRoute", NoRoute}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			stmts := 0
			for b.Loop() {
				for _, q := range spec.Queries {
					if _, err := candidateBlocks(store, layout, q, mode.mode, &pruneRecorder{}); err != nil {
						b.Fatal(err)
					}
				}
				stmts += len(spec.Queries)
			}
			b.ReportMetric(float64(layout.NumBlocks()), "blocks")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(stmts), "us/stmt")
		})
	}
}
