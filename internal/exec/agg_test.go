package exec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
	"repro/internal/workload"
)

// aggFixture builds a table mixing run-friendly, dictionary, and plain
// columns, a simple 8-block layout, and a materialized v2 store.
func aggFixture(t *testing.T, seed int64) (*blockstore.Store, *cost.Layout, *table.Table, []expr.AdvCut) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := table.MustSchema([]table.Column{
		{Name: "ts", Kind: table.Numeric, Min: 0, Max: 1 << 20},
		{Name: "sev", Kind: table.Categorical, Dom: 10},
		{Name: "dur", Kind: table.Numeric, Min: -1000, Max: 1000},
		{Name: "host", Kind: table.Categorical, Dom: 5},
		{Name: "big", Kind: table.Numeric, Min: math.MinInt32, Max: math.MaxInt32},
	})
	n := 4000 + rng.Intn(2000)
	tbl := table.New(schema, n)
	ts := int64(0)
	for i := 0; i < n; i++ {
		ts += int64(rng.Intn(5)) // mostly-sorted -> RLE/FOR blocks
		tbl.AppendRow([]int64{
			ts,
			rng.Int63n(10),
			int64(rng.Intn(2001)) - 1000,
			rng.Int63n(5),
			int64(int32(rng.Uint32())),
		})
	}
	acs := []expr.AdvCut{{Left: 0, Op: expr.Lt, Right: 4}}
	bids := make([]int, n)
	for i := range bids {
		bids[i] = i * 8 / n
	}
	layout := cost.NewLayout("fixed", tbl, bids, 8, acs)
	st, err := blockstore.Write(t.TempDir(), tbl, bids, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, layout, tbl, acs
}

// aggWorkload draws aggregate statements covering every function, with
// and without filters and grouping.
func aggWorkload(rng *rand.Rand) []expr.AggQuery {
	filters := []*expr.Node{
		nil,
		expr.NewPred(expr.Pred{Col: 1, Op: expr.Ge, Literal: 5}),
		expr.And(
			expr.NewPred(expr.Pred{Col: 2, Op: expr.Gt, Literal: int64(rng.Intn(500)) - 250}),
			expr.NewPred(expr.NewIn(3, []int64{0, 2, 4})),
		),
		expr.Or(
			expr.NewPred(expr.Pred{Col: 0, Op: expr.Lt, Literal: int64(rng.Intn(4000))}),
			expr.NewPred(expr.Pred{Col: 1, Op: expr.Eq, Literal: rng.Int63n(10)}),
		),
		expr.NewAdv(0),
		expr.NewPred(expr.Pred{Col: 0, Op: expr.Gt, Literal: 1 << 30}), // fully pruned
	}
	groupings := [][]int{nil, {1}, {3}, {3, 1}, {0}}
	allAggs := []expr.Agg{
		{Func: expr.AggCountStar},
		{Func: expr.AggCount, Col: 2},
		{Func: expr.AggSum, Col: 2},
		{Func: expr.AggSum, Col: 0},
		{Func: expr.AggMin, Col: 4},
		{Func: expr.AggMax, Col: 4},
		{Func: expr.AggAvg, Col: 2},
		{Func: expr.AggMin, Col: 0},
	}
	var out []expr.AggQuery
	i := 0
	for _, root := range filters {
		for _, gb := range groupings {
			aggs := make([]expr.Agg, 0, 4)
			for k := 0; k < 1+rng.Intn(4); k++ {
				aggs = append(aggs, allAggs[rng.Intn(len(allAggs))])
			}
			// Always include one of each count/sum family for coverage.
			aggs = append(aggs, expr.Agg{Func: expr.AggCountStar}, expr.Agg{Func: expr.AggAvg, Col: 2})
			out = append(out, expr.AggQuery{
				Name:    fmt.Sprintf("agg%d", i),
				Aggs:    aggs,
				GroupBy: gb,
				Filter:  expr.Query{Root: root},
			})
			i++
		}
	}
	return out
}

// requireSameRows asserts two result row sets are identical (exact
// integers; AVG within 1e-9 relative error).
func requireSameRows(t *testing.T, label string, got, want []AggRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if len(g.Key) != len(w.Key) {
			t.Fatalf("%s row %d: key %v, want %v", label, i, g.Key, w.Key)
		}
		for k := range w.Key {
			if g.Key[k] != w.Key[k] {
				t.Fatalf("%s row %d: key %v, want %v", label, i, g.Key, w.Key)
			}
		}
		if len(g.Vals) != len(w.Vals) {
			t.Fatalf("%s row %d: %d vals, want %d", label, i, len(g.Vals), len(w.Vals))
		}
		for v := range w.Vals {
			gv, wv := g.Vals[v], w.Vals[v]
			if gv.Valid != wv.Valid || gv.Int != wv.Int {
				t.Fatalf("%s row %d val %d: got %+v, want %+v", label, i, v, gv, wv)
			}
			if wv.Float != 0 || gv.Float != 0 {
				rel := math.Abs(gv.Float - wv.Float)
				if wv.Float != 0 {
					rel /= math.Abs(wv.Float)
				}
				if rel > 1e-9 {
					t.Fatalf("%s row %d val %d: AVG %v, want %v", label, i, v, gv.Float, wv.Float)
				}
			}
		}
	}
}

// TestAggregateMatchesReference is the exec-level differential property:
// the vectorized pushdown engine, the decode-then-aggregate executor, and
// the row-at-a-time table reference agree on every query across modes and
// parallelism levels.
func TestAggregateMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		st, layout, tbl, acs := aggFixture(t, seed)
		rng := rand.New(rand.NewSource(seed * 100))
		for _, aq := range aggWorkload(rng) {
			truth := ReferenceAggregate(tbl, aq, acs)
			for _, mode := range []Mode{RouteQdTree, NoRoute} {
				naive, err := RunAggNaive(st, layout, aq, acs, EngineSpark, mode)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRows(t, fmt.Sprintf("%s/naive/mode%d", aq.Name, mode), naive.Rows, truth)
				for _, prof := range []Profile{EngineSpark, EngineDBMS} {
					for _, par := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s/mode%d/p%d", aq.Name, prof.Name, mode, par)
						res, err := RunAggDelta(st, layout, aq, acs, prof, mode, Options{Parallelism: par}, nil)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						requireSameRows(t, label, res.Rows, truth)
					}
				}
			}
		}
	}
}

// TestAggregateMetadataShortcuts pins the zone-map pushdown: filterless
// COUNT/MIN/MAX queries are answered from the catalog with zero physical
// reads, and a filterless SUM reads data but still serves MIN/MAX columns
// from metadata under the columnar profile.
func TestAggregateMetadataShortcuts(t *testing.T) {
	st, layout, tbl, acs := aggFixture(t, 7)
	metaOnly := expr.AggQuery{
		Name: "meta",
		Aggs: []expr.Agg{
			{Func: expr.AggCountStar},
			{Func: expr.AggMin, Col: 0},
			{Func: expr.AggMax, Col: 4},
			{Func: expr.AggCount, Col: 2},
		},
	}
	res, err := RunAggDelta(st, layout, metaOnly, acs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "meta-only", res.Rows, ReferenceAggregate(tbl, metaOnly, acs))
	if res.BlocksScanned != 0 || res.RowsScanned != 0 || res.BytesRead != 0 {
		t.Errorf("metadata-only query did physical work: %+v", res.ScanStats)
	}
	if res.SimTime != 0 {
		t.Errorf("metadata-only query charged sim time %v", res.SimTime)
	}
	if res.RowsMatched != int64(tbl.N) {
		t.Errorf("matched %d rows, want %d", res.RowsMatched, tbl.N)
	}

	// SUM forces reads; the MIN column must still not be fetched under the
	// columnar profile (it is served from zone maps).
	mixed := expr.AggQuery{
		Name: "mixed",
		Aggs: []expr.Agg{{Func: expr.AggSum, Col: 2}, {Func: expr.AggMin, Col: 4}},
	}
	mres, err := RunAggDelta(st, layout, mixed, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "mixed", mres.Rows, ReferenceAggregate(tbl, mixed, acs))
	if mres.BlocksScanned == 0 {
		t.Fatal("SUM must read blocks")
	}
	var sumOnly int64
	for b := range st.Blocks {
		sumOnly += st.ColBytes(b, []int{2})
	}
	if mres.BytesRead != sumOnly {
		t.Errorf("read %d bytes, want only the SUM column's %d (MIN served from zone maps)", mres.BytesRead, sumOnly)
	}

	// With a delta, a filterless COUNT(*) under the columnar profile scans
	// the delta tables but copies none of their columns — the same zero
	// bytes as the filterless filter count.
	dst, dlayout, dv, combined, dacs := deltaFixture(t, 7)
	countStar := expr.AggQuery{Name: "count-star", Aggs: []expr.Agg{{Func: expr.AggCountStar}}}
	cres, err := RunAggDelta(dst, dlayout, countStar, dacs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, dv)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "count-star/delta", cres.Rows, ReferenceAggregate(combined, countStar, dacs))
	fres, err := RunDelta(dst, dlayout, expr.Query{}, dacs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, dv)
	if err != nil {
		t.Fatal(err)
	}
	if cres.DeltaRows != 600 || cres.BytesRead != 0 || fres.BytesRead != 0 {
		t.Errorf("count-star over the delta: delta rows %d, bytes %d (filter count: %d bytes), want 600 rows and 0 bytes",
			cres.DeltaRows, cres.BytesRead, fres.BytesRead)
	}
}

// TestAggregateFilteredZoneMapShortcut pins the per-block form of the
// zone-map pushdown: under a range filter, blocks whose SMA proves every
// row matches are served from catalog metadata — a filtered MIN/MAX
// query scans only the filter's boundary blocks.
func TestAggregateFilteredZoneMapShortcut(t *testing.T) {
	st, layout, tbl, acs := aggFixture(t, 21)
	// ts is non-decreasing and blocks are position-ranged, so a threshold
	// inside block 5 leaves blocks 6 and 7 wholly above it.
	threshold := tbl.Cols[0][tbl.N*5/8] + 1
	aq := expr.AggQuery{
		Name:   "zmap",
		Aggs:   []expr.Agg{{Func: expr.AggCountStar}, {Func: expr.AggMin, Col: 4}, {Func: expr.AggMax, Col: 4}},
		Filter: expr.Query{Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Ge, Literal: threshold})},
	}
	res, err := RunAggDelta(st, layout, aq, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRows(t, "filtered-zonemap", res.Rows, ReferenceAggregate(tbl, aq, acs))
	naive, err := RunAggNaive(st, layout, aq, acs, EngineDBMS, RouteQdTree)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsMatched != naive.RowsMatched {
		t.Fatalf("matched %d, naive %d", res.RowsMatched, naive.RowsMatched)
	}
	// The naive path scans every candidate; the pushdown path must have
	// answered the fully-matching blocks from metadata alone.
	if res.BlocksScanned >= naive.BlocksScanned {
		t.Errorf("pushdown scanned %d blocks, naive %d — fully-matched blocks were not served from zone maps",
			res.BlocksScanned, naive.BlocksScanned)
	}
}

// TestGlobalPartialRowsCountFullySelectedBlocks pins the global group's
// row count of a partial result to RowsMatched when some blocks are
// answered from the catalog (COUNT/MIN/MAX only) and some are folded
// with a full selection (SUM), beside blocks that run the filter.
func TestGlobalPartialRowsCountFullySelectedBlocks(t *testing.T) {
	st, layout, tbl, acs := aggFixture(t, 21)
	threshold := tbl.Cols[0][tbl.N*5/8] + 1
	filter := expr.Query{Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Ge, Literal: threshold})}
	for _, tc := range []struct {
		aggs        []expr.Agg
		catalogOnly bool // full blocks are answered without a read
	}{
		{[]expr.Agg{{Func: expr.AggCountStar}, {Func: expr.AggMin, Col: 4}}, true},
		{[]expr.Agg{{Func: expr.AggCountStar}, {Func: expr.AggSum, Col: 2}}, false},
	} {
		aq := expr.AggQuery{Name: "global-rows", Aggs: tc.aggs, Filter: filter}
		p, err := RunAggPartialDelta(st, layout, aq, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := RunAggNaive(st, layout, aq, acs, EngineDBMS, RouteQdTree)
		if err != nil {
			t.Fatal(err)
		}
		if tc.catalogOnly && p.BlocksScanned >= naive.BlocksScanned {
			t.Fatalf("%v: no block was answered from the catalog (%d of %d scanned)", tc.aggs, p.BlocksScanned, naive.BlocksScanned)
		}
		if p.RowsMatched == 0 || p.Global.Rows != p.RowsMatched {
			t.Errorf("%v: Global.Rows = %d, RowsMatched = %d", tc.aggs, p.Global.Rows, p.RowsMatched)
		}
		requireSameRows(t, "global-rows", p.Finalize(aq.Aggs).Rows, ReferenceAggregate(tbl, aq, acs))
	}
}

// TestAggregateEmptySelection pins SQL empty-input semantics: COUNT is a
// valid 0, SUM/MIN/MAX/AVG are invalid, and GROUP BY yields no rows.
func TestAggregateEmptySelection(t *testing.T) {
	st, layout, _, acs := aggFixture(t, 9)
	none := expr.Query{Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Lt, Literal: -1})}
	global := expr.AggQuery{
		Name:   "empty",
		Aggs:   []expr.Agg{{Func: expr.AggCountStar}, {Func: expr.AggSum, Col: 2}, {Func: expr.AggMin, Col: 0}, {Func: expr.AggAvg, Col: 2}},
		Filter: none,
	}
	res, err := RunAggDelta(st, layout, global, acs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("global aggregate over empty selection: %d rows, want 1", len(res.Rows))
	}
	v := res.Rows[0].Vals
	if !v[0].Valid || v[0].Int != 0 {
		t.Errorf("COUNT(*) = %+v, want valid 0", v[0])
	}
	for i := 1; i < len(v); i++ {
		if v[i].Valid {
			t.Errorf("aggregate %d over empty selection must be invalid: %+v", i, v[i])
		}
	}
	grouped := global
	grouped.GroupBy = []int{1}
	gres, err := RunAggDelta(st, layout, grouped, acs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gres.Rows) != 0 {
		t.Errorf("grouped aggregate over empty selection: %d rows, want 0", len(gres.Rows))
	}
}

// TestAggregateColumnValidation rejects out-of-schema columns.
func TestAggregateColumnValidation(t *testing.T) {
	st, layout, _, acs := aggFixture(t, 11)
	if _, err := RunAggDelta(st, layout, expr.AggQuery{Aggs: []expr.Agg{{Func: expr.AggSum, Col: 99}}}, acs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil); err == nil {
		t.Error("aggregate over unknown column must error")
	}
	if _, err := RunAggDelta(st, layout, expr.AggQuery{
		Aggs: []expr.Agg{{Func: expr.AggCountStar}}, GroupBy: []int{-1},
	}, acs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil); err == nil {
		t.Error("grouping on unknown column must error")
	}
}

// TestAggregateDensePathMatchesMapPath: the code-space group index and
// the map fallback agree with the reference on every key shape — one,
// two and three categorical columns (dense), a code space of exactly
// maxCodeSpace slots (dense) and one just over it (map), a categorical +
// numeric key (map), a one-column numeric key (map), and in-domain keys
// mixed with out-of-domain ones in the first or the last column (dense
// and map in one partial) — at Parallelism 1 and 3.
func TestAggregateDensePathMatchesMapPath(t *testing.T) {
	cat := func(name string, dom int64) table.Column {
		return table.Column{Name: name, Kind: table.Categorical, Dom: dom}
	}
	num := func(name string, max int64) table.Column {
		return table.Column{Name: name, Kind: table.Numeric, Min: 0, Max: max}
	}
	cases := []struct {
		name  string
		keys  []table.Column
		draw  []int64 // per key column: values are drawn from [0, draw)
		dense bool
	}{
		{"one", []table.Column{cat("a", 7)}, []int64{7}, true},
		{"one-numeric", []table.Column{num("a", 6)}, []int64{7}, false},
		{"two", []table.Column{cat("a", 3), cat("b", 5)}, []int64{3, 5}, true},
		{"three", []table.Column{cat("a", 2), cat("b", 3), cat("c", 7)}, []int64{2, 3, 7}, true},
		{"cap", []table.Column{cat("a", 256), cat("b", 256)}, []int64{256, 256}, true},
		{"over-cap", []table.Column{cat("a", 256), cat("b", 257)}, []int64{256, 257}, false},
		{"mixed", []table.Column{cat("a", 3), num("b", 4)}, []int64{3, 5}, false},
		{"out-of-domain-first", []table.Column{cat("a", 3), cat("b", 4)}, []int64{4, 4}, true},
		{"out-of-domain-last", []table.Column{cat("a", 3), cat("b", 4)}, []int64{3, 5}, true},
	}
	for ci, tc := range cases {
		rng := rand.New(rand.NewSource(int64(5 + ci)))
		schema := table.MustSchema(append(slices.Clone(tc.keys), num("v", 1000)))
		n := 3000
		tbl := table.New(schema, n)
		row := make([]int64, len(tc.keys)+1)
		for i := 0; i < n; i++ {
			for k, d := range tc.draw {
				row[k] = rng.Int63n(d)
			}
			row[len(tc.keys)] = rng.Int63n(1001)
			tbl.AppendRow(row)
		}
		bids := make([]int, n)
		for i := range bids {
			bids[i] = i * 4 / n
		}
		v := len(tc.keys)
		aq := expr.AggQuery{
			Name: tc.name,
			Aggs: []expr.Agg{
				{Func: expr.AggCountStar}, {Func: expr.AggSum, Col: v}, {Func: expr.AggAvg, Col: v},
				{Func: expr.AggMin, Col: v}, {Func: expr.AggMax, Col: v}, {Func: expr.AggCount, Col: v},
			},
			Filter: expr.Query{Root: expr.NewPred(expr.Pred{Col: v, Op: expr.Ge, Literal: 100})},
		}
		for k := range tc.keys {
			aq.GroupBy = append(aq.GroupBy, k)
		}
		layout := cost.NewLayout("fixed", tbl, bids, 4, nil)
		st, err := blockstore.Write(t.TempDir(), tbl, bids, 4)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := planAgg(st, aq, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.radix != nil; got != tc.dense {
			t.Errorf("%s: code space %v, want dense=%v", tc.name, pl.radix, tc.dense)
		}
		want := ReferenceAggregate(tbl, aq, nil)
		for _, par := range []int{1, 3} {
			res, err := RunAggDelta(st, layout, aq, nil, EngineSpark, RouteQdTree, Options{Parallelism: par}, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSameRows(t, fmt.Sprintf("%s/p%d", tc.name, par), res.Rows, want)
		}
		st.Close()
	}
}

// BenchmarkGroupedAgg times the TPC-H Q1 shape — GROUP BY two small
// categoricals (l_returnflag: 3 values, l_linestatus: 2), five
// aggregates, about 98 % of rows selected — over a 100,000-row
// workload.TPCH table in 50 row-ordered blocks of 2,000 rows, with one
// worker under the columnar profile. Row order spreads every block over
// the whole l_shipdate range, so no block is proven fully selected and
// every batch runs the filter, the group ids and the fold.
func BenchmarkGroupedAgg(b *testing.B) {
	spec := workload.TPCH(workload.TPCHConfig{Rows: 100_000, SeedsPerTmpl: 1, Seed: 41})
	tbl, s := spec.Table, spec.Table.Schema
	bids := make([]int, tbl.N)
	for i := range bids {
		bids[i] = i / 2000
	}
	nblocks := (tbl.N + 1999) / 2000
	layout := cost.NewLayout("flat", tbl, bids, nblocks, spec.ACs)
	st, err := blockstore.Write(b.TempDir(), tbl, bids, nblocks)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	qty, price, disc := s.MustCol("l_quantity"), s.MustCol("l_extendedprice"), s.MustCol("l_discount")
	aq := expr.AggQuery{
		Name:    "q1",
		GroupBy: []int{s.MustCol("l_returnflag"), s.MustCol("l_linestatus")},
		Aggs: []expr.Agg{
			{Func: expr.AggCountStar}, {Func: expr.AggSum, Col: qty}, {Func: expr.AggSum, Col: price},
			{Func: expr.AggAvg, Col: qty}, {Func: expr.AggAvg, Col: disc},
		},
		Filter: expr.Query{Root: expr.NewPred(expr.Pred{Col: s.MustCol("l_shipdate"), Op: expr.Le, Literal: workload.TPCHDay(1998, 9, 2)})},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunAggDelta(st, layout, aq, spec.ACs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no groups")
		}
	}
}
