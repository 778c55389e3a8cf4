package exec

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
	"repro/internal/workload"
)

// The steady-state allocation pins. Per-query setup (worker accs, the
// result, pool bookkeeping) may allocate; per-BLOCK work must not — that
// is the whole point of the arena pass. Measuring "allocs per block is
// zero" directly is brittle, so these tests measure the MARGINAL cost:
// the same query over a small store and over a store with ~8x the
// blocks must allocate (nearly) the same, because everything per-block
// now lives in reused arena scratch.

// allocFixture materializes Fig3(n) into contiguous 500-row blocks.
func allocFixture(t *testing.T, n int) (*blockstore.Store, *cost.Layout) {
	t.Helper()
	spec := workload.Fig3(n, 1)
	bids := make([]int, n)
	for i := range bids {
		bids[i] = i / 500
	}
	nblocks := (n + 499) / 500
	layout := cost.NewLayout("flat", spec.Table, bids, nblocks, nil)
	st, err := blockstore.Write(t.TempDir(), spec.Table, bids, nblocks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, layout
}

// measureAllocs reports steady-state allocations per call of fn, with GC
// disabled so the arena pool is not drained mid-measurement.
func measureAllocs(t *testing.T, fn func()) float64 {
	t.Helper()
	for i := 0; i < 3; i++ {
		fn() // warm arenas, file handles, and any lazily-grown scratch
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// matchAll selects every row without letting SMA pruning drop blocks.
var matchAll = expr.Query{Name: "all", Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Ge, Literal: math.MinInt64})}

// inFixture is allocFixture over a table of a 16-value categorical (a
// DICT column, whose codes fit the packed IN kernel's bitmap) beside
// disk in [0, 10000) (a FOR column whose code space is above the cap).
func inFixture(t *testing.T, n int) (*blockstore.Store, *cost.Layout) {
	t.Helper()
	schema := table.MustSchema([]table.Column{
		{Name: "tag", Kind: table.Categorical, Dom: 16},
		{Name: "disk", Kind: table.Numeric, Min: 0, Max: 9999},
	})
	rng := rand.New(rand.NewSource(5))
	tbl := table.New(schema, n)
	bids := make([]int, n)
	for i := range bids {
		tbl.AppendRow([]int64{rng.Int63n(16), rng.Int63n(10000)})
		bids[i] = i / 500
	}
	nblocks := (n + 499) / 500
	layout := cost.NewLayout("flat", tbl, bids, nblocks, nil)
	st, err := blockstore.Write(t.TempDir(), tbl, bids, nblocks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, layout
}

// inQuery is a one-predicate IN filter over column col.
func inQuery(col int, set ...int64) expr.Query {
	return expr.Query{Name: "in", Root: expr.NewPred(expr.NewIn(col, set))}
}

// TestScanAllocsDoNotScaleWithBlocks pins the count-scan path (the
// filter-count engine) for both profiles: 56 extra blocks may
// not cost more than a handful of extra allocations. Besides a range
// filter, it runs IN over a DICT column (3 and 8 members, the code-space
// bitmap) and over a FOR column whose code space is above the bitmap's
// cap (the sorted search), which must not allocate per call either.
func TestScanAllocsDoNotScaleWithBlocks(t *testing.T) {
	cases := []struct {
		name    string
		fixture func(*testing.T, int) (*blockstore.Store, *cost.Layout)
		q       expr.Query
	}{
		{"ge", allocFixture, matchAll},
		{"in3-dict", inFixture, inQuery(0, 1, 6, 11)},
		{"in8-dict", inFixture, inQuery(0, 0, 2, 3, 5, 7, 9, 12, 15)},
		{"in5-for", inFixture, inQuery(1, 17, 2500, 4097, 6001, 9998)},
	}
	for _, tc := range cases {
		smallSt, smallLay := tc.fixture(t, 4000) // 8 blocks
		bigSt, bigLay := tc.fixture(t, 32000)    // 64 blocks
		for _, prof := range []Profile{EngineSpark, EngineDBMS} {
			run := func(st *blockstore.Store, lay *cost.Layout) func() {
				return func() {
					res, err := RunDelta(st, lay, tc.q, nil, prof, NoRoute, Options{Parallelism: 1}, nil)
					if err != nil {
						t.Fatal(err)
					}
					if res.BlocksScanned != lay.NonEmptyBlocks() {
						t.Fatalf("%s scanned %d of %d blocks", tc.name, res.BlocksScanned, lay.NonEmptyBlocks())
					}
				}
			}
			small := measureAllocs(t, run(smallSt, smallLay))
			big := measureAllocs(t, run(bigSt, bigLay))
			if extra := big - small; extra > 8 {
				t.Errorf("%s/%s: 56 extra blocks cost %.1f extra allocs/query (small=%.1f big=%.1f); scan scratch is allocating per block",
					tc.name, prof.Name, extra, small, big)
			}
		}
	}
}

// groupFixture is allocFixture over a table of two small categoricals
// (flag: 3 values, status: 2) beside a numeric cpu in [0, 100) and a
// quantity — the key shapes of a TPC-H Q1-like GROUP BY.
func groupFixture(t *testing.T, n int) (*blockstore.Store, *cost.Layout) {
	t.Helper()
	schema := table.MustSchema([]table.Column{
		{Name: "flag", Kind: table.Categorical, Dom: 3},
		{Name: "status", Kind: table.Categorical, Dom: 2},
		{Name: "cpu", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "qty", Kind: table.Numeric, Min: 1, Max: 50},
	})
	rng := rand.New(rand.NewSource(3))
	tbl := table.New(schema, n)
	bids := make([]int, n)
	for i := range bids {
		tbl.AppendRow([]int64{rng.Int63n(3), rng.Int63n(2), rng.Int63n(100), 1 + rng.Int63n(50)})
		bids[i] = i / 500
	}
	nblocks := (n + 499) / 500
	layout := cost.NewLayout("flat", tbl, bids, nblocks, nil)
	st, err := blockstore.Write(t.TempDir(), tbl, bids, nblocks)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, layout
}

// TestAggAllocsDoNotScaleWithBlocks pins the grouped-aggregation path,
// whose per-batch decode buffers were the heaviest per-block cost before
// the arena pass, for a one-column numeric key (the map), a two-column
// categorical key (the code space) and a categorical + numeric key (the
// map over two columns). Every key has a fixed set of groups (100, 6 and
// 300), all present in both stores, so group-table growth is identical.
func TestAggAllocsDoNotScaleWithBlocks(t *testing.T) {
	cases := []struct {
		name    string
		fixture func(*testing.T, int) (*blockstore.Store, *cost.Layout)
		groupBy []int
		aggs    []expr.Agg
	}{
		{"bycpu", allocFixture, []int{0}, []expr.Agg{{Func: expr.AggCountStar}, {Func: expr.AggSum, Col: 1}}},
		{"byflagstatus", groupFixture, []int{0, 1}, []expr.Agg{
			{Func: expr.AggCountStar}, {Func: expr.AggSum, Col: 3}, {Func: expr.AggAvg, Col: 3}, {Func: expr.AggMax, Col: 2},
		}},
		{"byflagcpu", groupFixture, []int{0, 2}, []expr.Agg{{Func: expr.AggCountStar}, {Func: expr.AggMin, Col: 3}}},
	}
	for _, tc := range cases {
		smallSt, smallLay := tc.fixture(t, 4000)
		bigSt, bigLay := tc.fixture(t, 32000)
		aq := expr.AggQuery{Name: tc.name, GroupBy: tc.groupBy, Aggs: tc.aggs}
		run := func(st *blockstore.Store, lay *cost.Layout) func() {
			return func() {
				res, err := RunAggDelta(st, lay, aq, nil, EngineDBMS, NoRoute, Options{Parallelism: 1}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Rows) == 0 {
					t.Fatal("grouped query returned no groups")
				}
			}
		}
		small := measureAllocs(t, run(smallSt, smallLay))
		big := measureAllocs(t, run(bigSt, bigLay))
		// The 8x store has ~8x the rows but the same groups; only
		// per-block work could differ.
		if extra := big - small; extra > 8 {
			t.Errorf("%s: 56 extra blocks cost %.1f extra allocs/query (small=%.1f big=%.1f)", tc.name, extra, small, big)
		}
	}
}

// TestRowScanMarginalAllocsAreEmitsOnly pins the projection path: the
// only thing allowed to scale is the emitted tuples themselves (one
// slice per matched row — those escape into the result), never the
// per-block decode scratch.
func TestRowScanMarginalAllocsAreEmitsOnly(t *testing.T) {
	smallSt, smallLay := allocFixture(t, 4000)
	bigSt, bigLay := allocFixture(t, 32000)
	rq := expr.RowQuery{
		Name:   "narrow",
		Filter: expr.Query{Root: expr.NewPred(expr.Pred{Col: 1, Op: expr.Lt, Literal: 40})}, // ~0.4% of rows
		Cols:   []int{0, 1},
	}
	var smallRows, bigRows int64
	run := func(st *blockstore.Store, lay *cost.Layout, matched *int64) func() {
		return func() {
			res, err := RunRowsDelta(st, lay, rq, nil, EngineDBMS, NoRoute, Options{Parallelism: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			*matched = res.RowsMatched
		}
	}
	small := measureAllocs(t, run(smallSt, smallLay, &smallRows))
	big := measureAllocs(t, run(bigSt, bigLay, &bigRows))
	if bigRows <= smallRows {
		t.Fatalf("fixture broken: big store matched %d rows, small %d", bigRows, smallRows)
	}
	// Allow ~3 allocs per extra emitted row (tuple + amortized sink
	// growth) plus slack; 56 extra blocks of decode scratch would blow
	// far past this.
	budget := 3*float64(bigRows-smallRows) + 16
	if extra := big - small; extra > budget {
		t.Errorf("row scan: %.1f extra allocs/query for %d extra matched rows (budget %.0f; small=%.1f big=%.1f)",
			extra, bigRows-smallRows, budget, small, big)
	}
}

// TestJoinMarginalAllocsAreTuplesOnly pins both join sides — the fourth
// and fifth callbacks of the one scan driver. What may scale with the
// store is what escapes into the result: one tuple per build row, per
// probing row and per output row (plus amortized list, table and sink
// growth) — never per-block scratch, which would cost both sides of all
// 56 extra blocks.
func TestJoinMarginalAllocsAreTuplesOnly(t *testing.T) {
	smallSt, smallLay := allocFixture(t, 4000)
	bigSt, bigLay := allocFixture(t, 32000)
	narrow := expr.Query{Root: expr.NewPred(expr.Pred{Col: 1, Op: expr.Lt, Literal: 10})} // ~0.1% of rows
	jq := expr.JoinQuery{
		Name: "narrow", LeftTable: "a", RightTable: "b",
		LeftKey: 0, RightKey: 0,
		Cols:       []expr.ColRef{{Side: 0, Col: 1}, {Side: 1, Col: 1}},
		LeftFilter: narrow, RightFilter: narrow,
	}
	var smallTuples, bigTuples int64
	run := func(st *blockstore.Store, lay *cost.Layout, tuples *int64) func() {
		return func() {
			res, err := RunJoinDelta(st, lay, jq, nil, EngineDBMS, NoRoute, Options{Parallelism: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			*tuples = res.Join.RowsBuild + res.Join.RowsProbe + res.RowsMatched
		}
	}
	small := measureAllocs(t, run(smallSt, smallLay, &smallTuples))
	big := measureAllocs(t, run(bigSt, bigLay, &bigTuples))
	if bigTuples <= smallTuples {
		t.Fatalf("fixture broken: big store made %d tuples, small %d", bigTuples, smallTuples)
	}
	budget := 3*float64(bigTuples-smallTuples) + 16
	if extra := big - small; extra > budget {
		t.Errorf("join: %.1f extra allocs/query for %d extra tuples (budget %.0f; small=%.1f big=%.1f)",
			extra, bigTuples-smallTuples, budget, small, big)
	}
}
