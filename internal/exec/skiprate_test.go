package exec

import (
	"math"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
)

// emptyFixture materializes a zero-row store (one empty block, no files).
func emptyFixture(t *testing.T) (*blockstore.Store, *cost.Layout) {
	t.Helper()
	schema := table.MustSchema([]table.Column{{Name: "x", Kind: table.Numeric, Min: 0, Max: 9}})
	tbl := table.New(schema, 0)
	layout := cost.NewLayout("empty", tbl, nil, 1, nil)
	st, err := blockstore.Write(t.TempDir(), tbl, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, layout
}

// TestSkipRateEmptyStore: queries and aggregates over a store with no
// rows must report SkipRate 1 (touched nothing), never NaN or a
// full-scan-looking 0 that would trip drift monitors.
func TestSkipRateEmptyStore(t *testing.T) {
	st, layout := emptyFixture(t)
	q := expr.Query{Name: "q", Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Ge, Literal: 3})}
	for _, mode := range []Mode{RouteQdTree, NoRoute} {
		res, err := RunDelta(st, layout, q, nil, EngineSpark, mode, Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsTotal != 0 || res.BlocksTotal != 0 || res.RowsScanned != 0 {
			t.Fatalf("mode %d: empty store scanned something: %+v", mode, res)
		}
		if sr := res.SkipRate(); sr != 1 || math.IsNaN(sr) {
			t.Errorf("mode %d: empty-store skip rate %v, want 1", mode, sr)
		}
	}
	aq := expr.AggQuery{
		Name:   "agg",
		Aggs:   []expr.Agg{{Func: expr.AggCountStar}, {Func: expr.AggSum, Col: 0}, {Func: expr.AggAvg, Col: 0}},
		Filter: q,
	}
	ares, err := RunAggDelta(st, layout, aq, nil, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sr := ares.SkipRate(); sr != 1 || math.IsNaN(sr) {
		t.Errorf("empty-store aggregate skip rate %v, want 1", sr)
	}
	if len(ares.Rows) != 1 || !ares.Rows[0].Vals[0].Valid || ares.Rows[0].Vals[0].Int != 0 {
		t.Fatalf("empty-store COUNT = %+v, want valid 0", ares.Rows)
	}
	if ares.Rows[0].Vals[1].Valid || ares.Rows[0].Vals[2].Valid {
		t.Fatalf("empty-store SUM/AVG must be invalid: %+v", ares.Rows)
	}
	// The grouped form yields no groups and no NaNs.
	aq.GroupBy = []int{0}
	gres, err := RunAggDelta(st, layout, aq, nil, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gres.Rows) != 0 {
		t.Fatalf("empty-store grouped aggregate returned rows: %+v", gres.Rows)
	}
}

// TestSkipRateFullyPruned: a query whose predicate excludes every block
// scans nothing and reports SkipRate 1 on a non-empty store.
func TestSkipRateFullyPruned(t *testing.T) {
	st, layout, spec := fixture(t)
	pruned := expr.Query{Name: "none", Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Gt, Literal: 1 << 40})}
	for _, mode := range []Mode{RouteQdTree, NoRoute} {
		res, err := RunDelta(st, layout, pruned, spec.ACs, EngineSpark, mode, Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsScanned != 0 || res.BlocksScanned != 0 {
			t.Fatalf("mode %d: fully-pruned query scanned %d rows / %d blocks", mode, res.RowsScanned, res.BlocksScanned)
		}
		if res.RowsTotal != int64(spec.Table.N) {
			t.Fatalf("mode %d: RowsTotal %d, want %d", mode, res.RowsTotal, spec.Table.N)
		}
		if sr := res.SkipRate(); sr != 1 {
			t.Errorf("mode %d: fully-pruned skip rate %v, want 1", mode, sr)
		}
	}
}
