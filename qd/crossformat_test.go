package qd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/qd"
)

// randomSpec draws a random schema, table, and workload: a mix of numeric
// and categorical columns (small domains so DICT/RLE fire), with queries
// combining range, equality, IN, OR, and advanced (column-vs-column)
// predicates — the full predicate language both scan paths must agree on.
func randomSpec(seed int64) (*qd.Table, []qd.Query, []qd.AdvCut) {
	rng := rand.New(rand.NewSource(seed))
	dict := []string{"A", "B", "C", "D", "E", "F", "G", "H"}
	schema := qd.MustSchema([]qd.Column{
		{Name: "t", Kind: qd.Numeric, Min: 0, Max: 9999},
		{Name: "cat", Kind: qd.Categorical, Dom: int64(2 + rng.Intn(7)), Dict: dict},
		{Name: "v", Kind: qd.Numeric, Min: -500, Max: 500},
		{Name: "flag", Kind: qd.Categorical, Dom: 2, Dict: []string{"N", "Y"}},
		{Name: "u", Kind: qd.Numeric, Min: 0, Max: 9999},
	})
	n := 2000 + rng.Intn(3000)
	tbl := qd.NewTable(schema, n)
	dom := schema.Cols[1].Dom
	t0 := int64(0)
	for i := 0; i < n; i++ {
		t0 += int64(rng.Intn(10)) // mostly-sorted time column -> runs
		if t0 > 9999 {
			t0 = 0
		}
		tbl.AppendRow([]int64{
			t0,
			rng.Int63n(dom),
			int64(rng.Intn(1001)) - 500,
			int64(rng.Intn(2)),
			rng.Int63n(10000),
		})
	}
	acs := []qd.AdvCut{{Left: 0, Op: qd.Lt, Right: 4}}
	var queries []qd.Query
	for i := 0; i < 10; i++ {
		var root *expr.Node
		switch i % 5 {
		case 0: // range + equality
			root = qd.And(
				qd.P(qd.Pred{Col: 0, Op: qd.Ge, Literal: int64(rng.Intn(9000))}),
				qd.P(qd.Pred{Col: 1, Op: qd.Eq, Literal: rng.Int63n(dom)}),
			)
		case 1: // IN + range
			root = qd.And(
				qd.P(qd.NewIn(1, []int64{rng.Int63n(dom), rng.Int63n(dom)})),
				qd.P(qd.Pred{Col: 2, Op: qd.Lt, Literal: int64(rng.Intn(400))}),
			)
		case 2: // disjunction
			root = qd.Or(
				qd.P(qd.Pred{Col: 2, Op: qd.Gt, Literal: 400}),
				qd.P(qd.Pred{Col: 2, Op: qd.Lt, Literal: -400}),
			)
		case 3: // advanced cut + flag
			root = qd.And(
				qd.AdvRef(0),
				qd.P(qd.Pred{Col: 3, Op: qd.Eq, Literal: 1}),
			)
		default: // nested and/or
			root = qd.And(
				qd.Or(
					qd.P(qd.Pred{Col: 0, Op: qd.Lt, Literal: int64(rng.Intn(5000))}),
					qd.P(qd.Pred{Col: 4, Op: qd.Ge, Literal: int64(rng.Intn(9000))}),
				),
				qd.P(qd.Pred{Col: 1, Op: qd.Le, Literal: rng.Int63n(dom)}),
			)
		}
		queries = append(queries, qd.NewQuery(fmt.Sprintf("xq%d", i), root))
	}
	return tbl, queries, acs
}

// TestCrossFormatEquivalence is the format-v2 acceptance property: the
// same randomized table and workload, materialized as both a v1 (plain)
// and a v2 (encoded) store, must return identical per-query match counts
// — equal to the exact row-at-a-time ground truth — and identical
// RowsScanned / BlocksScanned / RowsTotal through qd.Engine, across every
// engine profile, pruning mode, and parallelism.
func TestCrossFormatEquivalence(t *testing.T) {
	profiles := []qd.EngineProfile{qd.EngineSpark, qd.EngineDBMS}
	modes := []qd.ExecMode{qd.RouteQdTree, qd.NoRoute}
	options := []qd.ExecOptions{
		{Parallelism: 1},
		{Parallelism: 4},
	}
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tbl, queries, acs := randomSpec(seed)
			truth := qd.PerQueryMatches(tbl, queries, acs)

			// A qd-tree layout over the workload, plus its materialization
			// in both formats.
			ds := qd.NewDataset(tbl.Schema, tbl).WithQueries(queries, acs)
			plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 300})
			if err != nil {
				t.Fatal(err)
			}
			v1, err := qd.WriteStore(t.TempDir(), tbl, plan.Layout, qd.StoreOptions{FormatVersion: qd.StoreFormatV1})
			if err != nil {
				t.Fatal(err)
			}
			v2, err := qd.WriteStore(t.TempDir(), tbl, plan.Layout)
			if err != nil {
				t.Fatal(err)
			}
			s1, s2 := v1.Sizes(), v2.Sizes()
			if s2.EncodedBytes >= s1.EncodedBytes {
				t.Errorf("v2 store %d encoded bytes, v1 %d; expected compression", s2.EncodedBytes, s1.EncodedBytes)
			}

			for _, prof := range profiles {
				for _, mode := range modes {
					for _, opt := range options {
						label := fmt.Sprintf("%s/mode%d/p%d", prof.Name, mode, opt.Parallelism)
						e1, err := qd.NewEngine(v1, plan, prof, opt)
						if err != nil {
							t.Fatal(err)
						}
						e2, err := qd.NewEngine(v2, plan, prof, opt)
						if err != nil {
							t.Fatal(err)
						}
						e1.WithMode(mode)
						e2.WithMode(mode)

						for qi, q := range queries {
							r1, err := e1.Query(q)
							if err != nil {
								t.Fatalf("%s: v1 query %s: %v", label, q.Name, err)
							}
							r2, err := e2.Query(q)
							if err != nil {
								t.Fatalf("%s: v2 query %s: %v", label, q.Name, err)
							}
							if r1.RowsMatched != truth[qi] || r2.RowsMatched != truth[qi] {
								t.Fatalf("%s: query %s matches v1=%d v2=%d truth=%d",
									label, q.Name, r1.RowsMatched, r2.RowsMatched, truth[qi])
							}
							if r1.RowsScanned != r2.RowsScanned || r1.BlocksScanned != r2.BlocksScanned {
								t.Fatalf("%s: query %s scan divergence: v1 %d rows/%d blocks, v2 %d rows/%d blocks",
									label, q.Name, r1.RowsScanned, r1.BlocksScanned, r2.RowsScanned, r2.BlocksScanned)
							}
							if r1.RowsTotal != r2.RowsTotal || r1.BlocksTotal != r2.BlocksTotal {
								t.Fatalf("%s: query %s store totals diverge", label, q.Name)
							}
							if r1.BytesLogical != r2.BytesLogical {
								t.Fatalf("%s: query %s logical bytes diverge: %d vs %d",
									label, q.Name, r1.BytesLogical, r2.BytesLogical)
							}
						}

						e1.Close()
						e2.Close()
					}
				}
			}
		})
	}
}
