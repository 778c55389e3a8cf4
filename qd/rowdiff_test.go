package qd_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/qd"
)

// randomRowWorkload draws row-returning statements over the randomSpec
// schema (t, cat, v, flag, u): projection subsets (including a duplicate
// column), single- and multi-key ORDER BY with DESC, LIMIT with and
// without ORDER BY (the TopK path and the plain heap-less path), and the
// filter mix of the scan-equivalence suite including advanced cuts and a
// fully-pruned band.
func randomRowWorkload(rng *rand.Rand, dom int64) []qd.RowQuery {
	filters := []*expr.Node{
		nil,
		qd.P(qd.Pred{Col: 0, Op: qd.Ge, Literal: int64(rng.Intn(9000))}),
		qd.And(
			qd.P(qd.NewIn(1, []int64{rng.Int63n(dom), rng.Int63n(dom)})),
			qd.P(qd.Pred{Col: 2, Op: qd.Lt, Literal: int64(rng.Intn(400))}),
		),
		qd.Or(
			qd.P(qd.Pred{Col: 2, Op: qd.Gt, Literal: 400}),
			qd.P(qd.Pred{Col: 2, Op: qd.Lt, Literal: -400}),
		),
		qd.And(qd.AdvRef(0), qd.P(qd.Pred{Col: 3, Op: qd.Eq, Literal: 1})),
		qd.P(qd.Pred{Col: 0, Op: qd.Gt, Literal: 1 << 40}), // fully pruned
	}
	shapes := []qd.RowQuery{
		{Cols: []int{0, 2}, OrderBy: []qd.OrderKey{{Pos: 1, Desc: true}, {Pos: 0}}, Limit: 25},
		{Cols: []int{1, 3, 0}, OrderBy: []qd.OrderKey{{Pos: 2}}, Limit: 50},
		{Cols: []int{4}, Limit: 10}, // LIMIT without ORDER BY
		{Cols: []int{0, 1, 2, 3, 4}, OrderBy: []qd.OrderKey{{Pos: 0}, {Pos: 4, Desc: true}}},
		{Cols: []int{2, 2}, OrderBy: []qd.OrderKey{{Pos: 0, Desc: true}}, Limit: 7}, // duplicate projection
		{Cols: []int{3, 1}},
	}
	var out []qd.RowQuery
	for i, root := range filters {
		for j, shape := range shapes {
			rq := shape
			rq.Name = fmt.Sprintf("rq%d_%d", i, j)
			rq.Filter = qd.Query{Root: root}
			out = append(out, rq)
		}
	}
	return out
}

// randomJoinWorkload draws self-joins over the same schema: categorical
// keys exercising the dense code-space build (cat, flag — both sides
// share one dictionary), a numeric key through the partitioned hash
// path (t), advanced-cut side filters, and an empty build side. Side
// filters stay selective so the reference nested loop stays tractable.
func randomJoinWorkload(rng *rand.Rand) []qd.JoinQuery {
	return []qd.JoinQuery{
		{
			Name: "j_cat", LeftTable: "a", RightTable: "b", LeftKey: 1, RightKey: 1,
			Cols:        []qd.ColRef{{Side: 0, Col: 0}, {Side: 1, Col: 0}, {Side: 0, Col: 1}},
			LeftFilter:  qd.Query{Root: qd.P(qd.Pred{Col: 2, Op: qd.Gt, Literal: 460})},
			RightFilter: qd.Query{Root: qd.P(qd.Pred{Col: 2, Op: qd.Lt, Literal: -460})},
			OrderBy:     []qd.OrderKey{{Pos: 0}, {Pos: 1}}, Limit: 40,
		},
		{
			Name: "j_flag", LeftTable: "a", RightTable: "b", LeftKey: 3, RightKey: 3,
			Cols:        []qd.ColRef{{Side: 0, Col: 4}, {Side: 1, Col: 4}},
			LeftFilter:  qd.Query{Root: qd.P(qd.Pred{Col: 0, Op: qd.Gt, Literal: 9200})},
			RightFilter: qd.Query{Root: qd.P(qd.Pred{Col: 0, Op: qd.Lt, Literal: int64(300 + rng.Intn(200))})},
			OrderBy:     []qd.OrderKey{{Pos: 0, Desc: true}}, Limit: 25,
		},
		{
			Name: "j_hash_t", LeftTable: "a", RightTable: "b", LeftKey: 0, RightKey: 0,
			Cols:        []qd.ColRef{{Side: 0, Col: 2}, {Side: 1, Col: 2}, {Side: 1, Col: 0}},
			LeftFilter:  qd.Query{Root: qd.P(qd.Pred{Col: 2, Op: qd.Gt, Literal: 490})},
			RightFilter: qd.Query{Root: qd.P(qd.Pred{Col: 2, Op: qd.Gt, Literal: 490})},
			Limit:       30, // LIMIT without ORDER BY
		},
		{
			Name: "j_adv", LeftTable: "a", RightTable: "b", LeftKey: 1, RightKey: 1,
			Cols:        []qd.ColRef{{Side: 0, Col: 0}, {Side: 1, Col: 4}},
			LeftFilter:  qd.Query{Root: qd.And(qd.AdvRef(0), qd.P(qd.Pred{Col: 2, Op: qd.Gt, Literal: 470}))},
			RightFilter: qd.Query{Root: qd.P(qd.Pred{Col: 2, Op: qd.Lt, Literal: -470})},
			OrderBy:     []qd.OrderKey{{Pos: 1}}, Limit: 20,
		},
		{
			Name: "j_empty", LeftTable: "a", RightTable: "b", LeftKey: 3, RightKey: 3,
			Cols:       []qd.ColRef{{Side: 0, Col: 0}, {Side: 1, Col: 0}},
			LeftFilter: qd.Query{Root: qd.P(qd.Pred{Col: 0, Op: qd.Gt, Literal: 1 << 40})},
		},
	}
}

func sameTuples(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %v, want %v", label, i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s row %d: %v, want %v", label, i, got[i], want[i])
			}
		}
	}
}

// TestRowDifferential is the row-query acceptance property: random
// tables and random projection/ORDER BY/LIMIT/join workloads return
// tuples bit-identical to the row-at-a-time reference evaluator across
// both block formats, both engine profiles, both pruning modes, and
// every parallelism setting — the deterministic comparator
// makes even unordered statements comparable without sorting the
// expectation.
func TestRowDifferential(t *testing.T) {
	profiles := []qd.EngineProfile{qd.EngineSpark, qd.EngineDBMS}
	modes := []qd.ExecMode{qd.RouteQdTree, qd.NoRoute}
	options := []qd.ExecOptions{
		{Parallelism: 1},
		{Parallelism: 4},
	}
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tbl, queries, acs := randomSpec(seed)
			rng := rand.New(rand.NewSource(seed * 77))
			rows := randomRowWorkload(rng, tbl.Schema.Cols[1].Dom)
			joins := randomJoinWorkload(rng)
			rowTruth := make([][][]int64, len(rows))
			for i, rq := range rows {
				rowTruth[i] = qd.ReferenceSelect(tbl, rq, acs)
			}
			joinTruth := make([][][]int64, len(joins))
			for i, jq := range joins {
				joinTruth[i] = qd.ReferenceJoin(tbl, jq, acs)
			}

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

			for _, prof := range profiles {
				for _, mode := range modes {
					for _, opt := range options {
						for fi, store := range []*qd.BlockStore{v1, v2} {
							label := fmt.Sprintf("v%d/%s/mode%d/p%d", fi+1, prof.Name, mode, opt.Parallelism)
							eng, err := qd.NewEngine(store, plan, prof, opt)
							if err != nil {
								t.Fatal(err)
							}
							eng.WithMode(mode)
							for i, rq := range rows {
								res, err := eng.Select(qd.RowStmt{Row: &rq})
								if err != nil {
									t.Fatalf("%s/%s: %v", label, rq.Name, err)
								}
								sameTuples(t, fmt.Sprintf("%s/%s", label, rq.Name), res.Rows, rowTruth[i])
							}
							for i, jq := range joins {
								res, err := eng.Select(qd.RowStmt{Join: &jq})
								if err != nil {
									t.Fatalf("%s/%s: %v", label, jq.Name, err)
								}
								sameTuples(t, fmt.Sprintf("%s/%s", label, jq.Name), res.Rows, joinTruth[i])
							}
							eng.Close()
						}
					}
				}
			}
		})
	}
}

// TestRowDifferentialDelta extends the property to base ∪ delta: rows
// inserted into a Server's delta are merged into row and join answers
// exactly as if the table had been written with them, across both
// block formats and sequential and parallel scans.
func TestRowDifferentialDelta(t *testing.T) {
	tbl, queries, acs := randomSpec(5)
	rng := rand.New(rand.NewSource(99))
	dom := tbl.Schema.Cols[1].Dom
	extra := make([][]int64, 300)
	for i := range extra {
		extra[i] = []int64{
			rng.Int63n(10000), rng.Int63n(dom),
			int64(rng.Intn(1001)) - 500, rng.Int63n(2), rng.Int63n(10000),
		}
	}
	combined := qd.NewTable(tbl.Schema, tbl.N+len(extra))
	combined.Concat(tbl)
	for _, row := range extra {
		combined.AppendRow(row)
	}
	rows := randomRowWorkload(rng, dom)[:12]
	joins := randomJoinWorkload(rng)[:3]

	popt := qd.PlanOptions{MinBlockSize: 300}
	ds := qd.NewDataset(tbl.Schema, tbl).WithQueries(queries, acs)
	plan, err := qd.GreedyPlanner{}.Plan(ds, popt)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []int{qd.StoreFormatV1, qd.StoreFormatV2} {
		for _, par := range []int{1, 4} {
			label := fmt.Sprintf("v%d/p%d", format, par)
			srv := newTestServer(t, tbl, plan.Layout, acs, format, par, popt)
			if err := srv.Insert(extra); err != nil {
				t.Fatal(err)
			}
			if got := srv.Stats().DeltaRows; got != len(extra) {
				t.Fatalf("%s: delta rows %d, want %d", label, got, len(extra))
			}
			for _, rq := range rows {
				res, err := srv.Execute(qd.Statement{Row: &rq}, nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", label, rq.Name, err)
				}
				sameTuples(t, fmt.Sprintf("%s/%s", label, rq.Name), res.Rows.Rows, qd.ReferenceSelect(combined, rq, acs))
			}
			for _, jq := range joins {
				res, err := srv.Execute(qd.Statement{Join: &jq}, nil)
				if err != nil {
					t.Fatalf("%s/%s: %v", label, jq.Name, err)
				}
				sameTuples(t, fmt.Sprintf("%s/%s", label, jq.Name), res.Rows.Rows, qd.ReferenceJoin(combined, jq, acs))
			}
			srv.Close()
		}
	}
}
