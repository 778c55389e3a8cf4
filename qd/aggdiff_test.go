package qd_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/qd"
)

// randomAggWorkload draws aggregate statements over the randomSpec schema
// (t, cat, v, flag, u): every function, filters reusing the predicate mix
// of the scan-equivalence suite (including advanced cuts), and global /
// single / dense-categorical / multi-column groupings.
func randomAggWorkload(rng *rand.Rand, dom int64) []qd.AggQuery {
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
	groupings := [][]int{nil, {1}, {3}, {1, 3}, {4}}
	pool := []qd.Agg{
		{Func: qd.AggCountStar},
		{Func: qd.AggCount, Col: 2},
		{Func: qd.AggSum, Col: 2},
		{Func: qd.AggSum, Col: 0},
		{Func: qd.AggMin, Col: 2},
		{Func: qd.AggMax, Col: 0},
		{Func: qd.AggAvg, Col: 2},
		{Func: qd.AggAvg, Col: 4},
		{Func: qd.AggMin, Col: 4},
	}
	var out []qd.AggQuery
	for i, root := range filters {
		gb := groupings[rng.Intn(len(groupings))]
		aggs := []qd.Agg{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], {Func: qd.AggCountStar}, {Func: qd.AggAvg, Col: 2}}
		out = append(out, qd.AggQuery{
			Name:    fmt.Sprintf("aq%d", i),
			Aggs:    aggs,
			GroupBy: gb,
			Filter:  qd.Query{Root: root},
		})
	}
	return out
}

func sameAggRows(t *testing.T, label string, got, want qd.Rows) {
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
		for v := range w.Vals {
			gv, wv := g.Vals[v], w.Vals[v]
			// Integer aggregates must be exact; AVG within 1e-9 relative.
			if gv.Valid != wv.Valid || gv.Int != wv.Int {
				t.Fatalf("%s row %d val %d: got %+v, want %+v", label, i, v, gv, wv)
			}
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

// TestAggregateDifferential is the aggregation acceptance property:
// random tables and random aggregate/GROUP BY workloads return results
// identical to the naive row-at-a-time reference evaluator — exact for
// integer aggregates, within 1e-9 relative error for AVG — across both
// block formats, both engine profiles, both pruning modes, every
// parallelism setting, and the Engine facade.
func TestAggregateDifferential(t *testing.T) {
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
			rng := rand.New(rand.NewSource(seed * 31))
			workload := randomAggWorkload(rng, tbl.Schema.Cols[1].Dom)
			truth := make([]qd.Rows, len(workload))
			for i, aq := range workload {
				truth[i] = qd.ReferenceAggregate(tbl, aq, acs)
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
							results, err := eng.AggregateWorkload(workload)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							for i, res := range results {
								sameAggRows(t, fmt.Sprintf("%s/%s", label, workload[i].Name), res.Rows, truth[i])
								if res.RowsTotal != int64(tbl.N) {
									t.Fatalf("%s/%s: RowsTotal %d, want %d", label, workload[i].Name, res.RowsTotal, tbl.N)
								}
							}
							eng.Close()
						}
					}
				}
			}
		})
	}
}

// TestAggregateSQLEndToEnd drives the whole path — SQL text through
// ParseSelect, a planned layout, a v2 store, and Engine.Aggregate — and
// checks the typed rows against the reference evaluator.
func TestAggregateSQLEndToEnd(t *testing.T) {
	tbl, queries, acs := randomSpec(42)
	ds := qd.NewDataset(tbl.Schema, tbl).WithQueries(queries, acs)
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 400})
	if err != nil {
		t.Fatal(err)
	}
	store, err := qd.WriteStore(t.TempDir(), tbl, plan.Layout)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := qd.NewEngine(store, plan, qd.EngineDBMS, qd.ExecOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	sqls := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(*), SUM(v), AVG(v) FROM t WHERE t >= 2000",
		"SELECT cat, COUNT(*), SUM(v), MIN(v), MAX(v) FROM t WHERE flag = 'Y' GROUP BY cat",
		"SELECT flag, cat, AVG(u) FROM t GROUP BY flag, cat",
		"SELECT MIN(t), MAX(t) FROM t",
	}
	aqs, _, err := qd.ParseAggWorkload(tbl.Schema, sqls)
	if err != nil {
		t.Fatal(err)
	}
	for i, aq := range aqs {
		res, err := eng.Aggregate(aq)
		if err != nil {
			t.Fatalf("%s: %v", sqls[i], err)
		}
		sameAggRows(t, sqls[i], res.Rows, qd.ReferenceAggregate(tbl, aq, acs))
	}
	if _, err := eng.Aggregate(qd.AggQuery{Aggs: []qd.Agg{{Func: qd.AggSum, Col: 99}}}); err == nil {
		t.Error("out-of-schema aggregate must error through the engine")
	}
	// A filter referencing an advanced cut beyond the plan's table, or a
	// column beyond the schema, must surface as an error through every
	// statement kind, never an index panic in routing or the kernels.
	for _, bad := range []qd.Query{
		{Name: "adv", Root: qd.AdvRef(len(acs) + 3)},
		{Name: "col", Root: qd.P(qd.Pred{Col: 99, Op: qd.Ge, Literal: 1})},
	} {
		if _, err := eng.Query(bad); err == nil {
			t.Errorf("%s: out-of-range filter must error through Query", bad.Name)
		}
		if _, err := eng.Aggregate(qd.AggQuery{Aggs: []qd.Agg{{Func: qd.AggCountStar}}, Filter: bad}); err == nil {
			t.Errorf("%s: out-of-range filter must error through Aggregate", bad.Name)
		}
		if _, err := eng.Select(qd.RowStmt{Row: &qd.RowQuery{Cols: []int{0}, Filter: bad}}); err == nil {
			t.Errorf("%s: out-of-range filter must error through a row Select", bad.Name)
		}
		if _, err := eng.Select(qd.RowStmt{Join: &qd.JoinQuery{
			Cols:        []qd.ColRef{{Side: 0, Col: 0}},
			RightFilter: bad,
		}}); err == nil {
			t.Errorf("%s: out-of-range filter must error through a join Select", bad.Name)
		}
	}
}
