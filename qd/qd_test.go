package qd_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/qd"
)

func TestPublicGreedyPipeline(t *testing.T) {
	ds := microDataset(t)
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	frac := plan.AccessedFraction(nil)
	sel := ds.Selectivity()
	if frac < sel {
		t.Fatalf("fraction %.4f below selectivity lower bound %.4f", frac, sel)
	}
	if frac >= 1.0 {
		t.Errorf("greedy achieved no skipping (%.4f)", frac)
	}
	// Serialization round trip through the public API.
	var buf bytes.Buffer
	if err := plan.Tree.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := qd.LoadTree(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(back.Leaves()), len(plan.Tree.Leaves()); got != want {
		t.Errorf("leaves after round trip: %d vs %d", got, want)
	}
}

func TestPublicWoodblockPipeline(t *testing.T) {
	ds := microDataset(t)
	plan, err := qd.WoodblockPlanner{}.Plan(ds, qd.PlanOptions{
		MinBlockSize: 200, Seed: 1, Hidden: 16, MaxEpisodes: 6})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tree == nil || plan.RL == nil || plan.RL.Episodes != 6 {
		t.Fatalf("RL plan: %+v", plan)
	}
}

func TestPublicSamplingScalesB(t *testing.T) {
	ds := microDataset(t)
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{
		MinBlockSize: 400, SampleRate: 0.5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The plan's layout routes the FULL table; blocks must be ≈ >= b
	// (sampling noise aside).
	for b, n := range plan.Layout.Counts {
		if n > 0 && n < 100 {
			t.Errorf("block %d has %d rows; sampled construction degenerated", b, n)
		}
	}
}

func TestPublicBaselinesAndBottomUp(t *testing.T) {
	ds := microDataset(t)
	r1, err := qd.RandomPlanner{}.Plan(ds, qd.PlanOptions{NumBlocks: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := qd.RangePlanner{}.Plan(ds, qd.PlanOptions{NumBlocks: 8, RangeColumn: 0})
	if err != nil {
		t.Fatal(err)
	}
	bu, err := qd.BottomUpPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200, SelectivityCap: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(bu.Features) == 0 {
		t.Error("bottom-up selected no features")
	}
	// Ordering sanity: range partitioning on ship must beat random for
	// this ship-heavy workload.
	f1 := r1.AccessedFraction(nil)
	f2 := r2.AccessedFraction(nil)
	fb := bu.AccessedFraction(nil)
	if f2 >= f1 {
		t.Errorf("range %.3f should beat random %.3f on ship-range workload", f2, f1)
	}
	if fb <= 0 || fb > 1 {
		t.Errorf("bottom-up fraction out of range: %f", fb)
	}
}

func TestPublicExtensions(t *testing.T) {
	ds := microDataset(t)
	ov, err := qd.OverlapPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.Overlap.Validate(ds.Table); err != nil {
		t.Fatal(err)
	}
	tt, err := qd.TwoTreePlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if tt.TwoTree.AccessedFraction(ds.Queries) <= 0 {
		t.Error("two-tree fraction must be positive")
	}
}

func TestExplicitQueryConstruction(t *testing.T) {
	ds := microDataset(t)
	q := qd.NewQuery("manual", qd.And(
		qd.P(qd.Pred{Col: 0, Op: qd.Lt, Literal: 50}),
		qd.Or(
			qd.P(qd.Pred{Col: 2, Op: qd.Eq, Literal: 0}),
			qd.P(qd.NewIn(2, []int64{1, 2})),
		),
	))
	manual := qd.NewDataset(ds.Schema, ds.Table).WithQueries([]qd.Query{q}, nil)
	plan, err := qd.GreedyPlanner{}.Plan(manual, qd.PlanOptions{MinBlockSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Tree.QueryBlocks(q); len(got) == 0 {
		t.Error("query must intersect at least one block")
	}
}

// TestParseWorkloadNamesQueries: a workload's queries are named q<i> in
// order, a full single-table SELECT contributes its WHERE clause, and a
// bad text fails with its index.
func TestParseWorkloadNamesQueries(t *testing.T) {
	schema := microDataset(t).Schema
	qs, acs, err := qd.ParseWorkload(schema, []string{
		"ship < 5",
		"SELECT COUNT(*) FROM t WHERE ship < commit_d",
		"SELECT * FROM t WHERE mode = 'AIR'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 || qs[0].Name != "q0" || qs[1].Name != "q1" || qs[2].Name != "q2" || len(acs) != 1 {
		t.Fatalf("ParseWorkload = %+v, cuts %v", qs, acs)
	}
	if _, _, err := qd.ParseWorkload(schema, []string{"ship < 5", "zzz"}); err == nil || !strings.Contains(err.Error(), "query 1:") {
		t.Errorf("bad workload error = %v, want one naming query 1", err)
	}
}

// TestParseAggWorkloadNamesStatements: an aggregation workload's
// statements are named q<i> in order, and a bad text fails with its
// index.
func TestParseAggWorkloadNamesStatements(t *testing.T) {
	schema := microDataset(t).Schema
	aqs, _, err := qd.ParseAggWorkload(schema, []string{
		"SELECT COUNT(*) FROM t WHERE ship < 5",
		"SELECT mode, SUM(ship) FROM t GROUP BY mode",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(aqs) != 2 || aqs[0].Name != "q0" || aqs[1].Name != "q1" {
		t.Fatalf("ParseAggWorkload = %+v", aqs)
	}
	if _, _, err := qd.ParseAggWorkload(schema, []string{"SELECT COUNT(*) FROM t", "garbage"}); err == nil || !strings.Contains(err.Error(), "query 1:") {
		t.Errorf("bad workload error = %v, want one naming query 1", err)
	}
}
