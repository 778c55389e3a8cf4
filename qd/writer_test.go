package qd_test

import (
	"errors"
	"math"
	"testing"

	"repro/qd"
)

func TestBulkWriterLifecycle(t *testing.T) {
	ds := microDataset(t)
	dir := t.TempDir()
	w, err := qd.NewBulkWriter(dir, ds, "greedy", qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Insert([][]int64{{5, 5, 0}, {6, 6, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := w.Insert([][]int64{{1, 2}}); err == nil {
		t.Fatal("short row must be rejected")
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Store() != nil {
		t.Fatal("no store before the first Compact")
	}
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}
	if w.Rows() != ds.Table.N+2 {
		t.Fatalf("rows %d, want %d", w.Rows(), ds.Table.N+2)
	}
	// Idempotent with nothing new.
	if err := w.Compact(); err != nil {
		t.Fatal(err)
	}

	// The materialized store answers queries, including the inserted rows.
	eng, err := qd.NewEngine(w.Store(), w.Plan(), qd.EngineSpark, qd.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Query(ds.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	ref := qd.NewTable(ds.Table.Schema, ds.Table.N+2)
	ref.Concat(ds.Table)
	ref.AppendRow([]int64{5, 5, 0})
	ref.AppendRow([]int64{6, 6, 1})
	if want := qd.PerQueryMatches(ref, ds.Queries[:1], ds.ACs)[0]; res.RowsMatched != want {
		t.Fatalf("matched %d, want %d", res.RowsMatched, want)
	}

	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal("Close must be idempotent:", err)
	}
	for name, call := range map[string]func() error{
		"insert":  func() error { return w.Insert([][]int64{{1, 1, 0}}) },
		"flush":   w.Flush,
		"compact": w.Compact,
	} {
		if err := call(); !errors.Is(err, qd.ErrWriterClosed) {
			t.Errorf("%s after close: %v, want ErrWriterClosed", name, err)
		}
	}
}

func TestEngineWriterClosed(t *testing.T) {
	ds, plan, store := planAndMaterialize(t)
	eng, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Insert([][]int64{{1, 1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for name, call := range map[string]func() error{
		"insert":  func() error { return eng.Insert([][]int64{{1, 1, 0}}) },
		"flush":   eng.Flush,
		"compact": eng.Compact,
	} {
		if err := call(); !errors.Is(err, qd.ErrWriterClosed) {
			t.Errorf("%s after close: %v, want ErrWriterClosed", name, err)
		}
	}
	_ = ds
}

// TestEngineDeltaSurvivesReopen pins the durability path: rows inserted
// through an engine and sealed (here by Close) are recovered when the
// store directory is reopened, and served before any compaction.
func TestEngineDeltaSurvivesReopen(t *testing.T) {
	ds := microDataset(t)
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store, err := qd.WriteStore(dir, ds.Table, plan.Layout)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Insert([][]int64{{50, 50, 0}, {51, 51, 1}, {52, 52, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil { // seals the memtable to disk
		t.Fatal(err)
	}

	re, err := qd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Delta) == 0 {
		t.Fatal("reopened store must see the sealed delta segment")
	}
	eng2, err := qd.NewEngine(re, plan, qd.EngineSpark, qd.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if eng2.DeltaRows() != 3 {
		t.Fatalf("recovered %d delta rows, want 3", eng2.DeltaRows())
	}
	qs, _, err := qd.ParseWorkload(ds.Table.Schema, []string{"ship >= 50 AND ship <= 52"})
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	want := qd.PerQueryMatches(ds.Table, []qd.Query{q}, nil)[0] + 3
	res, err := eng2.Query(q)
	if err != nil || res.RowsMatched != want {
		t.Fatalf("matched %d err %v, want %d (recovered rows served)", res.RowsMatched, err, want)
	}
	// Compaction folds the recovered rows and deletes the segments.
	if err := eng2.Compact(); err != nil {
		t.Fatal(err)
	}
	res, err = eng2.Query(q)
	if err != nil || res.RowsMatched != want || res.DeltaRows != 0 {
		t.Fatalf("post-compaction: matched %d delta %d err %v", res.RowsMatched, res.DeltaRows, err)
	}
	re2, err := qd.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if len(re2.Delta) != 0 {
		t.Fatalf("segments %v survive compaction", re2.Delta)
	}
}

// TestCompactionRestoresSkipRate is the acceptance gate: after folding a
// 20% insert stream through the plan's qd-tree, the workload's skip rate
// must come within 5 points of a cold bulk load of the same rows — for
// both live writers, the Engine compacting in place and the Server
// compacting into a fresh generation.
func TestCompactionRestoresSkipRate(t *testing.T) {
	tbl, queries, acs := randomSpec(7)
	base, stream := splitSpec(tbl, 0.8)
	popt := qd.PlanOptions{MinBlockSize: 300}
	plan, err := qd.GreedyPlanner{}.Plan(qd.NewDataset(tbl.Schema, base).WithQueries(queries, acs), popt)
	if err != nil {
		t.Fatal(err)
	}
	newEngine := func(tbl *qd.Table, plan *qd.Plan) *qd.Engine {
		store, err := qd.WriteStore(t.TempDir(), tbl, plan.Layout)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	skipRate := func(run func(qd.Query) (qd.ExecResult, error)) float64 {
		var scanned, total int64
		for _, q := range queries {
			res, err := run(q)
			if err != nil {
				t.Fatal(err)
			}
			scanned += res.RowsScanned
			total += res.RowsTotal
		}
		return 1 - float64(scanned)/float64(total)
	}

	// Cold baseline: bulk-load base+stream in one shot with the same plan
	// options.
	coldPlan, err := qd.GreedyPlanner{}.Plan(qd.NewDataset(tbl.Schema, tbl).WithQueries(queries, acs), popt)
	if err != nil {
		t.Fatal(err)
	}
	cold := skipRate(newEngine(tbl, coldPlan).Query)

	root := t.TempDir()
	if err := qd.InitServing(root, base, plan); err != nil {
		t.Fatal(err)
	}
	srv, err := qd.NewServer(root, qd.ServeOptions{ACs: acs, Plan: popt})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	eng := newEngine(base, plan)
	for _, w := range []struct {
		name  string
		w     qd.Writer
		query func(qd.Query) (qd.ExecResult, error)
	}{
		{"engine", eng, eng.Query},
		{"server", srv, func(q qd.Query) (qd.ExecResult, error) {
			res, err := srv.Execute(qd.Statement{Filter: q}, nil)
			if err != nil {
				return qd.ExecResult{}, err
			}
			return *res.Filter, nil
		}},
	} {
		before := skipRate(w.query)
		if err := w.w.Insert(stream); err != nil {
			t.Fatal(err)
		}
		during := skipRate(w.query)
		if during >= before {
			t.Fatalf("%s: skip rate %.3f with a full delta, %.3f without — unpruned delta rows must cost something", w.name, during, before)
		}
		if err := w.w.Compact(); err != nil {
			t.Fatal(err)
		}
		if after := skipRate(w.query); math.Abs(after-cold) > 0.05 {
			t.Fatalf("%s: post-compaction skip %.3f vs cold bulk-load %.3f (diff %.3f > 0.05)", w.name, after, cold, math.Abs(after-cold))
		}
	}
}
