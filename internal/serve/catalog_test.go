package serve_test

import (
	"fmt"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/serve"
	"repro/qd"
)

// Pruning reads only the layout's descriptions, never the catalog's zone
// maps: that is sound because every writer builds its catalog from the
// layout's own rows and block IDs, so each non-empty block's catalog
// [Min, Max] is exactly its description's [Lo, Hi-1]. The test below
// pins that identity on every path that writes a store, so a writer that
// breaks it fails here instead of silently changing what is pruned.

// checkCatalogMatchesLayout asserts that st holds l's blocks with l's row
// counts, and that every non-empty block's zone maps equal its
// description intervals on every column.
func checkCatalogMatchesLayout(t *testing.T, where string, l *cost.Layout, st *blockstore.Store) {
	t.Helper()
	if len(st.Blocks) != l.NumBlocks() {
		t.Fatalf("%s: catalog has %d blocks, layout %d", where, len(st.Blocks), l.NumBlocks())
	}
	nonEmpty := 0
	for b, n := range l.Counts {
		m := &st.Blocks[b]
		if m.Rows != n {
			t.Fatalf("%s: block %d holds %d rows in the catalog, %d in the layout", where, b, m.Rows, n)
		}
		if n == 0 {
			continue
		}
		nonEmpty++
		d := &l.Descs[b]
		if len(m.Min) != len(d.Lo) || len(m.Max) != len(d.Lo) {
			t.Fatalf("%s: block %d has %d/%d zone maps for %d columns", where, b, len(m.Min), len(m.Max), len(d.Lo))
		}
		for c := range d.Lo {
			if m.Min[c] != d.Lo[c] || m.Max[c] != d.Hi[c]-1 {
				t.Fatalf("%s: block %d column %d: catalog [%d, %d], layout [%d, %d)", where, b, c, m.Min[c], m.Max[c], d.Lo[c], d.Hi[c])
			}
		}
	}
	if nonEmpty < 2 {
		t.Fatalf("%s: %d non-empty blocks, too few to show anything", where, nonEmpty)
	}
}

// catalogDataset is a small table whose columns spread differently over
// its rows, with a workload that greedy can cut on.
func catalogDataset(t *testing.T) *qd.Dataset {
	t.Helper()
	schema := qd.MustSchema([]qd.Column{
		{Name: "ship", Kind: qd.Numeric, Min: 0, Max: 1999},
		{Name: "commit_d", Kind: qd.Numeric, Min: 0, Max: 1999},
		{Name: "mode", Kind: qd.Categorical, Dom: 3, Dict: []string{"AIR", "RAIL", "SHIP"}},
	})
	tbl := qd.NewTable(schema, 4000)
	for i := range 4000 {
		ship := int64(i * 7 % 1000)
		tbl.AppendRow([]int64{ship, ship + int64(i%11), int64(i % 3)})
	}
	ds, err := qd.NewDataset(schema, tbl).WithWorkload(
		"ship < 100 AND mode = 'AIR'",
		"ship BETWEEN 500 AND 600",
		"ship < commit_d AND mode IN ('RAIL', 'SHIP')",
		"ship >= 900",
	)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// insertRows appends n rows above the base table's ship range, so that a
// compaction changes the intervals of the blocks they land in.
func insertRows(t *testing.T, srv *qd.Server, n, seed int) {
	t.Helper()
	rows := make([][]int64, n)
	for i := range rows {
		ship := int64(1000 + (i*13+seed*101)%1000)
		rows[i] = []int64{ship, ship - int64(i%5), int64((i + seed) % 3)}
	}
	if err := srv.Insert(rows); err != nil {
		t.Fatal(err)
	}
}

// TestCatalogZoneMapsEqualLayoutIntervals checks the identity on every
// writer: qd.WriteStore from a greedy plan; qd.InitServing and a reopen;
// compactions that route by "append", "replan" and "tree"; a forced
// relayout; and a cluster shard.
func TestCatalogZoneMapsEqualLayoutIntervals(t *testing.T) {
	ds := catalogDataset(t)
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Layout.Tree == nil {
		t.Fatal("greedy plan has no tree")
	}

	st, err := qd.WriteStore(t.TempDir(), ds.Table, plan.Layout)
	if err != nil {
		t.Fatal(err)
	}
	checkCatalogMatchesLayout(t, "WriteStore", plan.Layout, st)
	st.Close()

	root := t.TempDir()
	if err := qd.InitServing(root, ds.Table, plan); err != nil {
		t.Fatal(err)
	}
	opts := qd.ServeOptions{ACs: ds.ACs, Plan: qd.PlanOptions{MinBlockSize: 200}}
	open := func(where string) *qd.Server {
		t.Helper()
		srv, err := qd.NewServer(root, opts)
		if err != nil {
			t.Fatal(err)
		}
		l, st := serve.LiveGeneration(srv)
		checkCatalogMatchesLayout(t, where, l, st)
		return srv
	}
	srv := open("InitServing")
	srv.Close()
	srv = open("reopen after InitServing")
	defer func() { srv.Close() }()

	// A booted server has no tree and, before any query, no window: the
	// first compaction appends; once queries are logged it replans, and
	// the replanned layout's tree routes the next one.
	for i, routed := range []string{"append", "replan", "tree"} {
		if routed == "replan" {
			for _, q := range []string{"ship < 100 AND mode = 'AIR'", "ship >= 1500", "ship BETWEEN 500 AND 1200"} {
				if _, err := srv.QuerySQL(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		insertRows(t, srv, 300, i)
		rep, err := srv.RunCompaction(true)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Routed != routed || !rep.Swapped {
			t.Fatalf("compaction %d: routed %q (swapped %v), want %q", i, rep.Routed, rep.Swapped, routed)
		}
		l, st := serve.LiveGeneration(srv)
		checkCatalogMatchesLayout(t, "compaction by "+routed, l, st)
	}

	rep, err := srv.Relayout(true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped {
		t.Fatalf("forced relayout did not swap: %s", rep.Reason)
	}
	l, st := serve.LiveGeneration(srv)
	checkCatalogMatchesLayout(t, "Relayout", l, st)
	srv.Close()
	srv = open("reopen after compactions and relayout")

	dir := t.TempDir()
	for id := range 2 {
		if err := qd.InitClusterShard(dir, ds.Table, plan, 2, id); err != nil {
			t.Fatal(err)
		}
		shard, err := qd.NewServer(qd.ClusterShardRoot(dir, id), opts)
		if err != nil {
			t.Fatal(err)
		}
		l, st := serve.LiveGeneration(shard)
		checkCatalogMatchesLayout(t, fmt.Sprintf("cluster shard %d", id), l, st)
		shard.Close()
	}
}
