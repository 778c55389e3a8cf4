package qd_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/qd"
)

// planAndMaterialize plans the micro workload greedily and writes its
// block store under a test temp dir.
func planAndMaterialize(t *testing.T) (*qd.Dataset, *qd.Plan, *qd.BlockStore) {
	t.Helper()
	ds := microDataset(t)
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	store, err := qd.WriteStore(t.TempDir(), ds.Table, plan.Layout)
	if err != nil {
		t.Fatal(err)
	}
	return ds, plan, store
}

func TestEngineQueryAndWorkload(t *testing.T) {
	ds, plan, store := planAndMaterialize(t)
	eng, err := qd.NewEngine(store, plan, qd.EngineDBMS, qd.ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	res, err := eng.Query(ds.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned == 0 || res.RowsMatched == 0 {
		t.Errorf("query scanned %d matched %d", res.RowsScanned, res.RowsMatched)
	}
	exact := qd.PerQueryMatches(ds.Table, ds.Queries, ds.ACs)
	wr, err := eng.Workload(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wr.Results {
		if wr.Results[i].RowsMatched != exact[i] {
			t.Errorf("%s: engine matched %d, exact %d", ds.Queries[i].Name, wr.Results[i].RowsMatched, exact[i])
		}
	}
}

// TestEngineParallelCountsIdentical: scheduling options change wall
// clock, never counters.
func TestEngineParallelCountsIdentical(t *testing.T) {
	ds, plan, store := planAndMaterialize(t)
	seqEng, err := qd.NewEngine(store, plan, qd.EngineDBMS, qd.ExecOptions{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	parEng, err := qd.NewEngine(store, plan, qd.EngineDBMS, qd.ExecOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer seqEng.Close()
	seq, err := seqEng.Workload(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	par, err := parEng.Workload(ds.Queries)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Results {
		if seq.Results[i].ScanStats != par.Results[i].ScanStats {
			t.Errorf("%s: parallel stats %+v, sequential %+v",
				ds.Queries[i].Name, par.Results[i].ScanStats, seq.Results[i].ScanStats)
		}
	}
}

// TestEngineWorkloadMatchesQuery: Workload is Query in a loop. For both
// profiles, both modes and every Options value, each workload result
// equals Query's on ScanStats and SimTime, and TotalSimTime is their sum.
func TestEngineWorkloadMatchesQuery(t *testing.T) {
	ds, plan, store := planAndMaterialize(t)
	for _, prof := range []qd.EngineProfile{qd.EngineSpark, qd.EngineDBMS} {
		for _, opt := range []qd.ExecOptions{{Parallelism: 1}, {Parallelism: 4}, {Parallelism: 0}} {
			eng, err := qd.NewEngine(store, plan, prof, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []qd.ExecMode{qd.RouteQdTree, qd.NoRoute} {
				label := fmt.Sprintf("%s/p%d/mode%d", prof.Name, opt.Parallelism, mode)
				eng.WithMode(mode)
				wr, err := eng.Workload(ds.Queries)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				var total time.Duration
				for i, q := range ds.Queries {
					want, err := eng.Query(q)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got := wr.Results[i]
					if got.ScanStats != want.ScanStats || got.SimTime != want.SimTime {
						t.Errorf("%s %s: workload %+v / %v, query %+v / %v",
							label, q.Name, got.ScanStats, got.SimTime, want.ScanStats, want.SimTime)
					}
					total += got.SimTime
				}
				if wr.TotalSimTime != total {
					t.Errorf("%s: TotalSimTime %v, Σ SimTime %v", label, wr.TotalSimTime, total)
				}
			}
		}
	}
	store.Close()
}

// TestEngineCloseIdempotent is the regression test for Engine.Close:
// double-Close is a no-op, and queries after Close fail loudly instead of
// reopening block handles.
func TestEngineCloseIdempotent(t *testing.T) {
	ds, plan, store := planAndMaterialize(t)
	eng, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Populate the store's handle cache.
	if _, err := eng.Query(ds.Queries[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close must be a no-op: %v", err)
	}
	if _, err := eng.Query(ds.Queries[0]); err == nil {
		t.Error("Query after Close must error")
	} else if !strings.Contains(err.Error(), "closed") {
		t.Errorf("unexpected query-after-close error: %v", err)
	}
	if _, err := eng.Workload(ds.Queries); err == nil {
		t.Error("Workload after Close must error")
	}
	// The store itself stays reopenable by a fresh engine — Close released
	// the handle cache, it did not delete the blocks.
	eng2, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	if _, err := eng2.Query(ds.Queries[0]); err != nil {
		t.Fatalf("fresh engine on closed store: %v", err)
	}
}

// TestEngineCloseDrainsInFlightQueries: Close must wait for running
// queries instead of yanking cached block handles from under them, and
// concurrent WithMode/Query/Close must be race-free.
func TestEngineCloseDrainsInFlightQueries(t *testing.T) {
	ds, plan, store := planAndMaterialize(t)
	eng, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if g == 0 && i == 10 {
					eng.WithMode(qd.RouteQdTree)
				}
				if _, err := eng.Query(ds.Queries[i%len(ds.Queries)]); err != nil {
					// Only the engine-closed error is acceptable once Close ran.
					if !strings.Contains(err.Error(), "closed") {
						t.Errorf("in-flight query failed: %v", err)
					}
					return
				}
			}
		}(g)
	}
	if err := eng.Close(); err != nil {
		t.Errorf("close during queries: %v", err)
	}
	wg.Wait()
}

func TestEngineConstructionValidation(t *testing.T) {
	_, plan, store := planAndMaterialize(t)
	if _, err := qd.NewEngine(nil, plan, qd.EngineSpark, qd.ExecOptions{}); err == nil {
		t.Error("nil store must error")
	}
	if _, err := qd.NewEngine(store, nil, qd.EngineSpark, qd.ExecOptions{}); err == nil {
		t.Error("nil plan must error")
	}
	if _, err := qd.NewEngine(store, &qd.Plan{}, qd.EngineSpark, qd.ExecOptions{}); err == nil {
		t.Error("plan without layout must error")
	}
}
