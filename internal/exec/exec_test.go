package exec

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/greedy"
	"repro/internal/workload"

	"repro/internal/core"
	"repro/internal/expr"
)

func toCuts(ps []workload.Pred2Cut) []core.Cut {
	out := make([]core.Cut, len(ps))
	for i, p := range ps {
		if p.IsAdv {
			out[i] = core.AdvancedCut(p.Adv)
		} else {
			out[i] = core.UnaryCut(p.Pred)
		}
	}
	return out
}

// fixture builds a greedy qd-tree layout over Fig3 and materializes it.
func fixture(t *testing.T) (*blockstore.Store, *cost.Layout, *workload.Spec) {
	t.Helper()
	spec := workload.Fig3(5000, 1)
	tree, err := greedy.Build(spec.Table, spec.ACs, greedy.Options{
		MinSize: 50, Cuts: toCuts(spec.Cuts), Queries: spec.Queries})
	if err != nil {
		t.Fatal(err)
	}
	layout := cost.FromTree("greedy", tree, spec.Table)
	st, err := blockstore.Write(t.TempDir(), spec.Table, layout.BIDs, layout.NumBlocks())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st, layout, spec
}

func TestRunMatchesExactCounts(t *testing.T) {
	st, layout, spec := fixture(t)
	exact := cost.PerQueryMatches(spec.Table, spec.Queries, spec.ACs)
	for i, q := range spec.Queries {
		res, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsMatched != exact[i] {
			t.Errorf("%s: matched %d, exact %d", q.Name, res.RowsMatched, exact[i])
		}
		if res.RowsScanned < res.RowsMatched {
			t.Errorf("%s: scanned %d < matched %d", q.Name, res.RowsScanned, res.RowsMatched)
		}
		if res.RowsScanned != layout.AccessedTuples(q) {
			t.Errorf("%s: engine scanned %d, layout model says %d", q.Name, res.RowsScanned, layout.AccessedTuples(q))
		}
	}
}

func TestNoRouteNeverMissesMatches(t *testing.T) {
	st, layout, spec := fixture(t)
	exact := cost.PerQueryMatches(spec.Table, spec.Queries, spec.ACs)
	for i, q := range spec.Queries {
		res, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, NoRoute, Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsMatched != exact[i] {
			t.Errorf("%s: no-route matched %d, exact %d", q.Name, res.RowsMatched, exact[i])
		}
	}
}

func TestRoutingNeverScansMoreThanNoRoute(t *testing.T) {
	st, layout, spec := fixture(t)
	for _, q := range spec.Queries {
		routed, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, NoRoute, Options{Parallelism: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if routed.BlocksScanned > plain.BlocksScanned {
			t.Errorf("%s: routing scanned %d blocks, no-route %d", q.Name, routed.BlocksScanned, plain.BlocksScanned)
		}
	}
}

func TestColumnarProfileReadsFewerBytes(t *testing.T) {
	st, layout, spec := fixture(t)
	q := spec.Queries[1] // single-column query
	full, err := RunDelta(st, layout, q, spec.ACs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := RunDelta(st, layout, q, spec.ACs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.BytesRead >= full.BytesRead {
		t.Errorf("columnar read %d bytes, full read %d", pruned.BytesRead, full.BytesRead)
	}
	if pruned.RowsMatched != full.RowsMatched {
		t.Error("profiles disagree on matches")
	}
}

// TestSparkReadsOnlyTheReadSet pins that a profile prices a scan and
// never widens it: with the last column of every block made unreadable
// (its catalog entry names an unknown encoding), a query that leaves that
// column out answers under both profiles, and Spark still charges what it
// charged on the intact store; a query that reads the column fails under
// both.
func TestSparkReadsOnlyTheReadSet(t *testing.T) {
	st, layout, spec := fixture(t)
	q1, q2 := spec.Queries[0], spec.Queries[1] // Q1 reads cpu (column 0); Q2 reads disk, the last column
	opt := Options{Parallelism: 1}
	intact, err := RunDelta(st, layout, q1, spec.ACs, EngineSpark, RouteQdTree, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	last := st.Schema.NumCols() - 1
	for b := range st.Blocks {
		if st.Blocks[b].Rows > 0 {
			st.Blocks[b].Cols[last].Enc = 255
		}
	}
	for _, prof := range []Profile{EngineSpark, EngineDBMS} {
		res, err := RunDelta(st, layout, q1, spec.ACs, prof, RouteQdTree, opt, nil)
		if err != nil {
			t.Fatalf("%s: query without the damaged column: %v", prof.Name, err)
		}
		if res.RowsMatched != intact.RowsMatched {
			t.Errorf("%s: matched %d, intact store %d", prof.Name, res.RowsMatched, intact.RowsMatched)
		}
		if prof == EngineSpark && res.BytesRead != intact.BytesRead {
			t.Errorf("spark charged %d bytes, intact store %d", res.BytesRead, intact.BytesRead)
		}
		if _, err := RunDelta(st, layout, q2, spec.ACs, prof, RouteQdTree, opt, nil); err == nil {
			t.Errorf("%s: query reading the damaged column must error", prof.Name)
		}
	}
}

// TestTruncatedBlockFailsEveryQueryThatTouchesIt cuts one byte off one
// block file, in both block formats. Every query that would scan that
// block must fail, even one that reads only the block's first column,
// whose bytes are all still there; every other query answers exactly.
// No query returns a partial answer.
func TestTruncatedBlockFailsEveryQueryThatTouchesIt(t *testing.T) {
	_, layout, spec := fixture(t)
	exact := cost.PerQueryMatches(spec.Table, spec.Queries, spec.ACs)
	cpuOnly := spec.Queries[0] // reads cpu, column 0, and scans every block
	for _, format := range []int{blockstore.FormatV1, blockstore.FormatV2} {
		st, err := blockstore.WriteOpts(t.TempDir(), spec.Table, layout.BIDs, layout.NumBlocks(), blockstore.WriteOptions{FormatVersion: format})
		if err != nil {
			t.Fatal(err)
		}
		damaged := layout.BlocksFor(cpuOnly)[0]
		m := st.Blocks[damaged]
		if err := os.Truncate(filepath.Join(st.Dir, m.File), m.Bytes-1); err != nil {
			t.Fatal(err)
		}
		for _, prof := range []Profile{EngineSpark, EngineDBMS} {
			for i, q := range spec.Queries {
				touches := slices.Contains(layout.BlocksFor(q), damaged)
				res, err := RunDelta(st, layout, q, spec.ACs, prof, RouteQdTree, Options{Parallelism: 1}, nil)
				switch {
				case touches && err == nil:
					t.Errorf("v%d %s %s: scans truncated block %d but answered %d rows", format, prof.Name, q.Name, damaged, res.RowsMatched)
				case !touches && err != nil:
					t.Errorf("v%d %s %s: does not scan block %d but failed: %v", format, prof.Name, q.Name, damaged, err)
				case err == nil && res.RowsMatched != exact[i]:
					t.Errorf("v%d %s %s: matched %d, exact %d", format, prof.Name, q.Name, res.RowsMatched, exact[i])
				}
			}
		}
		if _, err := RunDelta(st, layout, cpuOnly, spec.ACs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil); err == nil {
			t.Errorf("v%d: a query reading only the first column of a truncated block must fail", format)
		}
		st.Close()
	}
}

func TestSimTimeMonotoneInWork(t *testing.T) {
	st, layout, spec := fixture(t)
	// The full-scan query Q1 must cost at least as much as selective Q2.
	r1, err := RunDelta(st, layout, spec.Queries[0], spec.ACs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunDelta(st, layout, spec.Queries[1], spec.ACs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.RowsScanned < r2.RowsScanned {
		t.Skip("layout made Q1 cheaper; skip ordering check")
	}
	if r1.SimTime < r2.SimTime {
		t.Errorf("sim time not monotone: %v for %d rows vs %v for %d rows",
			r1.SimTime, r1.RowsScanned, r2.SimTime, r2.RowsScanned)
	}
}

// runSequential executes every query on its own, one worker each — the
// single-stream ground truth the worker pool is held to.
func runSequential(store *blockstore.Store, layout *cost.Layout, w []expr.Query, acs []expr.AdvCut, prof Profile, mode Mode) ([]Result, error) {
	out := make([]Result, 0, len(w))
	for _, q := range w {
		r, err := RunDelta(store, layout, q, acs, prof, mode, Options{Parallelism: 1}, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func TestQueryColumnsIncludesACs(t *testing.T) {
	spec := workload.TPCH(workload.TPCHConfig{Rows: 100, SeedsPerTmpl: 1, Seed: 1})
	for _, q := range spec.Queries {
		cols, err := readSet(q, spec.ACs, spec.Table.Schema.NumCols())
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		for _, a := range q.AdvRefs() {
			foundL, foundR := false, false
			for _, c := range cols {
				if c == spec.ACs[a].Left {
					foundL = true
				}
				if c == spec.ACs[a].Right {
					foundR = true
				}
			}
			if !foundL || !foundR {
				t.Fatalf("%s: AC%d columns missing from read set", q.Name, a)
			}
		}
		// Sorted and unique.
		for i := 1; i < len(cols); i++ {
			if cols[i] <= cols[i-1] {
				t.Fatalf("%s: column set not sorted/unique: %v", q.Name, cols)
			}
		}
	}
	// An empty read set is empty, never nil ("all columns"); extra
	// columns merge into the filter's.
	ncols := spec.Table.Schema.NumCols()
	if cols, err := readSet(expr.Query{}, spec.ACs, ncols); err != nil || cols == nil || len(cols) != 0 {
		t.Errorf("empty filter: read set %v (nil %v), err %v", cols, cols == nil, err)
	}
	filter := expr.Query{Root: expr.NewPred(expr.Pred{Col: 2, Op: expr.Ge, Literal: 1})}
	if cols, err := readSet(filter, spec.ACs, ncols, 5, 2, 0); err != nil || fmt.Sprint(cols) != "[0 2 5]" {
		t.Errorf("filter on 2 plus {5 2 0}: read set %v, err %v", cols, err)
	}
	// Out-of-range filter columns and advanced cuts are errors.
	for _, bad := range []expr.Query{
		{Root: expr.NewPred(expr.Pred{Col: ncols, Op: expr.Ge, Literal: 1})},
		{Root: expr.NewAdv(len(spec.ACs))},
	} {
		if _, err := readSet(bad, spec.ACs, ncols); err == nil {
			t.Errorf("%s: out-of-range filter must error", bad)
		}
	}
}

func TestRunUnknownMode(t *testing.T) {
	st, layout, spec := fixture(t)
	if _, err := RunDelta(st, layout, spec.Queries[0], spec.ACs, EngineSpark, Mode(99), Options{Parallelism: 1}, nil); err == nil {
		t.Error("unknown mode must error")
	}
}

func TestNoRouteOnFullScanQueryReadsEverything(t *testing.T) {
	st, layout, spec := fixture(t)
	full := expr.Query{Name: "full"} // nil root matches all rows
	res, err := RunDelta(st, layout, full, spec.ACs, EngineSpark, NoRoute, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != int64(spec.Table.N) {
		t.Errorf("full scan read %d of %d rows", res.RowsScanned, spec.Table.N)
	}
	if res.RowsMatched != int64(spec.Table.N) {
		t.Errorf("full scan matched %d of %d rows", res.RowsMatched, spec.Table.N)
	}
}

// TestVecEmptyConjunctionPartialBatch pins the SetFirst stale-bit
// regression: an empty conjunction (expr.And() with zero children — a
// public constructor) over a block larger than one batch must count
// exactly the block's rows, not leak selection bits from the previous
// full batch into the final partial one.
func TestVecEmptyConjunctionPartialBatch(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(blockstore.BatchSize+500, 21)
	st, err := blockstore.Write(dir, spec.Table, make([]int, spec.Table.N), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	vecs, nrows, _, err := st.ReadColVecs(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var scratch vecScratch
	for _, q := range []expr.Query{
		{Name: "empty-and", Root: &expr.Node{Kind: expr.KindAnd}},
		{Name: "nil-root"},
	} {
		if got := countMatchesVec(q, nil, vecs, nrows, &scratch); got != nrows {
			t.Errorf("%s: counted %d of %d rows", q.Name, got, nrows)
		}
	}
	if got := countMatchesVec(expr.Query{Name: "empty-or", Root: &expr.Node{Kind: expr.KindOr}}, nil, vecs, nrows, &scratch); got != 0 {
		t.Errorf("empty-or: counted %d rows, want 0", got)
	}
}
