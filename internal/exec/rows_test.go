package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
)

// rowWorkload draws row queries over the aggFixture schema covering
// projections, filters, ORDER BY direction mixes, and LIMITs.
func rowWorkload(rng *rand.Rand) []expr.RowQuery {
	filters := []*expr.Node{
		nil,
		expr.NewPred(expr.Pred{Col: 1, Op: expr.Ge, Literal: 5}),
		expr.And(
			expr.NewPred(expr.Pred{Col: 2, Op: expr.Gt, Literal: int64(rng.Intn(500)) - 250}),
			expr.NewPred(expr.NewIn(3, []int64{0, 2, 4})),
		),
		expr.Or(
			expr.NewPred(expr.Pred{Col: 0, Op: expr.Lt, Literal: int64(rng.Intn(4000))}),
			expr.NewPred(expr.Pred{Col: 1, Op: expr.Eq, Literal: rng.Int63n(10)}),
		),
		expr.NewAdv(0),
		expr.NewPred(expr.Pred{Col: 0, Op: expr.Gt, Literal: 1 << 30}), // fully pruned
	}
	shapes := []struct {
		cols  []int
		order []expr.OrderKey
		limit int
	}{
		{cols: []int{0, 2}},
		{cols: []int{1, 4, 2}, limit: 7}, // LIMIT without ORDER BY
		{cols: []int{2}, order: []expr.OrderKey{{Pos: 0}}},
		{cols: []int{0, 1}, order: []expr.OrderKey{{Pos: 0, Desc: true}}, limit: 13},
		{cols: []int{3, 2, 0}, order: []expr.OrderKey{{Pos: 0}, {Pos: 1, Desc: true}}, limit: 50},
		{cols: []int{4, 4, 1}, order: []expr.OrderKey{{Pos: 2}, {Pos: 0}}, limit: 9},
		{cols: []int{0}, order: []expr.OrderKey{{Pos: 0}}, limit: 1},
	}
	var out []expr.RowQuery
	i := 0
	for _, root := range filters {
		for _, s := range shapes {
			out = append(out, expr.RowQuery{
				Name:    fmt.Sprintf("row%d", i),
				Cols:    s.cols,
				Filter:  expr.Query{Root: root},
				OrderBy: s.order,
				Limit:   s.limit,
			})
			i++
		}
	}
	return out
}

// requireSameTuples asserts two projected row sets are bit-identical.
func requireSameTuples(t *testing.T, label string, got, want [][]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s row %d: got %v, want %v", label, i, got[i], want[i])
			}
		}
	}
}

// TestRowsMatchReference is the row-query differential property: the
// streaming late-materializing executor and the decode-everything naive
// path agree bit-for-bit with the row-at-a-time table reference across
// profiles, pruning modes, and parallelism levels.
func TestRowsMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		st, layout, tbl, acs := aggFixture(t, seed)
		rng := rand.New(rand.NewSource(seed * 31))
		for _, rq := range rowWorkload(rng) {
			truth := ReferenceSelect(tbl, rq, acs)
			for _, mode := range []Mode{RouteQdTree, NoRoute} {
				naive, err := RunRowsNaive(st, layout, rq, acs, EngineSpark, mode)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTuples(t, fmt.Sprintf("%s/naive/mode%d", rq.Name, mode), naive.Rows, truth)
				for _, prof := range []Profile{EngineSpark, EngineDBMS} {
					for _, par := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s/mode%d/p%d", rq.Name, prof.Name, mode, par)
						res, err := RunRowsDelta(st, layout, rq, acs, prof, mode, Options{Parallelism: par}, nil)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						requireSameTuples(t, label, res.Rows, truth)
						// The TopK short-circuit legitimately stops before
						// counting every survivor; elsewhere the counters agree.
						if !(rq.Limit > 0 && len(rq.OrderBy) > 0) && res.RowsMatched != naive.RowsMatched {
							t.Fatalf("%s: matched %d, naive %d", label, res.RowsMatched, naive.RowsMatched)
						}
					}
				}
			}
		}
	}
}

// joinWorkload draws self-joins over the aggFixture schema: a
// code-space key (sev, shared nil dictionaries over equal domains), a
// high-cardinality numeric key (ts, hash path), and a small categorical
// key with filters on both sides.
func joinWorkload(rng *rand.Rand) []expr.JoinQuery {
	sevGe8 := expr.Query{Root: expr.NewPred(expr.Pred{Col: 1, Op: expr.Ge, Literal: 8})}
	durGt := expr.Query{Root: expr.NewPred(expr.Pred{Col: 2, Op: expr.Gt, Literal: 800})}
	tsLt := expr.Query{Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Lt, Literal: 500})}
	bigHi := expr.Query{Root: expr.NewPred(expr.Pred{Col: 4, Op: expr.Gt, Literal: 1 << 30})}
	adv := expr.Query{Root: expr.And(expr.NewAdv(0), expr.NewPred(expr.Pred{Col: 1, Op: expr.Le, Literal: 2}))}
	return []expr.JoinQuery{
		{
			Name: "join-codespace", LeftTable: "t1", RightTable: "t2",
			LeftKey: 1, RightKey: 1,
			Cols:       []expr.ColRef{{Side: 0, Col: 0}, {Side: 1, Col: 2}, {Side: 0, Col: 1}},
			LeftFilter: sevGe8, RightFilter: durGt,
			OrderBy: []expr.OrderKey{{Pos: 0}, {Pos: 1, Desc: true}},
			Limit:   40,
		},
		{
			Name: "join-hash-ts", LeftTable: "a", RightTable: "b",
			LeftKey: 0, RightKey: 0,
			Cols:       []expr.ColRef{{Side: 0, Col: 0}, {Side: 0, Col: 1}, {Side: 1, Col: 1}},
			LeftFilter: tsLt, RightFilter: tsLt,
			OrderBy: []expr.OrderKey{{Pos: 0, Desc: true}},
			Limit:   25,
		},
		{
			Name: "join-host", LeftTable: "l", RightTable: "r",
			LeftKey: 3, RightKey: 3,
			Cols:       []expr.ColRef{{Side: 0, Col: 3}, {Side: 0, Col: 4}, {Side: 1, Col: 0}},
			LeftFilter: bigHi, RightFilter: tsLt,
			Limit: 30, // LIMIT without ORDER BY: best-30 by full tuple
		},
		{
			Name: "join-adv-unlimited", LeftTable: "x", RightTable: "y",
			LeftKey: 1, RightKey: 1,
			Cols:       []expr.ColRef{{Side: 0, Col: 1}, {Side: 1, Col: 3}},
			LeftFilter: adv, RightFilter: expr.Query{Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Lt, Literal: 200})},
		},
		{
			Name: "join-empty-side", LeftTable: "p", RightTable: "q",
			LeftKey: 0, RightKey: 0,
			Cols:       []expr.ColRef{{Side: 0, Col: 0}, {Side: 1, Col: 2}},
			LeftFilter: expr.Query{Root: expr.NewPred(expr.Pred{Col: 0, Op: expr.Gt, Literal: 1 << 30})},
		},
	}
}

// TestJoinMatchesReference holds the partitioned hash join (both the
// dense code-space and the hashed build) to the quadratic nested-loop
// reference across profiles, modes, and parallelism.
func TestJoinMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		st, layout, tbl, acs := aggFixture(t, seed)
		rng := rand.New(rand.NewSource(seed * 77))
		for _, jq := range joinWorkload(rng) {
			truth := ReferenceJoin(tbl, jq, acs)
			for _, mode := range []Mode{RouteQdTree, NoRoute} {
				for _, prof := range []Profile{EngineSpark, EngineDBMS} {
					for _, par := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s/mode%d/p%d", jq.Name, prof.Name, mode, par)
						res, err := RunJoinDelta(st, layout, jq, acs, prof, mode, Options{Parallelism: par}, nil)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						requireSameTuples(t, label, res.Rows, truth)
						if res.Join == nil || res.Left == nil || res.Right == nil {
							t.Fatalf("%s: join stats missing", label)
						}
						wantCode := jq.LeftKey != 0 // sev/host joins share a categorical domain; ts hashes
						if res.Join.CodeSpace != wantCode {
							t.Errorf("%s: code_space=%v, want %v", label, res.Join.CodeSpace, wantCode)
						}
						if wantPart := joinPartitions; res.Join.CodeSpace {
							if res.Join.PartitionCount != 1 {
								t.Errorf("%s: code-space partitions %d, want 1", label, res.Join.PartitionCount)
							}
						} else if res.Join.PartitionCount != wantPart {
							t.Errorf("%s: partitions %d, want %d", label, res.Join.PartitionCount, wantPart)
						}
					}
				}
			}
		}
	}
}

// TestJoinStatsAccounting pins the join counters: RowsBuild/RowsProbe
// are the per-side filter survivors, RowsMatched is the join output
// before LIMIT, and the totals count the universe twice.
func TestJoinStatsAccounting(t *testing.T) {
	st, layout, tbl, acs := aggFixture(t, 4)
	jq := joinWorkload(rand.New(rand.NewSource(9)))[0]
	res, err := RunJoinDelta(st, layout, jq, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuild, wantProbe int64
	row := make([]int64, tbl.Schema.NumCols())
	for r := 0; r < tbl.N; r++ {
		row = tbl.Row(r, row)
		if jq.LeftFilter.Eval(row, acs) {
			wantBuild++
		}
		if jq.RightFilter.Eval(row, acs) {
			wantProbe++
		}
	}
	if res.Join.RowsBuild != wantBuild || res.Join.RowsProbe != wantProbe {
		t.Errorf("build/probe = %d/%d, want %d/%d", res.Join.RowsBuild, res.Join.RowsProbe, wantBuild, wantProbe)
	}
	full := jq
	full.Limit = 0
	fres, err := RunJoinDelta(st, layout, full, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsMatched != int64(len(fres.Rows)) {
		t.Errorf("RowsMatched %d, want pre-LIMIT output %d", res.RowsMatched, len(fres.Rows))
	}
	b, r := st.Totals()
	if res.BlocksTotal != 2*b || res.RowsTotal != 2*r {
		t.Errorf("totals %d/%d, want doubled %d/%d", res.BlocksTotal, res.RowsTotal, 2*b, 2*r)
	}
	if res.Left.RowsMatched != wantBuild || res.Right.RowsMatched != wantProbe {
		t.Errorf("per-side stats %d/%d, want %d/%d", res.Left.RowsMatched, res.Right.RowsMatched, wantBuild, wantProbe)
	}
}

// TestTopKShortCircuit pins the zone-map-ordered early exit: with
// blocks ranged on the sort key, an ORDER BY ... LIMIT k query stops
// after the leading blocks in both directions, yet emits exactly the
// reference rows.
func TestTopKShortCircuit(t *testing.T) {
	st, layout, tbl, acs := aggFixture(t, 13)
	for _, desc := range []bool{false, true} {
		rq := expr.RowQuery{
			Name:    fmt.Sprintf("topk-desc=%v", desc),
			Cols:    []int{0, 1},
			OrderBy: []expr.OrderKey{{Pos: 0, Desc: desc}},
			Limit:   10,
		}
		res, err := RunRowsDelta(st, layout, rq, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTuples(t, rq.Name, res.Rows, ReferenceSelect(tbl, rq, acs))
		if res.BlocksScanned >= res.BlocksTotal {
			t.Errorf("%s: scanned all %d blocks — TopK did not short-circuit", rq.Name, res.BlocksScanned)
		}
	}
	// Without a LIMIT the scan must still visit every block.
	full := expr.RowQuery{Name: "full", Cols: []int{0}, OrderBy: []expr.OrderKey{{Pos: 0}}}
	res, err := RunRowsDelta(st, layout, full, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksScanned != res.BlocksTotal {
		t.Errorf("unlimited ORDER BY scanned %d of %d blocks", res.BlocksScanned, res.BlocksTotal)
	}
}

// TestRowsLateMaterialization pins the projection read set under the
// columnar profile: a two-column query over a five-column store reads
// only the filter+projection columns.
func TestRowsLateMaterialization(t *testing.T) {
	st, layout, _, acs := aggFixture(t, 17)
	rq := expr.RowQuery{
		Name:   "narrow",
		Cols:   []int{2},
		Filter: expr.Query{Root: expr.NewPred(expr.Pred{Col: 1, Op: expr.Ge, Literal: 3})},
	}
	res, err := RunRowsDelta(st, layout, rq, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for b := range st.Blocks {
		want += st.ColBytes(b, []int{1, 2})
	}
	if res.BytesRead != want {
		t.Errorf("read %d bytes, want only cols {1,2} = %d", res.BytesRead, want)
	}
}

// deltaFixture splits one logical table into a base store and two
// in-memory delta tables, returning the combined table as ground truth.
func deltaFixture(t *testing.T, seed int64) (*blockstore.Store, *cost.Layout, *DeltaView, *table.Table, []expr.AdvCut) {
	t.Helper()
	st, layout, tbl, acs := aggFixture(t, seed)
	rng := rand.New(rand.NewSource(seed + 1000))
	combined := table.New(tbl.Schema, tbl.N+600)
	row := make([]int64, tbl.Schema.NumCols())
	for r := 0; r < tbl.N; r++ {
		combined.AppendRow(tbl.Row(r, row))
	}
	dv := &DeltaView{}
	for d := 0; d < 2; d++ {
		dt := table.New(tbl.Schema, 300)
		for i := 0; i < 300; i++ {
			nr := []int64{
				rng.Int63n(1 << 20),
				rng.Int63n(10),
				int64(rng.Intn(2001)) - 1000,
				rng.Int63n(5),
				int64(int32(rng.Uint32())),
			}
			dt.AppendRow(nr)
			combined.AppendRow(nr)
		}
		dv.Tables = append(dv.Tables, dt)
	}
	return st, layout, dv, combined, acs
}

// TestRowsDeltaMatchesReference: row queries and joins over base∪delta
// equal the reference over the concatenated table.
func TestRowsDeltaMatchesReference(t *testing.T) {
	st, layout, dv, combined, acs := deltaFixture(t, 2)
	rng := rand.New(rand.NewSource(55))
	for _, rq := range rowWorkload(rng)[:14] {
		truth := ReferenceSelect(combined, rq, acs)
		for _, par := range []int{1, 3} {
			res, err := RunRowsDelta(st, layout, rq, acs, EngineSpark, RouteQdTree, Options{Parallelism: par}, dv)
			if err != nil {
				t.Fatal(err)
			}
			requireSameTuples(t, fmt.Sprintf("%s/delta/p%d", rq.Name, par), res.Rows, truth)
			if res.DeltaRows != 600 {
				t.Fatalf("%s: delta rows %d, want 600", rq.Name, res.DeltaRows)
			}
		}
	}
	for _, jq := range joinWorkload(rng)[:2] {
		truth := ReferenceJoin(combined, jq, acs)
		res, err := RunJoinDelta(st, layout, jq, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 2}, dv)
		if err != nil {
			t.Fatal(err)
		}
		requireSameTuples(t, jq.Name+"/delta", res.Rows, truth)
	}
}

// TestRowQueryValidation rejects malformed queries at the door.
func TestRowQueryValidation(t *testing.T) {
	st, layout, _, acs := aggFixture(t, 3)
	bad := []expr.RowQuery{
		{Name: "empty-proj"},
		{Name: "col-oob", Cols: []int{99}},
		{Name: "order-oob", Cols: []int{0}, OrderBy: []expr.OrderKey{{Pos: 3}}},
		{Name: "neg-limit", Cols: []int{0}, Limit: -1},
	}
	for _, rq := range bad {
		if _, err := RunRowsDelta(st, layout, rq, acs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil); err == nil {
			t.Errorf("%s: must error", rq.Name)
		}
	}
	badJoins := []expr.JoinQuery{
		{Name: "j-empty", LeftKey: 0, RightKey: 0},
		{Name: "j-key-oob", LeftKey: 99, RightKey: 0, Cols: []expr.ColRef{{Side: 0, Col: 0}}},
		{Name: "j-side", LeftKey: 0, RightKey: 0, Cols: []expr.ColRef{{Side: 2, Col: 0}}},
		{Name: "j-order", LeftKey: 0, RightKey: 0, Cols: []expr.ColRef{{Side: 0, Col: 0}}, OrderBy: []expr.OrderKey{{Pos: 5}}},
	}
	for _, jq := range badJoins {
		if _, err := RunJoinDelta(st, layout, jq, acs, EngineSpark, RouteQdTree, Options{Parallelism: 1}, nil); err == nil {
			t.Errorf("%s: must error", jq.Name)
		}
	}
}
