package exec

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/cost"
)

// TestTruncatedUnderMappingFailsTheStatement maps every block with a
// first pass of the workload, then cuts one block file to 0 bytes under
// its live mapping. Every statement that scans that block must now fail
// with an error — on the sequential path and in pool workers alike —
// and the process must not crash; every other statement still answers
// exactly.
func TestTruncatedUnderMappingFailsTheStatement(t *testing.T) {
	st, layout, spec := fixture(t)
	exact := cost.PerQueryMatches(spec.Table, spec.Queries, spec.ACs)
	for _, q := range spec.Queries {
		if _, err := RunDelta(st, layout, q, spec.ACs, EngineDBMS, RouteQdTree, Options{Parallelism: 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	damaged := layout.BlocksFor(spec.Queries[0])[0]
	m := st.Blocks[damaged]
	if err := os.Truncate(filepath.Join(st.Dir, m.File), 0); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, par := range []int{1, 4} {
		for i, q := range spec.Queries {
			touches := slices.Contains(layout.BlocksFor(q), damaged)
			res, err := RunDelta(st, layout, q, spec.ACs, EngineDBMS, RouteQdTree, Options{Parallelism: par}, nil)
			switch {
			case touches && err == nil:
				t.Errorf("p%d %s: scans block %d truncated under its mapping but answered %d rows", par, q.Name, damaged, res.RowsMatched)
			case !touches && err != nil:
				t.Errorf("p%d %s: does not scan block %d but failed: %v", par, q.Name, damaged, err)
			case err == nil && res.RowsMatched != exact[i]:
				t.Errorf("p%d %s: matched %d, exact %d", par, q.Name, res.RowsMatched, exact[i])
			case err != nil:
				failed++
			}
		}
	}
	if failed == 0 {
		t.Fatal("no statement read the truncated block")
	}
}

// TestResultsOutliveClose takes row, aggregate and join results, then
// closes the store, which unmaps every block file, and only then holds
// them to the references: no result aliases a mapping.
func TestResultsOutliveClose(t *testing.T) {
	st, layout, tbl, acs := aggFixture(t, 5)
	rng := rand.New(rand.NewSource(5))
	rqs, aqs, jqs := rowWorkload(rng), aggWorkload(rng), joinWorkload(rng)
	var rows, joins []*RowsResult
	var aggs []*AggResult
	for _, par := range []int{1, 4} {
		opt := Options{Parallelism: par}
		for _, rq := range rqs {
			res, err := RunRowsDelta(st, layout, rq, acs, EngineDBMS, RouteQdTree, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, res)
		}
		for _, aq := range aqs {
			res, err := RunAggDelta(st, layout, aq, acs, EngineDBMS, RouteQdTree, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			aggs = append(aggs, res)
		}
		for _, jq := range jqs {
			res, err := RunJoinDelta(st, layout, jq, acs, EngineDBMS, RouteQdTree, opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			joins = append(joins, res)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for i, res := range rows {
		rq := rqs[i%len(rqs)]
		requireSameTuples(t, fmt.Sprintf("%s/%d", rq.Name, i), res.Rows, ReferenceSelect(tbl, rq, acs))
	}
	for i, res := range aggs {
		aq := aqs[i%len(aqs)]
		requireSameRows(t, fmt.Sprintf("%s/%d", aq.Name, i), res.Rows, ReferenceAggregate(tbl, aq, acs))
	}
	for i, res := range joins {
		jq := jqs[i%len(jqs)]
		requireSameTuples(t, fmt.Sprintf("%s/%d", jq.Name, i), res.Rows, ReferenceJoin(tbl, jq, acs))
	}
}
