package qd_test

// Differential property test for the streaming-ingest read path: random
// interleavings of Insert / Flush / Query / Aggregate must keep the
// merged `delta ∪ base` view bit-identical to a row-at-a-time reference
// over the table-so-far — across both store formats, both engine
// profiles, both pruning modes, and sequential vs parallel scans — and a
// final Compact must fold the delta without changing a single answer.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/qd"
)

// splitSpec splits a random spec into a bulk-loaded base and an insert
// stream (one []int64 per row).
func splitSpec(tbl *qd.Table, frac float64) (*qd.Table, [][]int64) {
	nbase := int(float64(tbl.N) * frac)
	base := qd.NewTable(tbl.Schema, nbase)
	var stream [][]int64
	row := make([]int64, tbl.Schema.NumCols())
	for r := 0; r < tbl.N; r++ {
		row = tbl.Row(r, row)
		if r < nbase {
			base.AppendRow(row)
		} else {
			stream = append(stream, append([]int64(nil), row...))
		}
	}
	return base, stream
}

func TestIngestDifferential(t *testing.T) {
	profiles := []qd.EngineProfile{qd.EngineSpark, qd.EngineDBMS}
	modes := []qd.ExecMode{qd.RouteQdTree, qd.NoRoute}
	options := []qd.ExecOptions{
		{Parallelism: 1},
		{Parallelism: 4},
	}
	formats := []int{qd.StoreFormatV1, qd.StoreFormatV2}

	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tbl, queries, acs := randomSpec(seed)
			base, stream := splitSpec(tbl, 0.7)
			ds := qd.NewDataset(tbl.Schema, base).WithQueries(queries, acs)
			plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 300})
			if err != nil {
				t.Fatal(err)
			}

			combo := 0
			for _, format := range formats {
				for _, prof := range profiles {
					for _, mode := range modes {
						for _, opt := range options {
							combo++
							label := fmt.Sprintf("v%d/%s/mode%d/p%d", format, prof.Name, mode, opt.Parallelism)
							store, err := qd.WriteStore(t.TempDir(), base, plan.Layout, qd.StoreOptions{FormatVersion: format})
							if err != nil {
								t.Fatal(err)
							}
							eng, err := qd.NewEngine(store, plan, prof, opt)
							if err != nil {
								t.Fatal(err)
							}
							eng.WithMode(mode)
							runInterleaving(t, label, eng, rand.New(rand.NewSource(seed*1000+int64(combo))),
								base, stream, queries, acs)
							eng.Close()
						}
					}
				}
			}
		})
	}
}

// runInterleaving drives one engine through a random op sequence,
// checking every read against the reference over the rows inserted so
// far, then compacts and re-checks the whole workload.
func runInterleaving(t *testing.T, label string, eng *qd.Engine, rng *rand.Rand,
	base *qd.Table, stream [][]int64, queries []qd.Query, acs []qd.AdvCut) {
	t.Helper()
	ref := qd.NewTable(base.Schema, base.N+len(stream))
	ref.Concat(base)
	aggs := randomAggWorkload(rng, base.Schema.Cols[1].Dom)
	si := 0

	for step := 0; step < 16; step++ {
		switch rng.Intn(4) {
		case 0: // insert a chunk
			k := 1 + rng.Intn(150)
			if si+k > len(stream) {
				k = len(stream) - si
			}
			if k == 0 {
				continue
			}
			if err := eng.Insert(stream[si : si+k]); err != nil {
				t.Fatalf("%s step %d: insert: %v", label, step, err)
			}
			for _, row := range stream[si : si+k] {
				ref.AppendRow(row)
			}
			si += k
		case 1: // durability point
			if err := eng.Flush(); err != nil {
				t.Fatalf("%s step %d: flush: %v", label, step, err)
			}
		case 2: // filter query
			qi := rng.Intn(len(queries))
			res, err := eng.Query(queries[qi])
			if err != nil {
				t.Fatalf("%s step %d: query: %v", label, step, err)
			}
			want := qd.PerQueryMatches(ref, queries[qi:qi+1], acs)[0]
			if res.RowsMatched != want {
				t.Fatalf("%s step %d: %s matched %d, reference %d (delta %d rows)",
					label, step, queries[qi].Name, res.RowsMatched, want, ref.N-base.N)
			}
			if res.RowsTotal != int64(ref.N) {
				t.Fatalf("%s step %d: RowsTotal %d, want %d (delta rows count toward the universe)",
					label, step, res.RowsTotal, ref.N)
			}
		default: // aggregation
			ai := rng.Intn(len(aggs))
			res, err := eng.Aggregate(aggs[ai])
			if err != nil {
				t.Fatalf("%s step %d: aggregate: %v", label, step, err)
			}
			sameAggRows(t, fmt.Sprintf("%s step %d %s", label, step, aggs[ai].Name),
				res.Rows, qd.ReferenceAggregate(ref, aggs[ai], acs))
		}
	}

	// Compaction folds the delta without changing any answer.
	if err := eng.Compact(); err != nil {
		t.Fatalf("%s: compact: %v", label, err)
	}
	if eng.DeltaRows() != 0 {
		t.Fatalf("%s: %d delta rows survive compaction", label, eng.DeltaRows())
	}
	exact := qd.PerQueryMatches(ref, queries, acs)
	wr, err := eng.Workload(queries)
	if err != nil {
		t.Fatalf("%s: post-compaction workload: %v", label, err)
	}
	for i := range wr.Results {
		if wr.Results[i].RowsMatched != exact[i] {
			t.Fatalf("%s: post-compaction %s matched %d, reference %d",
				label, queries[i].Name, wr.Results[i].RowsMatched, exact[i])
		}
		if wr.Results[i].DeltaRows != 0 {
			t.Fatalf("%s: post-compaction scan still reads delta rows", label)
		}
	}
	for _, aq := range aggs {
		res, err := eng.Aggregate(aq)
		if err != nil {
			t.Fatalf("%s: post-compaction %s: %v", label, aq.Name, err)
		}
		sameAggRows(t, fmt.Sprintf("%s post-compaction %s", label, aq.Name),
			res.Rows, qd.ReferenceAggregate(ref, aq, acs))
	}
}
