package qd_test

// Differential property test for the streaming-ingest read path, which
// only a Server has: random interleavings of Insert / Flush / filter /
// aggregate statements must keep the merged `delta ∪ base` view
// bit-identical to a row-at-a-time reference over the table-so-far —
// across both store formats and sequential, parallel and default scans —
// and a final Compact must fold the delta without changing a single
// answer.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/serve"
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

// newTestServer bootstraps a serving root from a layout written in the
// given block format and opens a Server over it with scan parallelism
// par and no background drift checks or compactions; compactions that
// replan use popt.
func newTestServer(t *testing.T, tbl *qd.Table, l *qd.Layout, acs []qd.AdvCut, format, par int, popt qd.PlanOptions) *qd.Server {
	t.Helper()
	root := t.TempDir()
	if err := serve.InitOpts(root, tbl, l, qd.StoreOptions{FormatVersion: format}); err != nil {
		t.Fatal(err)
	}
	srv, err := qd.NewServer(root, qd.ServeOptions{ACs: acs, Plan: popt, Exec: qd.ExecOptions{Parallelism: par}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// serverFilter runs one filter query through a Server.
func serverFilter(srv *qd.Server, q qd.Query) (qd.ExecResult, error) {
	res, err := srv.Execute(qd.Statement{Filter: q}, nil)
	if err != nil {
		return qd.ExecResult{}, err
	}
	return *res.Filter, nil
}

func TestIngestDifferential(t *testing.T) {
	formats := []int{qd.StoreFormatV1, qd.StoreFormatV2}
	popt := qd.PlanOptions{MinBlockSize: 300}
	for seed := int64(1); seed <= 2; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tbl, queries, acs := randomSpec(seed)
			base, stream := splitSpec(tbl, 0.7)
			ds := qd.NewDataset(tbl.Schema, base).WithQueries(queries, acs)
			plan, err := qd.GreedyPlanner{}.Plan(ds, popt)
			if err != nil {
				t.Fatal(err)
			}

			combo := 0
			for _, format := range formats {
				for _, par := range []int{1, 4, 0} {
					combo++
					label := fmt.Sprintf("v%d/p%d", format, par)
					srv := newTestServer(t, base, plan.Layout, acs, format, par, popt)
					runInterleaving(t, label, srv, rand.New(rand.NewSource(seed*1000+int64(combo))),
						base, stream, queries, acs)
					srv.Close()
				}
			}
		})
	}
}

// runInterleaving drives one server through a random op sequence,
// checking every read against the reference over the rows inserted so
// far, then compacts and re-checks the whole workload.
func runInterleaving(t *testing.T, label string, srv *qd.Server, rng *rand.Rand,
	base *qd.Table, stream [][]int64, queries []qd.Query, acs []qd.AdvCut) {
	t.Helper()
	ref := qd.NewTable(base.Schema, base.N+len(stream))
	ref.Concat(base)
	aggs := randomAggWorkload(rng, base.Schema.Cols[1].Dom)
	aggregate := func(aq qd.AggQuery) (qd.Rows, error) {
		res, err := srv.Execute(qd.Statement{Agg: &aq}, nil)
		if err != nil {
			return nil, err
		}
		return res.Agg.Rows, nil
	}
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
			if err := srv.Insert(stream[si : si+k]); err != nil {
				t.Fatalf("%s step %d: insert: %v", label, step, err)
			}
			for _, row := range stream[si : si+k] {
				ref.AppendRow(row)
			}
			si += k
		case 1: // durability point
			if err := srv.Flush(); err != nil {
				t.Fatalf("%s step %d: flush: %v", label, step, err)
			}
		case 2: // filter query
			qi := rng.Intn(len(queries))
			res, err := serverFilter(srv, queries[qi])
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
			rows, err := aggregate(aggs[ai])
			if err != nil {
				t.Fatalf("%s step %d: aggregate: %v", label, step, err)
			}
			sameAggRows(t, fmt.Sprintf("%s step %d %s", label, step, aggs[ai].Name),
				rows, qd.ReferenceAggregate(ref, aggs[ai], acs))
		}
	}

	// Compaction folds the delta without changing any answer.
	if err := srv.Compact(); err != nil {
		t.Fatalf("%s: compact: %v", label, err)
	}
	if n := srv.Stats().DeltaRows; n != 0 {
		t.Fatalf("%s: %d delta rows survive compaction", label, n)
	}
	exact := qd.PerQueryMatches(ref, queries, acs)
	for i, q := range queries {
		res, err := serverFilter(srv, q)
		if err != nil {
			t.Fatalf("%s: post-compaction %s: %v", label, q.Name, err)
		}
		if res.RowsMatched != exact[i] {
			t.Fatalf("%s: post-compaction %s matched %d, reference %d",
				label, q.Name, res.RowsMatched, exact[i])
		}
		if res.DeltaRows != 0 {
			t.Fatalf("%s: post-compaction scan still reads delta rows", label)
		}
	}
	for _, aq := range aggs {
		rows, err := aggregate(aq)
		if err != nil {
			t.Fatalf("%s: post-compaction %s: %v", label, aq.Name, err)
		}
		sameAggRows(t, fmt.Sprintf("%s post-compaction %s", label, aq.Name),
			rows, qd.ReferenceAggregate(ref, aq, acs))
	}
}
