// TPC-H example: the paper's primary benchmark scenario (Sec. 7.4).
// Generates a denormalized TPC-H-style fact table with the 15 filter
// templates, compares the random, Bottom-Up, greedy, and Woodblock
// planners from the strategy registry, then materializes the best plan to
// disk and executes the workload through an Engine.
//
//	go run ./examples/tpch [-rows 100000] [-episodes 32]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/workload"
	"repro/qd"
)

func main() {
	rows := flag.Int("rows", 100_000, "fact table rows")
	episodes := flag.Int("episodes", 32, "Woodblock episodes")
	flag.Parse()

	spec := workload.TPCH(workload.TPCHConfig{Rows: *rows, Seed: 7})
	ds := qd.NewDataset(spec.Table.Schema, spec.Table).WithQueries(spec.Queries, spec.ACs)
	b := *rows / 770 // the paper's b=100K over 77M rows, rescaled
	if b < 32 {
		b = 32
	}
	fmt.Printf("TPC-H style: %d rows x %d cols, %d queries, b=%d\n",
		ds.Table.N, ds.Schema.NumCols(), len(ds.Queries), b)

	// Plan with every strategy of interest via the registry.
	plans := map[string]*qd.Plan{}
	for name, opt := range map[string]qd.PlanOptions{
		"greedy":    {MinBlockSize: b},
		"bottomup":  {MinBlockSize: b, SelectivityCap: 0.10},
		"woodblock": {MinBlockSize: b, Seed: 7, Hidden: 64, MaxEpisodes: *episodes},
	} {
		planner, err := qd.NewPlanner(name)
		if err != nil {
			log.Fatal(err)
		}
		if plans[name], err = planner.Plan(ds, opt); err != nil {
			log.Fatal(err)
		}
	}
	// Random baseline with a comparable number of blocks.
	random, err := qd.RandomPlanner{}.Plan(ds, qd.PlanOptions{
		NumBlocks: plans["greedy"].Layout.NumBlocks(), Seed: 7})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nLogical access percentage (Table 2 metric, lower is better):")
	fmt.Printf("  random:    %6.2f%%\n", random.AccessedFraction(nil)*100)
	fmt.Printf("  BU+:       %6.2f%%\n", plans["bottomup"].AccessedFraction(nil)*100)
	fmt.Printf("  greedy:    %6.2f%%\n", plans["greedy"].AccessedFraction(nil)*100)
	fmt.Printf("  woodblock: %6.2f%%\n", plans["woodblock"].AccessedFraction(nil)*100)
	fmt.Printf("  lower bnd: %6.2f%% (true selectivity)\n", ds.Selectivity()*100)

	// Pick the better qd-tree plan and serve the workload through it.
	best := plans["greedy"]
	if plans["woodblock"].AccessedFraction(nil) < best.AccessedFraction(nil) {
		best = plans["woodblock"]
	}
	dir, err := os.MkdirTemp("", "tpch-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := qd.WriteStore(dir, ds.Table, best.Layout)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := qd.NewEngine(store, best, qd.EngineSpark, qd.ExecOptions{Parallelism: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	routed, err := eng.Workload(ds.Queries)
	if err != nil {
		log.Fatal(err)
	}
	noRoute, err := qd.NewEngine(store, best, qd.EngineSpark, qd.ExecOptions{Parallelism: 1})
	if err != nil {
		log.Fatal(err)
	}
	nrRes, err := noRoute.WithMode(qd.NoRoute).Workload(ds.Queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPhysical execution (%s plan, Spark profile, %d blocks):\n", best.Strategy, best.Layout.NumBlocks())
	fmt.Printf("  with qd-tree routing: %v\n", routed.TotalSimTime.Round(time.Millisecond))
	fmt.Printf("  no route (SMA only):  %v\n", nrRes.TotalSimTime.Round(time.Millisecond))

	// Interpret the tree (Fig. 9 style): most cuts first, ties by name,
	// so the listing is the same on every run.
	fmt.Println("\nTop cut columns of the deployed tree:")
	type colCuts struct {
		col   string
		total int
	}
	var top []colCuts
	for col, perDepth := range best.Tree.CutCounts() {
		total := 0
		for _, n := range perDepth {
			total += n
		}
		if total >= 2 {
			top = append(top, colCuts{col, total})
		}
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].total != top[j].total {
			return top[i].total > top[j].total
		}
		return top[i].col < top[j].col
	})
	for _, c := range top {
		fmt.Printf("  %-16s %d cuts\n", c.col, c.total)
	}

	// TPC-H Q1 and Q6: full aggregation statements pushed into the same
	// skipping layout. Dates parse against the 1992-01-01 TPC-H epoch;
	// 0.05/0.07 scale to the fixed-point discount encoding.
	q1 := "SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), SUM(l_extendedprice), AVG(l_quantity), AVG(l_discount) " +
		"FROM lineitem WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus"
	q6 := "SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem " +
		"WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24"

	schema := ds.Schema
	aqs, _, err := qd.ParseAggWorkload(schema, []string{q1, q6})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nTPC-H Q1 (pricing summary report):")
	r1, err := eng.Aggregate(aqs[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-10s %-10s %10s %10s %14s %8s %8s\n",
		"returnflag", "linestatus", "count", "sum_qty", "sum_price", "avg_qty", "avg_disc")
	rf, lst := schema.Cols[r1.GroupBy[0]].Dict, schema.Cols[r1.GroupBy[1]].Dict
	for _, row := range r1.Rows {
		fmt.Printf("  %-10s %-10s %10d %10d %14d %8.2f %8.4f\n",
			rf[row.Key[0]], lst[row.Key[1]],
			row.Vals[0].Int, row.Vals[1].Int, row.Vals[2].Int, row.Vals[3].Float, row.Vals[4].Float/100)
	}

	fmt.Println("\nTPC-H Q6 (forecasting revenue change):")
	r6, err := eng.Aggregate(aqs[1])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  revenue-ish SUM(l_extendedprice) = %d over %d matching rows\n",
		r6.Rows[0].Vals[0].Int, r6.Rows[0].Vals[1].Int)
	fmt.Printf("  scanned %d of %d rows (skip rate %.1f%%)\n",
		r6.RowsScanned, r6.RowsTotal, r6.SkipRate()*100)

	// Both statements must agree exactly with the naive row-at-a-time
	// reference evaluator (the differential-test ground truth).
	for i, res := range []*qd.AggResult{r1, r6} {
		name := []string{"Q1", "Q6"}[i]
		truth := qd.ReferenceAggregate(ds.Table, aqs[i], best.ACs)
		if len(res.Rows) != len(truth) {
			log.Fatalf("%s: %d rows vs reference %d", name, len(res.Rows), len(truth))
		}
		for r := range truth {
			for v := range truth[r].Vals {
				if res.Rows[r].Vals[v].Int != truth[r].Vals[v].Int {
					log.Fatalf("%s: aggregate diverges from reference at row %d", name, r)
				}
			}
		}
	}
	fmt.Println("\naggregates verified against the reference evaluator: OK")

	// Row-returning statements through the same layout: a TopK scan and a
	// code-space self-join (both sides share the l_shipmode dictionary).
	rowSQL := "SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem " +
		"WHERE l_shipdate >= '1995-06-01' AND l_discount BETWEEN 0.05 AND 0.07 " +
		"ORDER BY l_extendedprice DESC, l_orderkey LIMIT 5"
	stmt, _, err := qd.ParseRowSelect(schema, rowSQL)
	if err != nil {
		log.Fatal(err)
	}
	rres, err := eng.Select(stmt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ntop discounted line items by price (TopK over the heap, not a full sort):")
	for _, row := range rres.Rows {
		fmt.Printf("  order %-8d price %-7d shipdate %d\n", row[0], row[1], row[2])
	}
	if truth := qd.ReferenceSelect(ds.Table, *stmt.Row, best.ACs); len(truth) != len(rres.Rows) {
		log.Fatalf("row query: %d rows vs reference %d", len(rres.Rows), len(truth))
	} else {
		for r := range truth {
			for c := range truth[r] {
				if rres.Rows[r][c] != truth[r][c] {
					log.Fatalf("row query diverges from reference at row %d", r)
				}
			}
		}
	}

	joinSQL := "SELECT a.l_orderkey, b.l_orderkey, a.l_shipmode FROM a JOIN b ON a.l_shipmode = b.l_shipmode " +
		"WHERE a.l_extendedprice >= 104500 AND b.l_extendedprice >= 104800 " +
		"ORDER BY a.l_orderkey, b.l_orderkey LIMIT 8"
	jstmt, _, err := qd.ParseRowSelect(schema, joinSQL)
	if err != nil {
		log.Fatal(err)
	}
	jres, err := eng.Select(jstmt)
	if err != nil {
		log.Fatal(err)
	}
	modeDict := schema.Cols[schema.MustCol("l_shipmode")].Dict
	fmt.Printf("\nself-join on l_shipmode (code-space build: %v, build %d probe %d):\n",
		jres.Join.CodeSpace, jres.Join.RowsBuild, jres.Join.RowsProbe)
	for _, row := range jres.Rows {
		fmt.Printf("  orders %-8d x %-8d via %s\n", row[0], row[1], modeDict[row[2]])
	}
	jtruth := qd.ReferenceJoin(ds.Table, *jstmt.Join, best.ACs)
	if len(jtruth) != len(jres.Rows) {
		log.Fatalf("join: %d rows vs reference %d", len(jres.Rows), len(jtruth))
	}
	for r := range jtruth {
		for c := range jtruth[r] {
			if jres.Rows[r][c] != jtruth[r][c] {
				log.Fatalf("join diverges from reference at row %d", r)
			}
		}
	}
	fmt.Println("\nrow statements verified against the reference evaluator: OK")
}
