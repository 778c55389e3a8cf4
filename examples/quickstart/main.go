// Quickstart: the Dataset → Planner → Engine pipeline on a small
// synthetic table. A dataset binds schema + data + SQL workload, a
// planner turns it into a deployable plan, and an engine serves queries
// over the materialized blocks.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"time"

	"repro/qd"
)

func main() {
	// 1. Define a schema: numeric columns take range cuts, categorical
	//    columns take =/IN cuts over dictionary codes.
	schema := qd.MustSchema([]qd.Column{
		{Name: "event_date", Kind: qd.Numeric, Min: 0, Max: 364},
		{Name: "severity", Kind: qd.Numeric, Min: 0, Max: 9},
		{Name: "service", Kind: qd.Categorical, Dom: 5,
			Dict: []string{"auth", "billing", "frontend", "search", "storage"}},
	})

	// 2. Load data (here: 200K synthetic rows; errors cluster by service).
	rng := rand.New(rand.NewSource(1))
	tbl := qd.NewTable(schema, 200_000)
	for i := 0; i < 200_000; i++ {
		service := int64(rng.Intn(5))
		sev := int64(rng.Intn(10))
		if service == 0 { // auth incidents skew severe
			sev = int64(5 + rng.Intn(5))
		}
		tbl.AppendRow([]int64{int64(rng.Intn(365)), sev, service})
	}

	// 3. Bind table + workload into a Dataset. The candidate cuts are
	//    extracted from these predicates (paper Sec. 3.4).
	ds, err := qd.NewDataset(schema, tbl).WithWorkload(
		"service = 'auth' AND severity >= 8",
		"service IN ('billing', 'frontend') AND event_date BETWEEN 100 AND 130",
		"severity >= 9",
		"event_date >= 350",
		"service = 'search' AND severity < 2 AND event_date < 50",
	)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Plan the layout with the greedy constructor (Algorithm 1);
	//    b = 10K rows per block. Strategies can also be resolved by name
	//    via qd.NewPlanner("greedy" | "woodblock" | ...).
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 10_000})
	if err != nil {
		log.Fatal(err)
	}
	tree := plan.Tree
	fmt.Printf("qd-tree: %d leaves, depth %d\n\n%s\n", len(tree.Leaves()), tree.Depth(), tree)
	fmt.Printf("workload accesses %.1f%% of tuples (full scan = 100%%, lower bound = %.1f%%)\n",
		plan.AccessedFraction(nil)*100, ds.Selectivity()*100)

	// 5. Query routing: each query gets an explicit block list.
	for _, q := range ds.Queries {
		blocks := tree.QueryBlocks(q)
		fmt.Printf("  %-60s -> scans %d/%d blocks\n", q.StringWith(schema.Names(), ds.ACs), len(blocks), len(tree.Leaves()))
	}

	// 6. Data routing: new records descend the tree to their block.
	newRow := []int64{200, 9, 0} // severe auth incident
	leaf := tree.RouteRow(newRow)
	fmt.Printf("\nnew record routes to block %d: %s\n", leaf.BlockID, tree.LeafPredicate(leaf))

	// 7. Physical execution: materialize the plan's blocks and serve the
	//    workload through an Engine.
	dir, err := os.MkdirTemp("", "qd-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := qd.WriteStore(dir, tbl, plan.Layout)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{Parallelism: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	wr, err := eng.Workload(ds.Queries)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nengine ran %d queries, simulated %v\n",
		len(wr.Results), wr.TotalSimTime.Round(time.Millisecond))
}
