// Streaming example: the online half of the paper's architecture
// (Fig. 1) through a Server, the one live write path. A qd-tree is
// learned offline on a week of history and bootstraps a serving root;
// new days then stream in through Server.Insert while the hot service
// drifts (Sec. 8). Inserted rows answer queries at once but sit in an
// unpruned delta, so the workload's skip rate falls as the delta fills;
// Compact folds them into a fresh generation, planned over the logged
// queries, and restores it without changing a single answer. What
// compaction cannot recover is the drift itself: the cuts were learned
// before 'storage' ran hot, which is what a Server's drift monitor
// replans for.
//
//	go run ./examples/streaming
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/qd"
)

// genDay draws one day of log rows; a third of them go to hotService.
func genDay(day, n int, hotService int64, rng *rand.Rand) [][]int64 {
	rows := make([][]int64, n)
	for i := range rows {
		service := int64(rng.Intn(6))
		if rng.Intn(3) == 0 {
			service = hotService
		}
		rows[i] = []int64{int64(day), int64(rng.Intn(24)), service, int64(rng.Intn(1000))}
	}
	return rows
}

// measure runs the workload through the server and returns its skip
// rate and per-query match counts.
func measure(srv *qd.Server, queries []qd.Query) (float64, []int64) {
	var scanned, total int64
	matched := make([]int64, len(queries))
	for i, q := range queries {
		res, err := srv.Execute(qd.Statement{Filter: q}, nil)
		if err != nil {
			log.Fatal(err)
		}
		scanned += res.Filter.RowsScanned
		total += res.Filter.RowsTotal
		matched[i] = res.Filter.RowsMatched
	}
	return 1 - float64(scanned)/float64(total), matched
}

func main() {
	schema := qd.MustSchema([]qd.Column{
		{Name: "day", Kind: qd.Numeric, Min: 0, Max: 30},
		{Name: "hour", Kind: qd.Numeric, Min: 0, Max: 23},
		{Name: "service", Kind: qd.Categorical, Dom: 6,
			Dict: []string{"auth", "billing", "frontend", "search", "storage", "batch"}},
		{Name: "latency_ms", Kind: qd.Numeric, Min: 0, Max: 999},
	})

	// Offline: learn the tree on the first week, hot service 'auth'.
	rng := rand.New(rand.NewSource(1))
	history := qd.NewTable(schema, 7*20_000)
	for day := 0; day < 7; day++ {
		for _, row := range genDay(day, 20_000, 0, rng) {
			history.AppendRow(row)
		}
	}
	ds, err := qd.NewDataset(schema, history).WithWorkload(
		"service = 'auth' AND latency_ms >= 800",
		"service IN ('billing','frontend') AND hour >= 9 AND hour < 17",
		"latency_ms >= 950",
		"day >= 10 AND service = 'storage'",
	)
	if err != nil {
		log.Fatal(err)
	}
	popt := qd.PlanOptions{MinBlockSize: 5_000}
	plan, err := qd.GreedyPlanner{}.Plan(ds, popt)
	if err != nil {
		log.Fatal(err)
	}
	root, err := os.MkdirTemp("", "qd-streaming-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	if err := qd.InitServing(root, history, plan); err != nil {
		log.Fatal(err)
	}
	// No background drift checks or compactions: this example runs each
	// step on demand.
	srv, err := qd.NewServer(root, qd.ServeOptions{Plan: popt})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("learned tree on %d historical rows: %d blocks\n", history.N, plan.Layout.NumBlocks())
	skip, _ := measure(srv, ds.Queries)
	fmt.Printf("%-26s skip rate %5.1f%%\n", "before the fill:", 100*skip)

	// Online: stream ten more days; the hot spot drifts to 'storage'.
	for day := 7; day < 17; day++ {
		if err := srv.Insert(genDay(day, 10_000, 4, rng)); err != nil {
			log.Fatal(err)
		}
	}
	if err := srv.Flush(); err != nil { // seal the memtable into a delta segment
		log.Fatal(err)
	}
	skip, filled := measure(srv, ds.Queries)
	fmt.Printf("%-26s skip rate %5.1f%%  (%d rows in the unpruned delta)\n",
		"at full fill:", 100*skip, srv.Stats().DeltaRows)

	// Compact folds the delta into a fresh generation, planned over the
	// queries the server has logged, and flips CURRENT to it.
	if err := srv.Compact(); err != nil {
		log.Fatal(err)
	}
	skip, compacted := measure(srv, ds.Queries)
	st := srv.Stats()
	fmt.Printf("%-26s skip rate %5.1f%%  (%d blocks, generation %d)\n",
		"after compaction:", 100*skip, st.Blocks, st.Generation)
	for i := range filled {
		if filled[i] != compacted[i] {
			log.Fatalf("query %d: %d matches before compaction, %d after", i, filled[i], compacted[i])
		}
	}
	fmt.Printf("all %d queries return the same matches before and after compaction;\n", len(ds.Queries))
	fmt.Println("the gap to the first line is the drift the offline cuts never saw")
}
