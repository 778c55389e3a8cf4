// Streaming example: the online half of the paper's architecture
// (Fig. 1) through the Writer API. A qd-tree is learned offline on a
// week of history and materialized as a block store; new days then
// stream in through Engine.Insert while the hot service drifts
// (Sec. 8). Inserted rows answer queries at once but sit in an
// unpruned delta, so the workload's skip rate falls as the delta fills;
// Compact routes them through the deployed tree into the blocks their
// values belong to and restores it, without changing a single answer.
// What compaction cannot recover is the drift itself: the cuts were
// learned before 'storage' ran hot, which is what a Server's drift
// monitor replans for.
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

// measure runs the workload and returns its skip rate and per-query
// match counts.
func measure(eng *qd.Engine, queries []qd.Query) (float64, []int64) {
	wr, err := eng.Workload(queries)
	if err != nil {
		log.Fatal(err)
	}
	var scanned, total int64
	matched := make([]int64, len(wr.Results))
	for i, r := range wr.Results {
		scanned += r.RowsScanned
		total += r.RowsTotal
		matched[i] = r.RowsMatched
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
	plan, err := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 5_000})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "qd-streaming-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := qd.WriteStore(dir, history, plan.Layout)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	fmt.Printf("learned tree on %d historical rows: %d blocks\n", history.N, plan.Layout.NumBlocks())
	skip, _ := measure(eng, ds.Queries)
	fmt.Printf("%-26s skip rate %5.1f%%\n", "before the fill:", 100*skip)

	// Online: stream ten more days; the hot spot drifts to 'storage'.
	for day := 7; day < 17; day++ {
		if err := eng.Insert(genDay(day, 10_000, 4, rng)); err != nil {
			log.Fatal(err)
		}
	}
	if err := eng.Flush(); err != nil { // seal the delta to durable segments
		log.Fatal(err)
	}
	skip, filled := measure(eng, ds.Queries)
	fmt.Printf("%-26s skip rate %5.1f%%  (%d rows in the unpruned delta)\n",
		"at full fill:", 100*skip, eng.DeltaRows())

	// Compact folds the delta into the layout through the learned cuts.
	if err := eng.Compact(); err != nil {
		log.Fatal(err)
	}
	skip, compacted := measure(eng, ds.Queries)
	fmt.Printf("%-26s skip rate %5.1f%%  (%d blocks)\n",
		"after compaction:", 100*skip, eng.Layout().NumBlocks())
	for i := range filled {
		if filled[i] != compacted[i] {
			log.Fatalf("query %d: %d matches before compaction, %d after", i, filled[i], compacted[i])
		}
	}
	fmt.Printf("all %d queries return the same matches before and after compaction;\n", len(ds.Queries))
	fmt.Println("the gap to the first line is the drift the offline cuts never saw")
}
