package main

// Experiment "rows": the row-returning executor. Three measurements over
// the ErrorLog-Int workload, each pinned to ground truth before timing:
//
//  1. TopK (bounded heap + SMA short-circuit) vs the full-sort-then-limit
//     baseline (SelectNaive): decode everything, sort everything, cut to
//     LIMIT. The acceptance target is >= 2x sim speedup.
//  2. Code-space join probe (both sides share the event_type dictionary,
//     build table indexed by code) vs the decoded hash-partition path,
//     forced by re-typing the same key column as Numeric over the very
//     same column data.
//  3. Plan-cache hit vs miss parse latency through the serving handle —
//     the repeated-statement shape serving traffic actually has.

import (
	"fmt"
	"time"

	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/workload"
	"repro/qd"
)

func sameTuples(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func expRows(cfg config) error {
	spec := workload.ErrorLogInt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed})
	b := cfg.rows / 2000
	if b < 16 {
		b = 16
	}
	plan, err := planWith("greedy", dataset(spec), qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(spec.Cuts)})
	if err != nil {
		return err
	}
	dir, cleanup, err := tempDir(cfg, "rows")
	if err != nil {
		return err
	}
	defer cleanup()
	store, err := qd.WriteStore(dir+"/code", spec.Table, plan.Layout)
	if err != nil {
		return err
	}
	eng, err := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{Parallelism: cfg.parallel})
	if err != nil {
		return err
	}
	defer eng.Close()
	schema := spec.Table.Schema
	lastHour := schema.Cols[schema.MustCol("ingest_date")].Max

	// --- 1. TopK vs full-sort-then-limit -------------------------------
	topSQLs := []string{
		"SELECT ingest_date, x_num06 FROM logs ORDER BY ingest_date DESC LIMIT 10",
		"SELECT x_num06, event_type FROM logs WHERE validity = 'VALID' ORDER BY x_num06 DESC LIMIT 100",
		fmt.Sprintf("SELECT ingest_date, x_num09 FROM logs WHERE ingest_date >= %d ORDER BY x_num09, ingest_date LIMIT 25", lastHour-24),
	}
	type topkRecord struct {
		SQL        string  `json:"sql"`
		ResultRows int     `json:"result_rows"`
		TopKSimNS  int64   `json:"topk_sim_ns"`
		NaiveSimNS int64   `json:"naive_sim_ns"`
		Speedup    float64 `json:"speedup"`
		BytesRead  int64   `json:"bytes_read"`
		// RowsMatched counts filter survivors in the blocks the TopK
		// path actually visited. When the short-circuit stopped early it
		// is only a lower bound (flagged below), so nothing — not the
		// identical check here, not the CI gate — may compare it against
		// the naive path's exhaustive count. Identical compares result
		// tuples only.
		RowsMatched           int64 `json:"rows_matched"`
		RowsMatchedLowerBound bool  `json:"rows_matched_lower_bound"`
		Identical             bool  `json:"identical"`
	}
	bench := struct {
		Experiment        string       `json:"experiment"`
		Rows              int          `json:"rows"`
		Blocks            int          `json:"blocks"`
		TopK              []topkRecord `json:"topk"`
		TopKSpeedup       float64      `json:"topk_speedup"`
		JoinCodeWallNS    int64        `json:"join_code_wall_ns"`
		JoinDecodedWallNS int64        `json:"join_decoded_wall_ns"`
		JoinSpeedup       float64      `json:"join_speedup"`
		JoinRowsBuild     int64        `json:"join_rows_build"`
		JoinRowsProbe     int64        `json:"join_rows_probe"`
		PlanMissNS        int64        `json:"plan_miss_ns"`
		PlanHitNS         int64        `json:"plan_hit_ns"`
		PlanCacheSpeedup  float64      `json:"plan_cache_speedup"`
	}{Experiment: "rows", Rows: spec.Table.N, Blocks: plan.Layout.NumBlocks()}

	fmt.Printf("Row executor: ErrorLog-Int, %d rows, %d blocks, v2 store\n\n", spec.Table.N, plan.Layout.NumBlocks())
	fmt.Printf("%-4s %-5s %12s %12s %8s %s\n", "q", "rows", "topk-sim", "naive-sim", "speedup", "statement")
	minSpeedup := 0.0
	var topkSkip float64
	for i, sql := range topSQLs {
		stmt, _, err := qd.ParseRowSelect(schema, sql)
		if err != nil {
			return err
		}
		res, err := eng.Select(stmt)
		if err != nil {
			return err
		}
		naive, err := qd.SelectNaive(store, plan, *stmt.Row, qd.EngineSpark, qd.RouteQdTree)
		if err != nil {
			return err
		}
		truth := qd.ReferenceSelect(spec.Table, *stmt.Row, plan.ACs)
		// Result rows only: RowsMatched is a lower bound under the TopK
		// short-circuit and must never be compared to the naive path's.
		same := sameTuples(res.Rows, truth) && sameTuples(naive.Rows, truth)
		speedup := float64(naive.SimTime) / float64(res.SimTime+1)
		topkSkip += res.SkipRate() / float64(len(topSQLs))
		if i == 0 || speedup < minSpeedup {
			minSpeedup = speedup
		}
		fmt.Printf("%-4d %-5d %12s %12s %7.1fx %s\n",
			i, len(res.Rows), res.SimTime.Round(time.Microsecond), naive.SimTime.Round(time.Microsecond), speedup, sql)
		bench.TopK = append(bench.TopK, topkRecord{
			SQL: sql, ResultRows: len(res.Rows),
			TopKSimNS: int64(res.SimTime), NaiveSimNS: int64(naive.SimTime),
			Speedup: speedup, BytesRead: res.BytesRead,
			RowsMatched: res.RowsMatched, RowsMatchedLowerBound: res.MatchedLowerBound,
			Identical: same,
		})
		if !same {
			return fmt.Errorf("rows: %q differs from reference", sql)
		}
	}
	bench.TopKSpeedup = minSpeedup

	// --- 2. Code-space vs decoded join probe ---------------------------
	// Same key column, same values, two physical paths: the categorical
	// schema joins in dictionary code space; re-typing event_type as
	// Numeric over the identical column slices forces the generic
	// hash-partition build with decoded keys.
	evt := schema.MustCol("event_type")
	ing := schema.MustCol("ingest_date")
	jq := qd.JoinQuery{
		Name: "evt_join", LeftTable: "a", RightTable: "b", LeftKey: evt, RightKey: evt,
		Cols:        []qd.ColRef{{Side: 0, Col: ing}, {Side: 1, Col: ing}, {Side: 0, Col: evt}},
		LeftFilter:  qd.Query{Root: qd.P(qd.Pred{Col: ing, Op: qd.Lt, Literal: 24})},
		RightFilter: qd.Query{Root: qd.P(qd.Pred{Col: ing, Op: qd.Ge, Literal: lastHour - 23})},
		OrderBy:     []qd.OrderKey{{Pos: 0}, {Pos: 1}}, Limit: 50,
	}
	jres, err := eng.Select(qd.RowStmt{Join: &jq})
	if err != nil {
		return err
	}
	if jres.Join == nil || !jres.Join.CodeSpace {
		return fmt.Errorf("rows: event_type join did not take the code-space path: %+v", jres.Join)
	}
	numCols := append([]qd.Column(nil), schema.Cols...)
	numCols[evt] = qd.Column{Name: "event_type", Kind: qd.Numeric, Min: 0, Max: numCols[evt].Dom - 1}
	numSchema, err := qd.NewSchema(numCols)
	if err != nil {
		return err
	}
	numTbl, err := table.FromColumns(numSchema, spec.Table.Cols)
	if err != nil {
		return err
	}
	numStore, err := qd.WriteStore(dir+"/decoded", numTbl, plan.Layout)
	if err != nil {
		return err
	}
	numEng, err := qd.NewEngine(numStore, plan, qd.EngineSpark, qd.ExecOptions{Parallelism: cfg.parallel})
	if err != nil {
		return err
	}
	defer numEng.Close()
	nres, err := numEng.Select(qd.RowStmt{Join: &jq})
	if err != nil {
		return err
	}
	if nres.Join == nil || nres.Join.CodeSpace {
		return fmt.Errorf("rows: numeric-key join must take the hash path: %+v", nres.Join)
	}
	if truth := qd.ReferenceJoin(spec.Table, jq, plan.ACs); !sameTuples(jres.Rows, truth) || !sameTuples(nres.Rows, truth) {
		return fmt.Errorf("rows: join paths disagree with reference")
	}
	// Sim time charges the scan I/O — identical for both paths — so the
	// probe-path difference is a wall-clock measurement: best of 3 runs
	// each, over day-wide sides so build+probe dominate.
	codeWall, decodedWall := jres.WallTime, nres.WallTime
	for i := 0; i < 2; i++ {
		if r, err := eng.Select(qd.RowStmt{Join: &jq}); err == nil && r.WallTime < codeWall {
			codeWall = r.WallTime
		}
		if r, err := numEng.Select(qd.RowStmt{Join: &jq}); err == nil && r.WallTime < decodedWall {
			decodedWall = r.WallTime
		}
	}
	joinSpeedup := float64(decodedWall) / float64(codeWall+1)
	fmt.Printf("\njoin on event_type (build %d, probe %d, %d partitions):\n",
		jres.Join.RowsBuild, jres.Join.RowsProbe, nres.Join.PartitionCount)
	fmt.Printf("  code-space %12s   decoded-hash %12s   wall speedup %.2fx\n",
		codeWall.Round(time.Microsecond), decodedWall.Round(time.Microsecond), joinSpeedup)
	bench.JoinCodeWallNS = int64(codeWall)
	bench.JoinDecodedWallNS = int64(decodedWall)
	bench.JoinSpeedup = joinSpeedup
	bench.JoinRowsBuild = jres.Join.RowsBuild
	bench.JoinRowsProbe = jres.Join.RowsProbe

	// --- 3. Plan-cache hit vs miss parse latency -----------------------
	root := dir + "/serve"
	lay, err := serve.GreedyReplan(b)(spec.Table, nil, spec.Queries)
	if err != nil {
		return err
	}
	if err := serve.Init(root, spec.Table, lay); err != nil {
		return err
	}
	srv, err := serve.New(root, serve.Config{Replan: serve.GreedyReplan(b)})
	if err != nil {
		return err
	}
	defer srv.Close()
	const reps = 3000
	start := time.Now()
	for i := 0; i < reps; i++ {
		sql := fmt.Sprintf("SELECT event_type, ingest_date FROM logs WHERE ingest_date < %d ORDER BY ingest_date DESC LIMIT 10", i+1)
		if _, err := srv.ParseStatement(sql); err != nil {
			return err
		}
	}
	missNS := time.Since(start).Nanoseconds() / reps
	hot := "SELECT event_type, ingest_date FROM logs WHERE ingest_date < 24 ORDER BY ingest_date DESC LIMIT 10"
	if _, err := srv.ParseStatement(hot); err != nil { // warm the entry
		return err
	}
	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := srv.ParseStatement(hot); err != nil {
			return err
		}
	}
	hitNS := time.Since(start).Nanoseconds() / reps
	cacheSpeedup := float64(missNS) / float64(hitNS+1)
	fmt.Printf("\nplan cache: miss %s/stmt, hit %s/stmt, speedup %.1fx over %d reps\n",
		time.Duration(missNS), time.Duration(hitNS), cacheSpeedup, reps)
	bench.PlanMissNS = missNS
	bench.PlanHitNS = hitNS
	bench.PlanCacheSpeedup = cacheSpeedup

	fmt.Printf("\nacceptance: TopK speedup %.2fx (target >= 2x), join code-space %.2fx, plan cache %.1fx\n",
		minSpeedup, joinSpeedup, cacheSpeedup)

	// Envelope headline: the TopK statements (sim/bytes are
	// deterministic there; the join and plan-cache sections are
	// wall-clock measurements and stay in the details).
	env := benchEnvelope{Experiment: "rows", Rows: spec.Table.N, Queries: len(bench.TopK), SkipRate: topkSkip}
	for _, r := range bench.TopK {
		env.SimNS += r.TopKSimNS
		env.BytesRead += r.BytesRead
	}
	env.WallNS = int64(codeWall)
	env.AllocsPerOp, err = measureAllocs(len(topSQLs), func() error {
		for _, sql := range topSQLs {
			stmt, _, err := qd.ParseRowSelect(schema, sql)
			if err != nil {
				return err
			}
			if _, err := eng.Select(stmt); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return writeBenchJSON(cfg, env, bench)
}
