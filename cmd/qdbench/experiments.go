package main

import (
	"fmt"
	"time"

	"repro/internal/router"
	"repro/internal/workload"
	"repro/qd"
)

// expTable2 regenerates Table 2: percentage of tuples accessed under each
// layout scheme, for TPC-H and both ErrorLog workloads.
func expTable2(cfg config) error {
	fmt.Println("Table 2: logical I/O — % tuples accessed (lower is better)")
	fmt.Printf("%-12s %10s %10s %10s %10s %10s %12s\n",
		"workload", "baseline", "BU", "BU+", "greedy", "RL", "selectivity")

	type wl struct {
		name     string
		spec     *workload.Spec
		b        int
		rangeCol int
	}
	wls := []wl{
		{"TPC-H", workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed}),
			cfg.rows / 770, -1}, // paper: b=100K of 77M ≈ 1/770 of the data
		{"ErrLog-Int", workload.ErrorLogInt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed}),
			cfg.rows / 2000, 0}, // paper: b=50K of 100M
		{"ErrLog-Ext", workload.ErrorLogExt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed}),
			cfg.rows / 1620, 0},
	}
	for _, w := range wls {
		if w.b < 16 {
			w.b = 16
		}
		rangeCol := -1
		if w.rangeCol >= 0 {
			rangeCol = workload.IngestColumn(w.spec.Table.Schema)
		}
		ls, err := buildAll(w.spec, w.b, rangeCol, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		sel := ls.ds.Selectivity()
		fmt.Printf("%-12s %10s %10s %10s %10s %10s %12s\n", w.name,
			pct(ls.baseline.AccessedFraction(w.spec.Queries)),
			pct(ls.bu.AccessedFraction(w.spec.Queries)),
			pct(ls.buPlus.AccessedFraction(w.spec.Queries)),
			pct(ls.greedy.AccessedFraction(w.spec.Queries)),
			pct(ls.rlLayout.AccessedFraction(w.spec.Queries)),
			pct(sel))
	}
	fmt.Println("\npaper (Table 2): TPC-H 56/46.1/26.3/25.8; ErrLog-Int 100/5.6*/3.1/0.4; ErrLog-Ext 100/12.2*/1.7/0.2 (* = BU+)")
	return nil
}

// expFig3 regenerates the Sec. 5.1 microbenchmark (Figure 3).
func expFig3(cfg config) error {
	spec := workload.Fig3(cfg.rows, cfg.seed)
	ds := dataset(spec)
	base := qd.PlanOptions{MinBlockSize: cfg.rows / 200, Cuts: toCuts(spec.Cuts)}
	gPlan, err := planWith("greedy", ds, base)
	if err != nil {
		return err
	}
	gFrac := gPlan.AccessedFraction(nil)
	rlOpt := base
	rlOpt.Hidden = 32
	rlOpt.MaxEpisodes = cfg.episodes
	rlOpt.Seed = cfg.seed
	rPlan, err := planWith("woodblock", ds, rlOpt)
	if err != nil {
		return err
	}
	rFrac := rPlan.AccessedFraction(nil)
	fmt.Println("Figure 3 micro: disjunctive queries")
	fmt.Printf("greedy scan ratio:    %s  (paper: 50.5%%)\n", pct(gFrac))
	fmt.Printf("woodblock scan ratio: %s  (paper: 10.4%%)\n", pct(rFrac))
	fmt.Printf("improvement:          %.1fx (paper: 4.8x)\n", gFrac/rFrac)
	return nil
}

// expFig4 regenerates the Sec. 6.2 overlap microbenchmark (Figure 4).
func expFig4(cfg config) error {
	armN := cfg.rows / 4
	spec := workload.Fig4(armN, cfg.seed)
	ds := dataset(spec)
	opt := qd.PlanOptions{MinBlockSize: armN, Cuts: toCuts(spec.Cuts)}
	plainPlan, err := planWith("greedy", ds, opt)
	if err != nil {
		return err
	}
	ovPlan, err := planWith("overlap", ds, opt)
	if err != nil {
		return err
	}
	var plainAcc, ovAcc int64
	for _, q := range spec.Queries {
		plainAcc += plainPlan.Layout.AccessedTuples(q)
		ovAcc += ovPlan.Overlap.AccessedTuples(q, spec.Table.Schema)
	}
	ideal := int64(4 * (armN + 1))
	fmt.Println("Figure 4 micro: replicating one record removes cross-block fetches")
	fmt.Printf("queries select:        %d tuples total (4 x (N+1))\n", ideal)
	fmt.Printf("plain qd-tree reads:   %d tuples (3N extra, paper's analysis)\n", plainAcc)
	fmt.Printf("overlap layout reads:  %d tuples\n", ovAcc)
	fmt.Printf("storage overhead:      %.4f%% (paper: 'virtually no extra storage')\n", ovPlan.Overlap.StorageOverhead()*100)
	return nil
}

// expFig5 regenerates Figure 5: per-template TPC-H runtimes under an
// engine profile, bottom-up (BU+) vs qd-tree.
func expFig5(cfg config, engine string) error {
	prof := qd.EngineSpark
	if engine == "dbms" {
		prof = qd.EngineDBMS
	}
	spec := workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed})
	b := cfg.rows / 770
	if b < 16 {
		b = 16
	}
	ds := dataset(spec)
	gPlan, err := planWith("greedy", ds, qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(spec.Cuts)})
	if err != nil {
		return err
	}
	buPlan, err := planBottomUp(spec, b, 0.10)
	if err != nil {
		return err
	}

	dir, cleanup, err := tempDir(cfg, "fig5-"+engine)
	if err != nil {
		return err
	}
	defer cleanup()
	qdStore, err := qd.WriteStore(dir+"/qd", spec.Table, gPlan.Layout)
	if err != nil {
		return err
	}
	buStore, err := qd.WriteStore(dir+"/bu", spec.Table, buPlan.Layout)
	if err != nil {
		return err
	}
	qdEng, err := qd.NewEngine(qdStore, gPlan, prof, qd.ExecOptions{Parallelism: 1})
	if err != nil {
		return err
	}
	defer qdEng.Close()
	buEng, err := qd.NewEngine(buStore, buPlan, prof, qd.ExecOptions{Parallelism: 1})
	if err != nil {
		return err
	}
	defer buEng.Close()

	qdWL, err := qdEng.Workload(spec.Queries)
	if err != nil {
		return err
	}
	buWL, err := buEng.Workload(spec.Queries)
	if err != nil {
		return err
	}
	qdTimes := make([]time.Duration, len(qdWL.Results))
	buTimes := make([]time.Duration, len(buWL.Results))
	for i := range qdWL.Results {
		qdTimes[i] = qdWL.Results[i].SimTime
		buTimes[i] = buWL.Results[i].SimTime
	}
	qdByT := groupByTemplate(spec.Queries, qdTimes)
	buByT := groupByTemplate(spec.Queries, buTimes)

	fmt.Printf("Figure 5 (%s profile): mean simulated runtime per template\n", prof.Name)
	fmt.Printf("%-6s %14s %14s %9s\n", "tmpl", "bottom-up", "qd-tree", "speedup")
	for _, k := range sortedTemplates(qdByT) {
		bu, qdt := meanSim(buByT[k]), meanSim(qdByT[k])
		sp := float64(bu) / float64(qdt+1)
		fmt.Printf("%-6s %14s %14s %8.1fx\n", k, bu.Round(time.Microsecond), qdt.Round(time.Microsecond), sp)
	}
	fmt.Printf("TOTAL  %14s %14s %8.1fx  (paper: 1.6x spark / 1.3x dbms overall)\n",
		buWL.TotalSimTime.Round(time.Millisecond), qdWL.TotalSimTime.Round(time.Millisecond),
		float64(buWL.TotalSimTime)/float64(qdWL.TotalSimTime+1))
	return nil
}

// expFig6a regenerates the data-routing throughput series (Figure 6a).
func expFig6a(cfg config) error {
	spec := workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed})
	b := cfg.rows / 770
	if b < 16 {
		b = 16
	}
	plan, err := planWith("greedy", dataset(spec), qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(spec.Cuts)})
	if err != nil {
		return err
	}
	fmt.Println("Figure 6a: data-routing throughput (records/s) vs threads")
	fmt.Printf("%-8s %14s %12s\n", "threads", "records/s", "elapsed")
	for _, threads := range []int{1, 2, 4, 8, 16, 32, 64} {
		res := router.MeasureThroughput(plan.Tree, spec.Table, threads, 4096)
		fmt.Printf("%-8d %14.0f %12s\n", threads, res.RecordsPS, res.Elapsed.Round(time.Millisecond))
	}
	fmt.Println("(paper: linear scaling to 16 threads, 400K rec/s at 64 — Python impl)")
	return nil
}

// expFig6b regenerates the query-routing latency CDF (Figure 6b).
func expFig6b(cfg config) error {
	spec := workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed})
	b := cfg.rows / 770
	if b < 16 {
		b = 16
	}
	// Planning routes the table and freezes leaf descriptions, so the
	// tree is deployment-ready for the router.
	plan, err := planWith("greedy", dataset(spec), qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(spec.Cuts)})
	if err != nil {
		return err
	}
	lat := router.Latencies(plan.Tree, spec.Queries)
	vals := make([]float64, len(lat))
	for i, l := range lat {
		vals[i] = float64(l.Microseconds())
	}
	sorted, fracs := router.CDF(vals)
	fmt.Printf("Figure 6b: query-routing latency CDF over %d queries, %d leaves\n",
		len(spec.Queries), len(plan.Tree.Leaves()))
	for _, p := range []float64{0.25, 0.5, 0.75, 0.9, 0.99, 1.0} {
		idx := int(p*float64(len(sorted))) - 1
		if idx < 0 {
			idx = 0
		}
		fmt.Printf("p%-4.0f %10.0f us (cumulative %.2f)\n", p*100, sorted[idx], fracs[idx])
	}
	fmt.Println("(paper: max < 16ms, most < 10ms — Python impl)")
	return nil
}

// expFig7 regenerates Figures 7a/7b: aggregate ErrorLog runtimes for BU+,
// qd-tree with routing, and qd-tree without routing.
func expFig7(cfg config) error {
	for _, w := range []struct {
		name string
		spec *workload.Spec
		div  int
	}{
		{"ErrorLog-Int (Fig 7a)", workload.ErrorLogInt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed}), 2000},
		{"ErrorLog-Ext (Fig 7b)", workload.ErrorLogExt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed}), 1620},
	} {
		b := cfg.rows / w.div
		if b < 16 {
			b = 16
		}
		gPlan, err := planWith("greedy", dataset(w.spec), qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(w.spec.Cuts)})
		if err != nil {
			return err
		}
		buPlan, err := planBottomUp(w.spec, b, 0.10)
		if err != nil {
			return err
		}
		// Inner function so engines and the temp dir release per workload.
		buTotal, qdTotal, nrTotal, err := func() (bu, qdt, nr time.Duration, err error) {
			dir, cleanup, err := tempDir(cfg, "fig7")
			if err != nil {
				return 0, 0, 0, err
			}
			defer cleanup()
			qdStore, err := qd.WriteStore(dir+"/qd", w.spec.Table, gPlan.Layout)
			if err != nil {
				return 0, 0, 0, err
			}
			buStore, err := qd.WriteStore(dir+"/bu", w.spec.Table, buPlan.Layout)
			if err != nil {
				return 0, 0, 0, err
			}
			buEng, err := qd.NewEngine(buStore, buPlan, qd.EngineSpark, qd.ExecOptions{Parallelism: 1})
			if err != nil {
				return 0, 0, 0, err
			}
			defer buEng.Close()
			qdEng, err := qd.NewEngine(qdStore, gPlan, qd.EngineSpark, qd.ExecOptions{Parallelism: 1})
			if err != nil {
				return 0, 0, 0, err
			}
			defer qdEng.Close()
			nrEng, err := qd.NewEngine(qdStore, gPlan, qd.EngineSpark, qd.ExecOptions{Parallelism: 1})
			if err != nil {
				return 0, 0, 0, err
			}
			nrEng.WithMode(qd.NoRoute)
			buWL, err := buEng.Workload(w.spec.Queries)
			if err != nil {
				return 0, 0, 0, err
			}
			qdWL, err := qdEng.Workload(w.spec.Queries)
			if err != nil {
				return 0, 0, 0, err
			}
			nrWL, err := nrEng.Workload(w.spec.Queries)
			if err != nil {
				return 0, 0, 0, err
			}
			return buWL.TotalSimTime, qdWL.TotalSimTime, nrWL.TotalSimTime, nil
		}()
		if err != nil {
			return err
		}
		fmt.Printf("%s: aggregate simulated runtime over %d queries\n", w.name, len(w.spec.Queries))
		fmt.Printf("  BU+:              %12s\n", buTotal.Round(time.Millisecond))
		fmt.Printf("  qd-tree:          %12s  (%.1fx over BU+; paper: 14x int / 5x ext)\n",
			qdTotal.Round(time.Millisecond), float64(buTotal)/float64(qdTotal+1))
		fmt.Printf("  qd-tree no route: %12s\n", nrTotal.Round(time.Millisecond))
	}
	return nil
}

// expFig7c regenerates the per-query speedup CDF of Figure 7c.
func expFig7c(cfg config) error {
	fmt.Println("Figure 7c: CDF of per-query speedups of qd-tree over BU+")
	for _, w := range []struct {
		name string
		spec *workload.Spec
		div  int
	}{
		{"ErrorLog-Int", workload.ErrorLogInt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed}), 2000},
		{"ErrorLog-Ext", workload.ErrorLogExt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed}), 1620},
	} {
		b := cfg.rows / w.div
		if b < 16 {
			b = 16
		}
		gPlan, err := planWith("greedy", dataset(w.spec), qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(w.spec.Cuts)})
		if err != nil {
			return err
		}
		buPlan, err := planBottomUp(w.spec, b, 0.10)
		if err != nil {
			return err
		}
		speedups := make([]float64, 0, len(w.spec.Queries))
		for _, q := range w.spec.Queries {
			bu := float64(buPlan.Layout.AccessedTuples(q))
			qdt := float64(gPlan.Layout.AccessedTuples(q))
			speedups = append(speedups, (bu+1)/(qdt+1))
		}
		sorted, _ := router.CDF(speedups)
		fmt.Printf("%s:\n", w.name)
		for _, p := range []float64{0.25, 0.5, 0.75, 0.9} {
			idx := int(p * float64(len(sorted)))
			if idx >= len(sorted) {
				idx = len(sorted) - 1
			}
			fmt.Printf("  p%-3.0f speedup %8.1fx\n", p*100, sorted[idx])
		}
	}
	fmt.Println("(paper: 50% of queries ≥25x int / ≥20x ext)")
	return nil
}

// expFig8 regenerates the Woodblock learning curves (Figure 8).
func expFig8(cfg config) error {
	for _, w := range []struct {
		name string
		spec *workload.Spec
		div  int
	}{
		{"TPC-H", workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed}), 770},
		{"ErrorLog-Ext", workload.ErrorLogExt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed}), 1620},
	} {
		b := cfg.rows / w.div
		if b < 16 {
			b = 16
		}
		fmt.Printf("Figure 8 — %s learning curve (scan ratio vs elapsed):\n", w.name)
		plan, err := planWith("woodblock", dataset(w.spec), qd.PlanOptions{
			MinBlockSize: b, Cuts: toCuts(w.spec.Cuts),
			Hidden: cfg.hidden, MaxEpisodes: cfg.episodes, Seed: cfg.seed})
		if err != nil {
			return err
		}
		res := plan.RL
		step := len(res.Curve) / 8
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(res.Curve); i += step {
			pt := res.Curve[i]
			fmt.Printf("  ep %3d  %8s  ratio %s  best %s\n",
				pt.Episode, pt.Elapsed.Round(time.Millisecond), pct(pt.Ratio), pct(pt.Best))
		}
		last := res.Curve[len(res.Curve)-1]
		fmt.Printf("  final best: %s after %d episodes (%s)\n", pct(last.Best), res.Episodes, last.Elapsed.Round(time.Millisecond))
	}
	fmt.Println("(paper: TPC-H improves from ~39% to ~26% in 10 min; ErrLog starts high-quality immediately)")
	return nil
}

// expFig9 regenerates the cut-interpretation analysis (Figure 9).
func expFig9(cfg config) error {
	spec := workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed})
	b := cfg.rows / 770
	if b < 16 {
		b = 16
	}
	plan, err := planWith("woodblock", dataset(spec), qd.PlanOptions{
		MinBlockSize: b, Cuts: toCuts(spec.Cuts),
		Hidden: cfg.hidden, MaxEpisodes: cfg.episodes, Seed: cfg.seed})
	if err != nil {
		return err
	}
	counts := plan.Tree.CutCounts()
	fmt.Printf("Figure 9: cuts per column across depths of the best Woodblock tree (depth %d, %d leaves)\n",
		plan.Tree.Depth(), len(plan.Tree.Leaves()))
	type kv struct {
		col   string
		total int
	}
	var items []kv
	for col, perDepth := range counts {
		t := 0
		for _, n := range perDepth {
			t += n
		}
		items = append(items, kv{col, t})
	}
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].total > items[j-1].total; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	for _, it := range items {
		fmt.Printf("  %-16s %4d cuts  per-depth %v\n", it.col, it.total, counts[it.col])
	}
	if root := plan.Tree.Root; root.Cut != nil {
		fmt.Printf("root cut: %s\n", root.Cut.StringWith(spec.Table.Schema.Names(), spec.ACs))
	}
	return nil
}

// expRobust regenerates the Sec. 7.4.1 robustness check: a tree built on
// the 150 train queries evaluated on 10x unseen test queries.
func expRobust(cfg config) error {
	spec := workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed})
	b := cfg.rows / 770
	if b < 16 {
		b = 16
	}
	plan, err := planWith("greedy", dataset(spec), qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(spec.Cuts)})
	if err != nil {
		return err
	}
	trainFrac := plan.AccessedFraction(nil)
	test := workload.TPCHQueries(spec.Table.Schema, 10*len(spec.Queries)/len(workload.TPCHTemplates)/1, cfg.seed+999)
	testFrac := plan.AccessedFraction(test)
	fmt.Println("Robustness (Sec. 7.4.1): fixed tree, unseen query literals")
	fmt.Printf("train queries (%4d): accessed %s\n", len(spec.Queries), pct(trainFrac))
	fmt.Printf("test  queries (%4d): accessed %s\n", len(test), pct(testFrac))
	fmt.Printf("ratio: %.3f (paper: 7776ms vs 7752ms ≈ 1.003)\n", testFrac/trainFrac)
	return nil
}

// expBuildTime regenerates the Sec. 7.6 construction-time comparison.
func expBuildTime(cfg config) error {
	spec := workload.ErrorLogInt(workload.ErrorLogConfig{Rows: cfg.rows, NumQueries: cfg.queries, Seed: cfg.seed})
	b := cfg.rows / 2000
	if b < 16 {
		b = 16
	}
	ls, err := buildAll(spec, b, workload.IngestColumn(spec.Table.Schema), cfg)
	if err != nil {
		return err
	}
	fmt.Println("Section 7.6: wall-clock time to produce layouts (ErrorLog-Int)")
	fmt.Printf("bottom-up: %12s (paper: 432 min at 100M rows)\n", ls.times["bottom-up"].Round(time.Millisecond))
	fmt.Printf("greedy:    %12s (paper: 12 min)\n", ls.times["greedy"].Round(time.Millisecond))
	fmt.Printf("woodblock: %12s to best of %d episodes (paper: top trees within 30 s)\n",
		ls.times["woodblock"].Round(time.Millisecond), ls.rlResult.Episodes)
	return nil
}

// expLayout plans the TPC-H micro workload with the strategy named by
// -strategy, resolved through the planner registry — the generic
// single-strategy entry point.
func expLayout(cfg config) error {
	spec := workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed})
	b := cfg.rows / 770
	if b < 16 {
		b = 16
	}
	ds := dataset(spec)
	plan, err := planWith(cfg.strategy, ds, qd.PlanOptions{
		MinBlockSize: b, Cuts: toCuts(spec.Cuts), Seed: cfg.seed,
		Hidden: cfg.hidden, MaxEpisodes: cfg.episodes})
	if err != nil {
		return err
	}
	fmt.Printf("strategy %s on TPC-H (%d rows, %d queries, b=%d):\n",
		plan.Strategy, spec.Table.N, len(spec.Queries), b)
	fmt.Printf("  blocks:            %d\n", plan.Layout.NumBlocks())
	fmt.Printf("  accessed fraction: %s (selectivity bound %s)\n",
		pct(plan.AccessedFraction(nil)), pct(ds.Selectivity()))
	fmt.Printf("  planned in:        %s\n", plan.Elapsed.Round(time.Millisecond))
	return nil
}

// expTwoTree regenerates the Sec. 6.3 two-tree replication experiment.
func expTwoTree(cfg config) error {
	spec := workload.TPCH(workload.TPCHConfig{Rows: cfg.rows, Seed: cfg.seed})
	b := cfg.rows / 770
	if b < 16 {
		b = 16
	}
	ds := dataset(spec)
	opt := qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(spec.Cuts)}
	singlePlan, err := planWith("greedy", ds, opt)
	if err != nil {
		return err
	}
	ttPlan, err := planWith("twotree", ds, opt)
	if err != nil {
		return err
	}
	tt := ttPlan.TwoTree
	served := map[int]int{}
	for _, c := range tt.PerQueryChoice {
		served[c]++
	}
	// Worst-decile improvement: mean access over the worst 10% of queries.
	worstMean := func(acc func(qd.Query) int64) float64 {
		vals := make([]float64, 0, len(spec.Queries))
		for _, q := range spec.Queries {
			vals = append(vals, float64(acc(q)))
		}
		sorted, _ := router.CDF(vals)
		tail := sorted[len(sorted)*9/10:]
		s := 0.0
		for _, v := range tail {
			s += v
		}
		return s / float64(len(tail))
	}
	fmt.Println("Two-tree replication (Sec. 6.3): 2x storage for better worst-case skipping")
	fmt.Printf("one tree:  accessed %s   worst-decile mean %.0f tuples\n",
		pct(singlePlan.AccessedFraction(nil)), worstMean(singlePlan.Layout.AccessedTuples))
	fmt.Printf("two trees: accessed %s   worst-decile mean %.0f tuples\n",
		pct(tt.AccessedFraction(spec.Queries)), worstMean(tt.AccessedTuples))
	fmt.Printf("dispatch: %d queries -> T1, %d queries -> T2\n", served[1], served[2])
	return nil
}
