// Command qdbench regenerates every table and figure of the paper's
// evaluation (Sec. 7) on the synthetic substrates:
//
//	qdbench -exp table2     Table 2  logical access percentages
//	qdbench -exp fig3       Figure 3 disjunctive microbenchmark
//	qdbench -exp fig4       Figure 4 data-overlap microbenchmark
//	qdbench -exp fig5a      Figure 5a TPC-H runtimes (Spark profile)
//	qdbench -exp fig5b      Figure 5b TPC-H runtimes (DBMS profile)
//	qdbench -exp fig6a      Figure 6a data-routing throughput
//	qdbench -exp fig6b      Figure 6b query-routing latency CDF
//	qdbench -exp fig7       Figure 7a/7b ErrorLog runtimes
//	qdbench -exp fig7c      Figure 7c per-query speedup CDF
//	qdbench -exp fig8       Figure 8 Woodblock learning curves
//	qdbench -exp fig9       Figure 9 cut interpretation
//	qdbench -exp robust     Sec. 7.4.1 train/test robustness
//	qdbench -exp buildtime  Sec. 7.6 layout construction time
//	qdbench -exp twotree    Sec. 6.3 two-tree replication benefit
//	qdbench -exp layout     plan one strategy (-strategy) via the registry
//	qdbench -exp all        everything above (except layout)
//
// Sizes are scaled down from the paper's 77–100M rows (see -rows); all
// skipping metrics are scale-free.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/qd"
)

type config struct {
	rows     int
	queries  int
	episodes int
	seed     int64
	hidden   int
	outDir   string
	strategy string
}

// experiment is one entry of the run table; inAll marks the ones
// -exp all runs, in table order.
type experiment struct {
	name  string
	run   func(config) error
	inAll bool
}

var experiments = []experiment{
	{"table2", expTable2, true},
	{"fig3", expFig3, true},
	{"fig4", expFig4, true},
	{"fig5a", func(c config) error { return expFig5(c, "spark") }, true},
	{"fig5b", func(c config) error { return expFig5(c, "dbms") }, true},
	{"fig6a", expFig6a, true},
	{"fig6b", expFig6b, true},
	{"fig7", expFig7, true},
	{"fig7c", expFig7c, true},
	{"fig8", expFig8, true},
	{"fig9", expFig9, true},
	{"robust", expRobust, true},
	{"buildtime", expBuildTime, true},
	{"twotree", expTwoTree, true},
	{"layout", expLayout, false},
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table2, fig3..fig9, robust, buildtime, twotree, layout, all)")
		rows     = flag.Int("rows", 100_000, "dataset rows (paper: 77M-100M)")
		queries  = flag.Int("queries", 300, "ErrorLog workload size (paper: 1000)")
		episodes = flag.Int("episodes", 48, "Woodblock episodes per run")
		hidden   = flag.Int("hidden", 64, "Woodblock hidden width (paper: 512)")
		seed     = flag.Int64("seed", 42, "master seed")
		outDir   = flag.String("out", "", "optional directory for block stores (default: temp)")
		strategy = flag.String("strategy", "greedy",
			fmt.Sprintf("layout strategy for -exp layout (%s)", strings.Join(qd.PlannerNames(), " | ")))
	)
	flag.Parse()
	cfg := config{rows: *rows, queries: *queries, episodes: *episodes, seed: *seed, hidden: *hidden, outDir: *outDir, strategy: *strategy}

	ran := false
	for _, e := range experiments {
		if *exp == e.name || (*exp == "all" && e.inAll) {
			if *exp == "all" {
				fmt.Printf("\n======== %s ========\n", e.name)
			}
			if err := e.run(cfg); err != nil {
				fmt.Fprintf(os.Stderr, "qdbench %s: %v\n", e.name, err)
				os.Exit(1)
			}
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "qdbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}
