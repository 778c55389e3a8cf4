package main

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/workload"
	"repro/qd"
)

// toCuts converts workload candidate cuts into facade cuts.
func toCuts(ps []workload.Pred2Cut) []qd.Cut {
	out := make([]qd.Cut, len(ps))
	for i, p := range ps {
		if p.IsAdv {
			out[i] = qd.AdvancedCut(p.Adv)
		} else {
			out[i] = qd.UnaryCut(p.Pred)
		}
	}
	return out
}

// dataset wraps a generated workload spec as a qd.Dataset.
func dataset(spec *workload.Spec) *qd.Dataset {
	return qd.NewDataset(spec.Table.Schema, spec.Table).WithQueries(spec.Queries, spec.ACs)
}

// planWith resolves a strategy through the planner registry and plans the
// dataset with it — the single path every experiment builds layouts
// through.
func planWith(strategy string, ds *qd.Dataset, opt qd.PlanOptions) (*qd.Plan, error) {
	planner, err := qd.NewPlanner(strategy)
	if err != nil {
		return nil, err
	}
	return planner.Plan(ds, opt)
}

// layouts bundles the five approaches of Sec. 7.3 for one workload.
type layoutSet struct {
	spec     *workload.Spec
	ds       *qd.Dataset
	baseline *qd.Layout
	bu       *qd.Layout // untuned Bottom-Up
	buPlus   *qd.Layout
	greedy   *qd.Layout
	rlLayout *qd.Layout
	rlResult *qd.RLResult
	times    map[string]time.Duration
}

// buildAll constructs every layout for a spec via the planner registry.
// b is the min block size; rangeCol < 0 selects the random baseline
// (TPC-H), otherwise range partitioning on that column (ErrorLog).
func buildAll(spec *workload.Spec, b int, rangeCol int, cfg config) (*layoutSet, error) {
	ds := dataset(spec)
	base := qd.PlanOptions{MinBlockSize: b, Cuts: toCuts(spec.Cuts)}
	ls := &layoutSet{spec: spec, ds: ds, times: make(map[string]time.Duration)}

	gPlan, err := planWith("greedy", ds, base)
	if err != nil {
		return nil, fmt.Errorf("greedy: %w", err)
	}
	ls.greedy = gPlan.Layout
	ls.times["greedy"] = gPlan.Elapsed
	numBlocks := ls.greedy.NumBlocks()
	if numBlocks < 1 {
		numBlocks = 1
	}

	// Baseline with a comparable number of blocks (Sec. 7.1).
	baselineStrategy := "random"
	if rangeCol >= 0 {
		baselineStrategy = "range"
	}
	basePlan, err := planWith(baselineStrategy, ds, qd.PlanOptions{
		NumBlocks: numBlocks, Seed: cfg.seed, RangeColumn: rangeCol})
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	ls.baseline = basePlan.Layout

	buPlan, err := planWith("bottomup", ds, base)
	if err != nil {
		return nil, fmt.Errorf("bottom-up: %w", err)
	}
	ls.times["bottom-up"] = buPlan.Elapsed
	ls.bu = buPlan.Layout

	buPlusOpt := base
	buPlusOpt.SelectivityCap = 0.10
	buPlusPlan, err := planWith("bottomup", ds, buPlusOpt)
	if err != nil {
		return nil, fmt.Errorf("BU+: %w", err)
	}
	ls.buPlus = buPlusPlan.Layout

	rlOpt := base
	rlOpt.Hidden = cfg.hidden
	rlOpt.MaxEpisodes = cfg.episodes
	rlOpt.Seed = cfg.seed
	rlPlan, err := planWith("woodblock", ds, rlOpt)
	if err != nil {
		return nil, fmt.Errorf("woodblock: %w", err)
	}
	ls.times["woodblock"] = rlPlan.Elapsed
	ls.rlResult = rlPlan.RL
	ls.rlLayout = rlPlan.Layout
	return ls, nil
}

// pct formats an access fraction the way Table 2 does.
func pct(f float64) string {
	switch {
	case f >= 0.10:
		return fmt.Sprintf("%.0f%%", f*100)
	case f >= 0.01:
		return fmt.Sprintf("%.1f%%", f*100)
	default:
		return fmt.Sprintf("%.2g%%", f*100)
	}
}

// meanSim returns the mean of a duration slice.
func meanSim(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// groupByTemplate splits TPC-H query results by template id (name "q<t>#<k>").
func groupByTemplate(queries []qd.Query, vals []time.Duration) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for i, q := range queries {
		name := q.Name
		if j := strings.IndexByte(name, '#'); j >= 0 {
			name = name[:j]
		}
		out[name] = append(out[name], vals[i])
	}
	return out
}

// sortedTemplates returns template keys in numeric order (q1, q3, ...).
func sortedTemplates(m map[string][]time.Duration) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		var a, b int
		fmt.Sscanf(keys[i], "q%d", &a)
		fmt.Sscanf(keys[j], "q%d", &b)
		return a < b
	})
	return keys
}

// tempDir resolves the block-store directory.
func tempDir(cfg config, name string) (string, func(), error) {
	if cfg.outDir != "" {
		dir := cfg.outDir + "/" + name
		return dir, func() {}, os.MkdirAll(dir, 0o755)
	}
	dir, err := os.MkdirTemp("", "qdbench-"+name+"-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// planBottomUp plans a Bottom-Up layout with the given selectivity cap
// (0.10 = the paper's BU+ tuning).
func planBottomUp(spec *workload.Spec, b int, cap float64) (*qd.Plan, error) {
	return planWith("bottomup", dataset(spec), qd.PlanOptions{
		MinBlockSize: b, Cuts: toCuts(spec.Cuts), SelectivityCap: cap})
}
