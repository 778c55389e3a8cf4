package qd

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/baselines"
	"repro/internal/bottomup"
	"repro/internal/cost"
	"repro/internal/greedy"
	"repro/internal/overlap"
	"repro/internal/replicate"
	"repro/internal/rl"
)

// Criterion selects the greedy split-scoring rule.
type Criterion = greedy.Criterion

// Greedy split criteria: the paper's ΔC rule and the decision-tree-style
// information-gain ablation.
const (
	DeltaSkip = greedy.DeltaSkip
	InfoGain  = greedy.InfoGain
)

// PlanOptions configure layout planning. The core fields apply to every
// planner; the remaining fields are honored by the planners named in their
// comments and ignored by the rest.
type PlanOptions struct {
	// MinBlockSize is b: the minimum rows per block, in full-table rows
	// (paper: 100K for TPC-H, 50K for ErrorLog).
	MinBlockSize int
	// SampleRate < 1 builds on a uniform sample (Sec. 5.2.1 recommends
	// 0.1%–1%); b is scaled accordingly. 0 or >= 1 uses the full table.
	// Planners that cannot build on a sample (bottomup, overlap, twotree,
	// random, range) reject a SampleRate instead of silently ignoring it.
	SampleRate float64
	// Cuts overrides the candidate cut set; nil extracts it from the
	// dataset's workload.
	Cuts []Cut
	// MaxLeaves caps the leaf count (0 = unlimited).
	MaxLeaves int
	// Seed drives sampling, the Woodblock agent, and the random baseline.
	Seed int64

	// Criterion selects the greedy split rule (greedy, overlap, twotree).
	Criterion Criterion

	// SelectivityCap enables the BU+ tuning of the bottomup planner:
	// features whose match fraction exceeds the cap are discarded
	// (paper: 0.10). 0 disables the tuning.
	SelectivityCap float64

	// Woodblock (deep-RL) controls.
	Hidden      int           // network width (paper: 512; default 128)
	MaxEpisodes int           // trees to attempt (default 64)
	TimeBudget  time.Duration // optional wall-clock budget
	// OnEpisode observes the learning curve (Fig. 8).
	OnEpisode func(episode int, elapsed time.Duration, ratio, best float64)

	// NumBlocks fixes the block count of the random and range planners;
	// 0 derives it as Table.N / MinBlockSize.
	NumBlocks int
	// RangeColumn is the partition column of the range planner.
	RangeColumn int
}

// prepare resolves the sampling and cut extraction shared by the
// planners: the table to build on, b scaled to it, and the candidate cuts.
func (o PlanOptions) prepare(tbl *Table, queries []Query) (*Table, int, []Cut, error) {
	if o.MinBlockSize < 1 {
		return nil, 0, nil, fmt.Errorf("qd: MinBlockSize must be >= 1")
	}
	cuts := o.Cuts
	if cuts == nil {
		cuts = ExtractCuts(queries)
	}
	if len(cuts) == 0 {
		return nil, 0, nil, fmt.Errorf("qd: no candidate cuts (empty workload?)")
	}
	build := tbl
	b := o.MinBlockSize
	if o.SampleRate > 0 && o.SampleRate < 1 {
		rng := rand.New(rand.NewSource(o.Seed))
		build = tbl.Sample(o.SampleRate, 1000, rng)
		scaled := int(float64(o.MinBlockSize) * float64(build.N) / float64(tbl.N))
		if scaled < 1 {
			scaled = 1
		}
		b = scaled
	}
	return build, b, cuts, nil
}

// rejectSample errors when a sample rate is set for a planner that would
// otherwise silently build on the full table.
func (o PlanOptions) rejectSample(strategy string) error {
	if o.SampleRate > 0 && o.SampleRate < 1 {
		return fmt.Errorf("qd: the %s planner cannot build on a sample; set SampleRate to 0 or pre-sample the table", strategy)
	}
	return nil
}

// blockCount resolves the explicit or derived block count for the
// baseline planners.
func (o PlanOptions) blockCount(n int, strategy string) (int, error) {
	if o.NumBlocks > 0 {
		return o.NumBlocks, nil
	}
	if o.MinBlockSize < 1 {
		return 0, fmt.Errorf("qd: the %s planner needs NumBlocks or MinBlockSize", strategy)
	}
	nb := n / o.MinBlockSize
	if nb < 1 {
		nb = 1
	}
	return nb, nil
}

// Plan is a deployable layout plus the strategy metadata that produced
// it. Layout is always non-nil for a successful plan; the remaining
// fields are populated per strategy.
type Plan struct {
	// Strategy is the registry name of the planner that produced the plan.
	Strategy string
	// Layout is the materializable row→block partitioning. For the
	// twotree strategy it is T1's layout; for overlap it is the plain
	// (pre-replication) layout of the relaxed tree.
	Layout *Layout
	// Tree is the qd-tree behind the layout; nil for the tree-less
	// planners (bottomup, random, range).
	Tree *Tree
	// ACs is the advanced-cut table of the dataset the plan was built
	// for; NewEngine binds it so query execution needs no extra inputs.
	ACs []AdvCut
	// Queries is the workload the plan was optimized for.
	Queries []Query
	// RL reports the Woodblock run (best tree + learning curve).
	RL *RLResult
	// Features are the cuts selected by the bottomup planner.
	Features []Cut
	// Overlap is the multi-assignment layout of the overlap planner.
	Overlap *OverlapLayout
	// TwoTree is the replicated deployment of the twotree planner.
	TwoTree *TwoTree
	// Elapsed is the wall-clock planning time.
	Elapsed time.Duration
}

// AccessedFraction reports the fraction of tuples the plan's layout scans
// for the workload it was planned on (w == nil) or any other workload.
func (p *Plan) AccessedFraction(w []Query) float64 {
	if w == nil {
		w = p.Queries
	}
	return p.Layout.AccessedFraction(w)
}

// Planner turns a dataset into a deployable Plan. Implementations are
// stateless values; configuration lives in PlanOptions.
type Planner interface {
	Plan(ds *Dataset, opt PlanOptions) (*Plan, error)
}

// --- strategy registry ---

var (
	plannerMu      sync.RWMutex
	plannerFactory = map[string]func() Planner{}
	plannerAlias   = map[string]string{}
)

// RegisterPlanner adds a strategy under the given canonical name,
// replacing any previous registration. Commands resolve their -strategy
// flag through this registry, so external packages can plug in new layout
// strategies without touching the CLIs.
func RegisterPlanner(name string, factory func() Planner) {
	plannerMu.Lock()
	defer plannerMu.Unlock()
	plannerFactory[name] = factory
}

// RegisterPlannerAlias makes alias resolve to the canonical name in
// NewPlanner without appearing in PlannerNames.
func RegisterPlannerAlias(alias, canonical string) {
	plannerMu.Lock()
	defer plannerMu.Unlock()
	plannerAlias[alias] = canonical
}

// NewPlanner resolves a strategy name (or alias) to a Planner.
func NewPlanner(name string) (Planner, error) {
	plannerMu.RLock()
	defer plannerMu.RUnlock()
	key := name
	if canon, ok := plannerAlias[key]; ok {
		key = canon
	}
	if f, ok := plannerFactory[key]; ok {
		return f(), nil
	}
	return nil, fmt.Errorf("qd: unknown strategy %q (have %v)", name, plannerNamesLocked())
}

// PlannerNames lists the registered canonical strategy names, sorted.
func PlannerNames() []string {
	plannerMu.RLock()
	defer plannerMu.RUnlock()
	return plannerNamesLocked()
}

func plannerNamesLocked() []string {
	names := make([]string, 0, len(plannerFactory))
	for n := range plannerFactory {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	RegisterPlanner("greedy", func() Planner { return GreedyPlanner{} })
	RegisterPlanner("woodblock", func() Planner { return WoodblockPlanner{} })
	RegisterPlanner("bottomup", func() Planner { return BottomUpPlanner{} })
	RegisterPlanner("random", func() Planner { return RandomPlanner{} })
	RegisterPlanner("range", func() Planner { return RangePlanner{} })
	RegisterPlanner("overlap", func() Planner { return OverlapPlanner{} })
	RegisterPlanner("twotree", func() Planner { return TwoTreePlanner{} })
	RegisterPlannerAlias("rl", "woodblock")
	RegisterPlannerAlias("bu", "bottomup")
}

// newPlan stamps the fields every strategy shares.
func newPlan(strategy string, ds *Dataset, layout *Layout, start time.Time) *Plan {
	return &Plan{
		Strategy: strategy,
		Layout:   layout,
		ACs:      ds.ACs,
		Queries:  ds.Queries,
		Elapsed:  time.Since(start),
	}
}

// GreedyPlanner constructs a qd-tree with Algorithm 1 (Sec. 4).
type GreedyPlanner struct{}

func (GreedyPlanner) Plan(ds *Dataset, opt PlanOptions) (*Plan, error) {
	start := time.Now()
	if err := ds.check(); err != nil {
		return nil, err
	}
	build, b, cuts, err := opt.prepare(ds.Table, ds.Queries)
	if err != nil {
		return nil, err
	}
	tree, err := greedy.Build(build, ds.ACs, greedy.Options{
		MinSize:   b,
		Cuts:      cuts,
		Queries:   ds.Queries,
		MaxLeaves: opt.MaxLeaves,
		Criterion: opt.Criterion,
	})
	if err != nil {
		return nil, err
	}
	p := newPlan("greedy", ds, cost.FromTree("greedy", tree, ds.Table), start)
	p.Tree = tree
	return p, nil
}

// WoodblockPlanner trains the deep-RL agent of Sec. 5 and deploys the
// best tree found.
type WoodblockPlanner struct{}

func (WoodblockPlanner) Plan(ds *Dataset, opt PlanOptions) (*Plan, error) {
	start := time.Now()
	if err := ds.check(); err != nil {
		return nil, err
	}
	build, b, cuts, err := opt.prepare(ds.Table, ds.Queries)
	if err != nil {
		return nil, err
	}
	res, err := rl.Build(build, ds.ACs, rl.Options{
		MinSize:     b,
		Cuts:        cuts,
		Queries:     ds.Queries,
		Hidden:      opt.Hidden,
		MaxEpisodes: opt.MaxEpisodes,
		TimeBudget:  opt.TimeBudget,
		MaxLeaves:   opt.MaxLeaves,
		Seed:        opt.Seed,
		OnEpisode:   opt.OnEpisode,
	})
	if err != nil {
		return nil, err
	}
	p := newPlan("woodblock", ds, cost.FromTree("woodblock", res.Tree, ds.Table), start)
	p.Tree = res.Tree
	p.RL = res
	return p, nil
}

// BottomUpPlanner runs the Sun et al. baseline (Sec. 2.2.2). Set
// PlanOptions.SelectivityCap to ~0.10 for the paper's tuned BU+.
type BottomUpPlanner struct{}

func (BottomUpPlanner) Plan(ds *Dataset, opt PlanOptions) (*Plan, error) {
	if err := ds.check(); err != nil {
		return nil, err
	}
	if err := opt.rejectSample("bottomup"); err != nil {
		return nil, err
	}
	_, _, cuts, err := opt.prepare(ds.Table, ds.Queries)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := bottomup.Build(ds.Table, ds.ACs, bottomup.Options{
		MinSize:        opt.MinBlockSize,
		Cuts:           cuts,
		Queries:        ds.Queries,
		SelectivityCap: opt.SelectivityCap,
	})
	if err != nil {
		return nil, err
	}
	p := newPlan("bottomup", ds, res.Layout, start)
	p.Features = res.Features
	return p, nil
}

// RandomPlanner shuffles rows into fixed-size blocks (the TPC-H
// baseline). It ignores the workload except for advanced-cut metadata.
type RandomPlanner struct{}

func (RandomPlanner) Plan(ds *Dataset, opt PlanOptions) (*Plan, error) {
	if err := ds.check(); err != nil {
		return nil, err
	}
	if err := opt.rejectSample("random"); err != nil {
		return nil, err
	}
	nb, err := opt.blockCount(ds.Table.N, "random")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	lay, err := baselines.Random(ds.Table, nb, ds.ACs, opt.Seed)
	if err != nil {
		return nil, err
	}
	return newPlan("random", ds, lay, start), nil
}

// RangePlanner range-partitions on PlanOptions.RangeColumn (the ErrorLog
// ingest-order baseline).
type RangePlanner struct{}

func (RangePlanner) Plan(ds *Dataset, opt PlanOptions) (*Plan, error) {
	if err := ds.check(); err != nil {
		return nil, err
	}
	if err := opt.rejectSample("range"); err != nil {
		return nil, err
	}
	nb, err := opt.blockCount(ds.Table.N, "range")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	lay, err := baselines.Range(ds.Table, opt.RangeColumn, nb, ds.ACs)
	if err != nil {
		return nil, err
	}
	return newPlan("range", ds, lay, start), nil
}

// OverlapPlanner constructs a data-overlap layout (Sec. 6.2): relaxed
// cuts plus small-leaf replication. Plan.Overlap holds the
// multi-assignment layout; Plan.Layout is the plain single-assignment
// routing of the same relaxed tree.
type OverlapPlanner struct{}

func (OverlapPlanner) Plan(ds *Dataset, opt PlanOptions) (*Plan, error) {
	start := time.Now()
	if err := ds.check(); err != nil {
		return nil, err
	}
	if err := opt.rejectSample("overlap"); err != nil {
		return nil, err
	}
	_, b, cuts, err := opt.prepare(ds.Table, ds.Queries)
	if err != nil {
		return nil, err
	}
	lay, err := overlap.Build(ds.Table, ds.ACs, overlap.Options{
		MinSize: b, Cuts: cuts, Queries: ds.Queries, MaxLeaves: opt.MaxLeaves})
	if err != nil {
		return nil, err
	}
	p := newPlan("overlap", ds, cost.FromTree("overlap", lay.Tree, ds.Table), start)
	p.Tree = lay.Tree
	p.Overlap = lay
	return p, nil
}

// TwoTreePlanner constructs the two-tree replication deployment
// (Sec. 6.3). Plan.TwoTree holds both trees; Plan.Layout is T1's layout.
type TwoTreePlanner struct{}

func (TwoTreePlanner) Plan(ds *Dataset, opt PlanOptions) (*Plan, error) {
	if err := ds.check(); err != nil {
		return nil, err
	}
	if err := opt.rejectSample("twotree"); err != nil {
		return nil, err
	}
	_, _, cuts, err := opt.prepare(ds.Table, ds.Queries)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	tt, err := replicate.Build(ds.Table, ds.ACs, replicate.Options{
		MinSize: opt.MinBlockSize, Cuts: cuts, Queries: ds.Queries, MaxLeaves: opt.MaxLeaves})
	if err != nil {
		return nil, err
	}
	p := newPlan("twotree", ds, tt.L1, start)
	p.Tree = tt.T1
	p.TwoTree = tt
	return p, nil
}
