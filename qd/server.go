package qd

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/delta"
	"repro/internal/expr"
	"repro/internal/serve"
	"repro/internal/table"
)

// Serving re-exports. The serve subsystem closes the loop the paper
// leaves offline: observe live queries, detect that the deployed layout
// has drifted away from the workload, replan in the background, and
// hot-swap the new layout with zero failed queries.
type (
	// Server is the online serving handle: concurrent queries execute
	// against the live layout generation while a background drift monitor
	// replans the logged workload window and swaps improved generations in.
	Server = serve.Server
	// ServerStats is a point-in-time snapshot of the serving counters.
	ServerStats = serve.Stats
	// DriftReport is the outcome of one drift-check cycle.
	DriftReport = serve.Report
	// Statement is one parsed SQL statement of any kind — what
	// Server.ParseStatement returns and Server.Execute runs; set exactly
	// one of Filter, Agg, Row or Join to build one by hand.
	Statement = expr.Statement
	// ServerResult is one served query's scan stats plus the generation
	// that served it.
	ServerResult = serve.QueryResult
	// ServerAggResult is one served aggregation's typed rows and stats
	// plus the generation that served it.
	ServerAggResult = serve.SelectResult
	// WorkloadLogEntry is one logged query execution.
	WorkloadLogEntry = serve.Entry
	// CompactReport is the outcome of one delta-compaction cycle (see
	// Server.Compact / Server.RunCompaction).
	CompactReport = serve.CompactReport
)

// ErrServerClosed is returned by every Server method that needs the live
// generation (Insert, Flush, Compact and the query path among them) after
// Close.
var ErrServerClosed = serve.ErrClosed

// ErrSchemaMismatch is wrapped by Server.Insert (and InitServing) when a
// row does not fit the schema: wrong width, a categorical code outside
// the dictionary, or a value above MaxValue.
var ErrSchemaMismatch = delta.ErrSchemaMismatch

// MaxValue is the largest value a column may hold.
const MaxValue = table.MaxValue

// ServeOptions configure NewServer. The zero value serves with the greedy
// replanner and drift gates of 16 logged queries / 10% improvement; only
// Strategy-specific planning knobs usually need setting. A server routes
// every statement through the layout's tree and reads only the columns
// it references, in place from read-only mappings of the block files.
type ServeOptions struct {
	// Strategy names the registry planner used for background replans
	// (default "greedy"). Tree-producing strategies are recommended — the
	// replanned layout routes queries through frozen leaf descriptions.
	Strategy string
	// Plan configures each background replan. MinBlockSize 0 defaults to
	// table rows / 64 at replan time.
	Plan PlanOptions
	// ACs is the advanced-cut table served queries may reference.
	ACs []AdvCut
	// Exec sets the scan worker pool (Parallelism).
	Exec ExecOptions
	// LogCapacity / WindowSize / MinWindow / MinImprovement /
	// CheckInterval / KeepGenerations tune the workload log and drift
	// monitor; see serve.Config for semantics and defaults.
	// MinImprovement 0 selects the default of 0.10; negative means swap
	// on any improvement.
	LogCapacity     int
	WindowSize      int
	MinWindow       int
	MinImprovement  float64
	CheckInterval   time.Duration
	KeepGenerations int
	// MemtableRows / CompactRows / CompactInterval tune the streaming
	// ingest path: the memtable seals into an on-disk delta segment at
	// MemtableRows, and the background compactor folds the delta into a
	// fresh generation once it holds CompactRows rows, checking every
	// CompactInterval (0 disables background compaction; Compact still
	// works on demand). See serve.Config for defaults.
	MemtableRows    int
	CompactRows     int
	CompactInterval time.Duration
	// ShardLabel names this server's shard when it runs as one store node
	// of a cluster (reported in Stats and the cluster summary); empty for
	// a standalone server.
	ShardLabel string
	// SlowQuery is the slow-query latency threshold (default 250ms;
	// negative disables slow-query accounting).
	SlowQuery time.Duration
	// Metrics is the registry behind GET /metrics (nil = the server makes
	// its own; pass a shared registry to co-host several servers).
	Metrics *MetricsRegistry
	// TraceRingSize bounds the recent/slow trace rings behind
	// GET /debug/traces.
	TraceRingSize int
}

// InitServing bootstraps a generation root from a planned layout: the
// plan's blocks become generation 1 and CURRENT points at it. The root is
// then servable by NewServer (and by cmd/qdserve).
func InitServing(root string, tbl *Table, plan *Plan) error {
	if plan == nil || plan.Layout == nil {
		return fmt.Errorf("qd: InitServing needs a plan with a layout")
	}
	return serve.Init(root, tbl, plan.Layout)
}

// NewServer opens the live generation under root and starts serving, with
// background replans driven by the named registry strategy.
func NewServer(root string, opt ServeOptions) (*Server, error) {
	strategy := opt.Strategy
	if strategy == "" {
		strategy = "greedy"
	}
	planner, err := NewPlanner(strategy)
	if err != nil {
		return nil, err
	}
	replan := func(tbl *Table, acs []AdvCut, window []Query) (*Layout, error) {
		popt := opt.Plan
		if popt.MinBlockSize < 1 {
			popt.MinBlockSize = max(1, tbl.N/64)
		}
		plan, err := planner.Plan(NewDataset(nil, tbl).WithQueries(window, acs), popt)
		if err != nil {
			return nil, err
		}
		return plan.Layout, nil
	}
	return serve.New(root, serve.Config{
		ExecOptions:     opt.Exec,
		ACs:             opt.ACs,
		LogCapacity:     opt.LogCapacity,
		WindowSize:      opt.WindowSize,
		MinWindow:       opt.MinWindow,
		MinImprovement:  opt.MinImprovement,
		CheckInterval:   opt.CheckInterval,
		KeepGenerations: opt.KeepGenerations,
		MemtableRows:    opt.MemtableRows,
		CompactRows:     opt.CompactRows,
		CompactInterval: opt.CompactInterval,
		ShardLabel:      opt.ShardLabel,
		SlowQuery:       opt.SlowQuery,
		Metrics:         opt.Metrics,
		TraceRingSize:   opt.TraceRingSize,
		Replan:          replan,
	})
}

// ServerHandler mounts a Server's HTTP/JSON API (POST /query, GET /stats,
// POST /relayout, GET /healthz) — the surface cmd/qdserve exposes.
func ServerHandler(s *Server) http.Handler { return serve.Handler(s) }
