package qd

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
)

// Engine binds everything simulated query execution needs — a
// materialized block store, a plan's layout and advanced cuts, an engine
// profile, a pruning mode, and execution options — at construction, so
// serving a query takes exactly one argument. It never writes the store,
// and each result carries the profile's modeled SimTime. Live ingest and
// compaction are a Server's (see NewServer).
//
// An Engine is safe for concurrent use. Close is idempotent: the first
// call waits for in-flight queries to drain, then unmaps the store's
// block files; queries issued after Close fail.
type Engine struct {
	store  *BlockStore
	layout *Layout
	acs    []AdvCut
	prof   EngineProfile
	opt    ExecOptions

	// mu lets queries proceed concurrently (read lock held for the scan's
	// duration) while Close and WithMode take the write lock, so Close
	// never unmaps a block file under an in-flight scan.
	mu     sync.RWMutex
	mode   ExecMode
	closed bool
}

// NewEngine binds a store, a plan, a profile, and execution options. The
// plan supplies the layout and the advanced-cut table; block pruning
// defaults to qd-tree routing (see WithMode).
func NewEngine(store *BlockStore, plan *Plan, prof EngineProfile, opt ExecOptions) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("qd: engine needs a block store")
	}
	if plan == nil || plan.Layout == nil {
		return nil, fmt.Errorf("qd: engine needs a plan with a layout")
	}
	return &Engine{store: store, layout: plan.Layout, acs: plan.ACs, prof: prof, opt: opt, mode: RouteQdTree}, nil
}

// WithMode selects the block-pruning mode (RouteQdTree or NoRoute) and
// returns the engine for chaining.
func (e *Engine) WithMode(mode ExecMode) *Engine {
	e.mu.Lock()
	e.mode = mode
	e.mu.Unlock()
	return e
}

// Layout returns the layout the engine serves.
func (e *Engine) Layout() *Layout { return e.layout }

// Store returns the underlying block store.
func (e *Engine) Store() *BlockStore { return e.store }

// Query executes one filter query.
func (e *Engine) Query(q Query) (ExecResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ExecResult{}, fmt.Errorf("qd: engine is closed")
	}
	return exec.RunDelta(e.store, e.layout, q, e.acs, e.prof, e.mode, e.opt, nil)
}

// WorkloadResult reports a workload executed query by query.
type WorkloadResult struct {
	Results      []ExecResult  // one per query, in workload order
	TotalSimTime time.Duration // Σ Results[i].SimTime
}

// Workload executes each query in order through Query.
func (e *Engine) Workload(w []Query) (*WorkloadResult, error) {
	out := &WorkloadResult{Results: make([]ExecResult, len(w))}
	for i, q := range w {
		res, err := e.Query(q)
		if err != nil {
			return nil, fmt.Errorf("qd: query %q: %w", q.Name, err)
		}
		out.Results[i] = res
		out.TotalSimTime += res.SimTime
	}
	return out, nil
}

// Aggregate executes one aggregation statement (SELECT <aggs> FROM t
// [WHERE ...] [GROUP BY ...]) and returns typed result rows sorted by
// group key. The filter prunes blocks exactly like
// Query; aggregates evaluate over encoded columns with zone-map and RLE
// pushdown (see exec.RunAggDelta).
func (e *Engine) Aggregate(aq AggQuery) (*AggResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, fmt.Errorf("qd: engine is closed")
	}
	return exec.RunAggDelta(e.store, e.layout, aq, e.acs, e.prof, e.mode, e.opt, nil)
}

// Select executes one row-returning statement (single-table row query
// or two-table equi-join), returning the ordered
// output tuples. The deterministic comparator (ORDER BY keys, then the
// full tuple) makes the emitted rows bit-identical across execution
// options; see exec.RunRowsDelta and exec.RunJoinDelta.
func (e *Engine) Select(stmt RowStmt) (*RowsResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, fmt.Errorf("qd: engine is closed")
	}
	if stmt.Join != nil {
		return exec.RunJoinDelta(e.store, e.layout, *stmt.Join, e.acs, e.prof, e.mode, e.opt, nil)
	}
	if stmt.Row == nil {
		return nil, fmt.Errorf("qd: empty row statement")
	}
	return exec.RunRowsDelta(e.store, e.layout, *stmt.Row, e.acs, e.prof, e.mode, e.opt, nil)
}

// AggregateWorkload executes each aggregation statement in order,
// returning per-statement results.
func (e *Engine) AggregateWorkload(w []AggQuery) ([]*AggResult, error) {
	out := make([]*AggResult, len(w))
	for i, aq := range w {
		res, err := e.Aggregate(aq)
		if err != nil {
			return nil, fmt.Errorf("qd: aggregate %q: %w", aq.Name, err)
		}
		out[i] = res
	}
	return out, nil
}

// Close waits for in-flight queries to finish, unmaps the store's block
// files, and marks the engine unusable. It is
// idempotent: later calls return nil without touching the store.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	return e.store.Close()
}
