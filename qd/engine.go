package qd

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/table"
)

// Engine binds everything query execution needs — a materialized block
// store, a plan's layout and advanced cuts, an engine profile, and
// execution options — at construction, so serving a query takes exactly
// one argument.
//
// The engine is also a Writer: Insert lands rows in an LSM-style delta
// (an in-memory memtable sealed into delta_*.qdb segments beside the
// block files), queries merge the delta with the base blocks, and Compact
// folds the delta into the layout, rewriting the store in place. A store
// reopened with OpenStore recovers any delta segments a previous process
// left behind, so inserted-and-flushed rows survive restarts.
//
// An Engine is safe for concurrent use. Close is idempotent: the first
// call waits for in-flight queries to drain, then releases the store's
// cached block handles; queries issued after Close fail.
type Engine struct {
	store  *BlockStore
	layout *Layout
	acs    []AdvCut
	prof   EngineProfile
	opt    ExecOptions
	tree   *Tree // routes Compact when the plan carried one

	// mu lets queries proceed concurrently (read lock held for the scan's
	// duration) while Close, WithMode, and Compact take the write lock —
	// so Close never yanks cached block handles from under an in-flight
	// scan, and Compact never rewrites blocks one is reading.
	mu     sync.RWMutex
	mode   ExecMode
	closed bool
	delta  *delta.Store // nil until the first Insert (or segment recovery)
}

// NewEngine binds a store, a plan, a profile, and execution options. The
// plan supplies the layout and the advanced-cut table; block pruning
// defaults to qd-tree routing (see WithMode). When the store was opened
// over a directory holding delta segments from a previous process, the
// engine recovers them so their rows are served immediately.
func NewEngine(store *BlockStore, plan *Plan, prof EngineProfile, opt ExecOptions) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("qd: engine needs a block store")
	}
	if plan == nil || plan.Layout == nil {
		return nil, fmt.Errorf("qd: engine needs a plan with a layout")
	}
	e := &Engine{store: store, layout: plan.Layout, acs: plan.ACs, prof: prof, opt: opt, tree: plan.Tree, mode: RouteQdTree}
	if len(store.Delta) > 0 {
		if err := e.openDeltaLocked(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// openDeltaLocked opens the engine's delta store beside the blocks,
// recovering any segments already on disk. Caller holds mu (or is the
// constructor).
func (e *Engine) openDeltaLocked() error {
	d, _, err := delta.Open(e.store.Schema, delta.Options{Dir: e.store.Dir})
	if err != nil {
		return err
	}
	e.delta = d
	return nil
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

// DeltaRows returns how many inserted rows await compaction.
func (e *Engine) DeltaRows() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.delta == nil {
		return 0
	}
	return e.delta.Rows()
}

// deltaView snapshots the uncompacted delta for a merged read; nil when
// the delta is empty. Caller holds at least mu.RLock.
func (e *Engine) deltaView() *exec.DeltaView {
	if e.delta == nil || e.delta.Rows() == 0 {
		return nil
	}
	return &exec.DeltaView{Tables: e.delta.Snapshot()}
}

// Insert appends rows to the engine's delta store. The rows are visible
// to queries immediately and durable once the memtable seals (or Flush is
// called); Compact folds them into the block layout. After Close, Insert
// returns ErrWriterClosed.
func (e *Engine) Insert(rows [][]int64) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrWriterClosed
	}
	if e.delta == nil {
		if err := e.openDeltaLocked(); err != nil {
			e.mu.Unlock()
			return err
		}
	}
	d := e.delta
	e.mu.Unlock()
	return d.Insert(rows)
}

// Flush seals the delta memtable to an on-disk segment, making every
// inserted row durable. It is idempotent; with nothing buffered it does
// nothing.
func (e *Engine) Flush() error {
	e.mu.RLock()
	d, closed := e.delta, e.closed
	e.mu.RUnlock()
	if closed {
		return ErrWriterClosed
	}
	if d == nil {
		return nil
	}
	return d.Flush()
}

// Compact folds every inserted row into the block layout, rewriting the
// store directory in place. Delta rows route through the plan's qd-tree
// when the engine has one (so they land in the leaves their values
// belong to); tree-less layouts append them as one new block. Queries
// block for the duration — for non-blocking compaction into fresh
// generations, serve with a Server instead.
//
// The rewrite is not crash-atomic: a crash between the store rewrite and
// the segment deletion re-serves the folded rows from both copies at the
// next OpenStore. The Server compactor's generation flip + marker
// protocol is the crash-safe path.
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrWriterClosed
	}
	if e.delta == nil || e.delta.Rows() == 0 {
		return nil
	}
	cp, err := e.delta.BeginCompaction()
	if err != nil {
		return err
	}

	// Rebuild the base table in block order; bids in the same order is
	// exactly the live assignment.
	total := 0
	for _, m := range e.store.Blocks {
		total += m.Rows
	}
	merged := table.New(e.store.Schema, total+cp.Rows)
	bids := make([]int, 0, total+cp.Rows)
	for b := range e.store.Blocks {
		blk, err := e.store.ReadBlock(b)
		if err != nil {
			return err
		}
		merged.Concat(blk)
		for i := 0; i < blk.N; i++ {
			bids = append(bids, b)
		}
	}
	for _, t := range cp.Tables() {
		merged.Concat(t)
	}

	var cand *Layout
	if e.tree != nil {
		cand = cost.FromTree(e.layout.Name, e.tree, merged)
	} else {
		nb := len(e.store.Blocks)
		for r := len(bids); r < merged.N; r++ {
			bids = append(bids, nb)
		}
		cand = cost.NewLayout(e.layout.Name, merged, bids, nb+1, e.acs)
	}

	// Drop cached handles before the files under them are rewritten.
	if err := e.store.Close(); err != nil {
		return err
	}
	store, err := blockstore.WriteOpts(e.store.Dir, merged, cand.BIDs, cand.NumBlocks(), StoreOptions{FormatVersion: e.store.Format})
	if err != nil {
		return fmt.Errorf("qd: compact rewrite of %s: %w", e.store.Dir, err)
	}
	e.store, e.layout = store, cand
	for _, p := range e.delta.Complete(cp) {
		os.Remove(p)
	}
	return nil
}

// Query executes one query over base ∪ delta.
func (e *Engine) Query(q Query) (ExecResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ExecResult{}, fmt.Errorf("qd: engine is closed")
	}
	return exec.RunDelta(e.store, e.layout, q, e.acs, e.prof, e.mode, e.opt, e.deltaView())
}

// WorkloadResult reports a workload executed query by query.
type WorkloadResult struct {
	Results      []ExecResult  // one per query, in workload order
	TotalSimTime time.Duration // Σ Results[i].SimTime
}

// Workload executes each query in order through Query. Each query sees
// the delta as of its own start, as AggregateWorkload does.
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
// group key, over base ∪ delta. The filter prunes blocks exactly like
// Query; aggregates evaluate over encoded columns with zone-map and RLE
// pushdown (see exec.RunAggDelta).
func (e *Engine) Aggregate(aq AggQuery) (*AggResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return nil, fmt.Errorf("qd: engine is closed")
	}
	return exec.RunAggDelta(e.store, e.layout, aq, e.acs, e.prof, e.mode, e.opt, e.deltaView())
}

// Select executes one row-returning statement (single-table row query
// or two-table equi-join) over base ∪ delta, returning the ordered
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
		return exec.RunJoinDelta(e.store, e.layout, *stmt.Join, e.acs, e.prof, e.mode, e.opt, e.deltaView())
	}
	if stmt.Row == nil {
		return nil, fmt.Errorf("qd: empty row statement")
	}
	return exec.RunRowsDelta(e.store, e.layout, *stmt.Row, e.acs, e.prof, e.mode, e.opt, e.deltaView())
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

// Close waits for in-flight queries to finish, seals and closes the
// delta store (buffered inserts become a durable segment recovered by the
// next OpenStore), releases the store's cached block-file handles, and
// marks the engine unusable. It is idempotent: later calls return nil
// without touching the store.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	var derr error
	if e.delta != nil {
		derr = e.delta.Close()
	}
	return errors.Join(derr, e.store.Close())
}
