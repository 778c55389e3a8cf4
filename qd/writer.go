package qd

// The unified write path. Three implementations share one Writer surface:
//
//   - BulkWriter: the offline path — buffer rows in memory, plan a layout
//     over the full table, materialize the store in one shot. Flush is a
//     no-op (there is nothing durable before Compact).
//   - Engine: the live path over an opened store — Insert lands rows in
//     an LSM-style delta (memtable + on-disk segments beside the blocks)
//     that queries merge with the base, and Compact folds the delta into
//     the layout in place.
//   - Server: the serving path — same delta semantics, but compaction
//     materializes a fresh generation and atomically flips CURRENT, so
//     concurrent queries never block (see internal/serve).

import (
	"errors"
	"fmt"

	"repro/internal/serve"
	"repro/internal/table"
)

// Writer is the unified write-path API: stream rows in, make them
// durable, fold them into the learned layout.
//
// Insert appends a batch of rows (one []int64 per row, one value per
// schema column; categorical values are dictionary codes). Inserted rows
// are immediately visible to queries on implementations that serve reads
// (Engine, Server). Flush forces buffered rows to durable storage without
// reorganizing anything. Compact folds everything inserted so far into
// the learned block layout, restoring block-skipping effectiveness.
//
// After Close (every implementation has one), all three methods fail with
// a named error — ErrWriterClosed for BulkWriter and Engine,
// ErrServerClosed for Server — instead of panicking or corrupting state.
type Writer interface {
	Insert(rows [][]int64) error
	Flush() error
	Compact() error
}

// ErrWriterClosed is returned by BulkWriter and Engine write-path methods
// after Close.
var ErrWriterClosed = errors.New("qd: writer is closed")

// ErrServerClosed is the Server-side equivalent: every Server method that
// needs the live generation returns it after Close.
var ErrServerClosed = serve.ErrClosed

// Writer conformance, checked at compile time.
var (
	_ Writer = (*BulkWriter)(nil)
	_ Writer = (*Engine)(nil)
	_ Writer = (*Server)(nil)
)

// BulkWriter is the offline bulk-load path behind the Writer API: rows
// accumulate in memory, and Compact plans a layout over everything
// inserted so far and materializes it under the writer's directory. It is
// the WriteStore + planner composition as a Writer, so load-then-serve
// and stream-then-serve code can share one code path.
//
// BulkWriter is not safe for concurrent use; it is a loading tool, not a
// serving surface.
type BulkWriter struct {
	dir      string
	planner  Planner
	popt     PlanOptions
	sopt     StoreOptions
	tbl      *Table
	queries  []Query
	acs      []AdvCut
	plan     *Plan
	store    *BlockStore
	closed   bool
	unsynced int // rows inserted since the last Compact
}

// NewBulkWriter prepares a bulk loader that will materialize its store
// under dir. The dataset seeds the schema, any initial rows, and the
// workload the layout is planned for; strategy names the registry planner
// Compact runs (the Strategy values accepted by Plan).
func NewBulkWriter(dir string, ds *Dataset, strategy string, popt PlanOptions, sopt ...StoreOptions) (*BulkWriter, error) {
	if ds == nil || ds.Table == nil {
		return nil, fmt.Errorf("qd: bulk writer needs a dataset with a table")
	}
	planner, err := NewPlanner(strategy)
	if err != nil {
		return nil, err
	}
	// Copy the seed rows so Insert never mutates the caller's table.
	tbl := table.New(ds.Table.Schema, ds.Table.N)
	tbl.Concat(ds.Table)
	w := &BulkWriter{
		dir:      dir,
		planner:  planner,
		popt:     popt,
		tbl:      tbl,
		queries:  ds.Queries,
		acs:      ds.ACs,
		unsynced: tbl.N,
	}
	if len(sopt) > 0 {
		w.sopt = sopt[0]
	}
	return w, nil
}

// Insert buffers rows in memory. They become durable at the next Compact.
func (w *BulkWriter) Insert(rows [][]int64) error {
	if w.closed {
		return ErrWriterClosed
	}
	ncols := w.tbl.Schema.NumCols()
	for i, r := range rows {
		if len(r) != ncols {
			return fmt.Errorf("qd: bulk insert row %d has %d values, schema has %d columns", i, len(r), ncols)
		}
	}
	for _, r := range rows {
		w.tbl.AppendRow(r)
	}
	w.unsynced += len(rows)
	return nil
}

// Flush is a no-op on the bulk path: rows only become durable when
// Compact plans and writes the store.
func (w *BulkWriter) Flush() error {
	if w.closed {
		return ErrWriterClosed
	}
	return nil
}

// Compact plans a layout over every row inserted so far and writes (or
// rewrites) the store directory. With nothing new since the last Compact
// it returns immediately.
func (w *BulkWriter) Compact() error {
	if w.closed {
		return ErrWriterClosed
	}
	if w.unsynced == 0 && w.store != nil {
		return nil
	}
	popt := w.popt
	if popt.MinBlockSize < 1 {
		popt.MinBlockSize = max(1, w.tbl.N/64)
	}
	plan, err := w.planner.Plan(NewDataset(nil, w.tbl).WithQueries(w.queries, w.acs), popt)
	if err != nil {
		return err
	}
	if w.store != nil {
		w.store.Close()
	}
	store, err := WriteStore(w.dir, w.tbl, plan.Layout, w.sopt)
	if err != nil {
		return err
	}
	w.plan, w.store, w.unsynced = plan, store, 0
	return nil
}

// Rows returns how many rows the writer holds (durable or not).
func (w *BulkWriter) Rows() int { return w.tbl.N }

// Plan returns the plan of the last Compact (nil before the first).
func (w *BulkWriter) Plan() *Plan { return w.plan }

// Store returns the store the last Compact materialized (nil before the
// first).
func (w *BulkWriter) Store() *BlockStore { return w.store }

// Close releases the materialized store's handles and marks the writer
// closed; it is idempotent. Rows inserted after the last Compact are
// discarded — call Compact first to keep them.
func (w *BulkWriter) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if w.store != nil {
		return w.store.Close()
	}
	return nil
}
