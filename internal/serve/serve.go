package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/greedy"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// ErrClosed is returned by operations on a closed Server.
var ErrClosed = errors.New("serve: server is closed")

// ReplanFunc plans a fresh layout for the logged query window over the
// served table. The returned layout's BIDs must assign every row of tbl.
// Repeated queries in the window are intentional: a query executed often
// weighs proportionally more in the replan, exactly as frequency weights
// the paper's workload cost (Eq. 1).
type ReplanFunc func(tbl *table.Table, acs []expr.AdvCut, window []expr.Query) (*cost.Layout, error)

// Config tunes a Server. The zero value of every field except Replan is
// usable; New fills defaults. A server always routes through the layout's
// tree and reads only the columns a statement references (see
// Server.Execute).
type Config struct {
	// ExecOptions sets the scan worker pool (Parallelism); Execute sets
	// its Trace per statement.
	ExecOptions exec.Options
	// ACs is the advanced-cut table queries may reference. Queries that
	// reference cuts beyond it are rejected (the layout's descriptions
	// carry no metadata for them).
	ACs []expr.AdvCut
	// LogCapacity bounds the sliding workload log (default 1024).
	LogCapacity int
	// WindowSize is how many logged queries a drift check replans
	// (default: LogCapacity; an explicit value larger than LogCapacity
	// grows the log to hold it).
	WindowSize int
	// MinWindow is the minimum logged-query count before the background
	// monitor replans at all (default 16). Forced relayouts ignore it.
	MinWindow int
	// MinImprovement is the relative estimated-cost reduction a candidate
	// must offer before the monitor swaps it in. 0 selects the default of
	// 0.10 (10%); a negative value means swap on any improvement at all.
	MinImprovement float64
	// CheckInterval is the background drift-monitor period; 0 disables the
	// monitor (drift checks then happen only via Relayout).
	CheckInterval time.Duration
	// KeepGenerations is how many retired generations survive GC after a
	// swap (default 0: only the live generation is kept on disk).
	KeepGenerations int
	// StoreWrite selects the block format of rewritten generations. The
	// zero value emits format v2 (per-column encodings), so every online
	// re-layout also migrates the table to the compressed format — a v1
	// store becomes v2 at its first swap with no downtime.
	StoreWrite blockstore.WriteOptions
	// MemtableRows seals the ingest memtable into an on-disk delta
	// segment at this row count (default delta.DefaultMemtableRows).
	MemtableRows int
	// CompactRows is the uncompacted delta size past which the background
	// compactor folds the delta into a fresh generation (default 65536).
	// Forced compactions (Compact, POST /compact) ignore it.
	CompactRows int
	// CompactInterval is the background compactor's check period; 0
	// disables it (compactions then happen only via Compact /
	// RunCompaction).
	CompactInterval time.Duration
	// ShardLabel names this server's role in a cluster (e.g. "shard-2").
	// Empty for standalone servers; when set it is reported in Stats and
	// Summary so cluster-level observability can attribute per-shard work.
	ShardLabel string
	// SlowQuery is the latency threshold past which a query is counted in
	// Stats.SlowQueries and copied into the slow half of the trace ring
	// (default 250ms; negative disables slow-query accounting).
	SlowQuery time.Duration
	// Metrics is the registry /metrics scrapes. Nil gets the server its
	// own registry; pass one in to co-host several servers' metrics.
	Metrics *obs.Registry
	// TraceRingSize bounds the recent and slow trace rings behind
	// GET /debug/traces (default obs.DefaultTraceRingSize).
	TraceRingSize int
	// Replan plans the candidate layout for a window. Required; see
	// GreedyReplan for the default strategy.
	Replan ReplanFunc
}

func (c *Config) fillDefaults() {
	if c.LogCapacity <= 0 {
		c.LogCapacity = 1024
	}
	if c.WindowSize <= 0 {
		c.WindowSize = c.LogCapacity
	} else if c.WindowSize > c.LogCapacity {
		// An explicit window must be honored: grow the log to hold it
		// rather than silently shrinking the drift window.
		c.LogCapacity = c.WindowSize
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 16
	}
	if c.MinImprovement == 0 {
		c.MinImprovement = 0.10
	} else if c.MinImprovement < 0 {
		c.MinImprovement = 0
	}
	if c.CompactRows <= 0 {
		c.CompactRows = 1 << 16
	}
	if c.SlowQuery == 0 {
		c.SlowQuery = 250 * time.Millisecond
	} else if c.SlowQuery < 0 {
		c.SlowQuery = 0
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
}

// generation binds one immutable on-disk layout version to its in-memory
// routing metadata.
type generation struct {
	id     int
	store  *blockstore.Store
	layout *cost.Layout
}

// Server is the live serving handle: concurrent queries execute against
// the current generation while the drift monitor replans and swaps
// generations underneath, with zero failed queries. Create with New,
// bootstrap a root with Init.
type Server struct {
	cfg  Config
	root string
	tbl  *table.Table // served rows, block order of the boot generation

	log *Log

	// plans memoizes parsed row statements by their SQL text, so repeat
	// dashboards skip the parser entirely. Schema and ACs are fixed for
	// the server's lifetime, so entries never go stale.
	plans *planCache

	// mu guards the generation handle: queries hold the read lock for the
	// scan's duration; a swap takes the write lock only for the pointer
	// flip, after the new generation is fully materialized — so in-flight
	// queries drain on the old generation and new ones start on the new
	// one, and the old store is closed only once no reader can hold it.
	mu     sync.RWMutex
	gen    *generation
	closed bool

	// relayoutMu serializes drift checks, compactions, and Close, so at
	// most one candidate generation is ever being built.
	relayoutMu sync.Mutex

	// delta absorbs Insert traffic; its snapshot is merged into every
	// query (delta ∪ base) until a compaction folds it into a fresh
	// generation. Lock order: s.mu before the delta store's internal lock.
	delta      *delta.Store
	deltaWarns []string

	// reg/metrics/traces are the observability surface: the Prometheus
	// registry behind GET /metrics, its instrument set, and the
	// recent/slow trace ring behind GET /debug/traces.
	reg     *obs.Registry
	metrics *serverMetrics
	traces  *obs.TraceRing

	queries       atomic.Uint64
	slowQueries   atomic.Uint64
	swaps         atomic.Uint64
	compactions   atomic.Uint64
	compactedRows atomic.Int64
	// compactBytes is the cumulative on-disk size of generations written
	// by compactions — the numerator of write amplification (denominator:
	// logical bytes ever ingested).
	compactBytes atomic.Int64
	lastReport   atomic.Pointer[Report]
	lastCompact  atomic.Pointer[CompactReport]
	lastErr      atomic.Pointer[string]

	stop        chan struct{}
	stopOnce    sync.Once
	monitorDone chan struct{}
	compactDone chan struct{}
}

// Init bootstraps a generation root: the layout is materialized as
// generation 1 and CURRENT is pointed at it. The root is then servable by
// New. A table holding a value above table.MaxValue is rejected with
// delta.ErrSchemaMismatch, as Insert rejects such a row.
func Init(root string, tbl *table.Table, l *cost.Layout) error {
	return InitOpts(root, tbl, l, blockstore.WriteOptions{})
}

// InitOpts is Init with explicit store-write options (block format,
// encodings) for the bootstrap generation.
func InitOpts(root string, tbl *table.Table, l *cost.Layout, opt blockstore.WriteOptions) error {
	if err := tbl.CheckValues(); err != nil {
		return fmt.Errorf("%w: %w", delta.ErrSchemaMismatch, err)
	}
	if _, err := blockstore.WriteGenerationOpts(root, 1, tbl, l.BIDs, l.NumBlocks(), opt); err != nil {
		return err
	}
	return blockstore.SetCurrent(root, 1)
}

// New opens the live generation under root and starts serving. The table
// is read back from the generation's blocks and held in memory — it is
// both the scan substrate's ground truth and the input to background
// re-layouts. If cfg.CheckInterval > 0 a background drift monitor starts;
// Close stops it.
func New(root string, cfg Config) (*Server, error) {
	if cfg.Replan == nil {
		return nil, fmt.Errorf("serve: Config.Replan is required (see GreedyReplan)")
	}
	cfg.fillDefaults()
	store, id, err := blockstore.OpenCurrent(root)
	if err != nil {
		return nil, err
	}
	tbl, bids, err := loadTable(store)
	if err != nil {
		store.Close()
		return nil, err
	}
	// Crash recovery for a compaction interrupted between the CURRENT flip
	// and segment deletion: if the live generation reached the marker's,
	// the flip committed and the listed segments are duplicates of rows
	// already in the base; otherwise the flip never happened and the
	// segments are still the only copy of their rows.
	deltaDir := deltaDir(root)
	if m, merr := delta.ReadMarker(deltaDir); merr != nil {
		store.Close()
		return nil, merr
	} else if m != nil {
		if id >= m.Gen {
			if err := delta.RemoveSegmentFiles(deltaDir, m.Segs); err != nil {
				store.Close()
				return nil, err
			}
		}
		if err := delta.ClearMarker(deltaDir); err != nil {
			store.Close()
			return nil, err
		}
	}
	dst, warns, err := delta.Open(tbl.Schema, delta.Options{Dir: deltaDir, MemtableRows: cfg.MemtableRows})
	if err != nil {
		store.Close()
		return nil, err
	}
	layout := cost.NewLayout(genName(id), tbl, bids, store.NumBlocks(), cfg.ACs)
	s := &Server{
		cfg:        cfg,
		root:       root,
		tbl:        tbl,
		log:        NewLog(cfg.LogCapacity),
		plans:      newPlanCache(),
		gen:        &generation{id: id, store: store, layout: layout},
		delta:      dst,
		deltaWarns: warns,
		reg:        cfg.Metrics,
		traces:     obs.NewTraceRing(cfg.TraceRingSize),
		stop:       make(chan struct{}),
	}
	s.metrics = newServerMetrics(s.reg)
	s.registerGauges(s.reg)
	if cfg.CheckInterval > 0 {
		s.monitorDone = make(chan struct{})
		go s.monitor(cfg.CheckInterval)
	}
	if cfg.CompactInterval > 0 {
		s.compactDone = make(chan struct{})
		go s.compactor(cfg.CompactInterval)
	}
	return s, nil
}

// deltaDir is where a root's delta segments live, beside its generations.
func deltaDir(root string) string { return filepath.Join(root, "delta") }

func genName(id int) string { return fmt.Sprintf("gen_%06d", id) }

// loadTable reads every block of a store back into one table, returning
// the per-row block assignment implied by block order.
func loadTable(store *blockstore.Store) (*table.Table, []int, error) {
	total := 0
	for _, m := range store.Blocks {
		total += m.Rows
	}
	tbl := table.New(store.Schema, total)
	bids := make([]int, 0, total)
	for b := range store.Blocks {
		blk, err := store.ReadBlock(b)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: load block %d: %w", b, err)
		}
		tbl.Concat(blk)
		for i := 0; i < blk.N; i++ {
			bids = append(bids, b)
		}
	}
	return tbl, bids, nil
}

// table returns the served base table — the pointer is swapped by
// compaction, so readers go through the generation lock.
func (s *Server) table() *table.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tbl
}

// Schema returns the served table's schema.
func (s *Server) Schema() *table.Schema { return s.table().Schema }

// Rows returns the served row count: base rows plus uncompacted delta
// rows.
func (s *Server) Rows() int { return s.table().N + s.delta.Rows() }

// Insert appends rows to the live delta store; they are visible to
// queries immediately and are folded into the learned layout by the next
// compaction. The batch is atomic: schema mismatches (wrapping
// delta.ErrSchemaMismatch) reject the whole batch.
func (s *Server) Insert(rows [][]int64) error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if err := s.delta.Insert(rows); err != nil {
		return err
	}
	s.metrics.ingestRows.Add(uint64(len(rows)))
	return nil
}

// Flush seals the delta memtable into an on-disk segment, making
// buffered inserts durable without waiting for a compaction.
func (s *Server) Flush() error {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	return s.delta.Flush()
}

// deltaView snapshots the uncompacted delta for a merged read; callers
// hold s.mu.RLock, pairing the view with the generation it is served
// beside.
func (s *Server) deltaView() *exec.DeltaView {
	tbls := s.delta.Snapshot()
	if len(tbls) == 0 {
		return nil
	}
	return &exec.DeltaView{Tables: tbls}
}

// Generation returns the live generation id.
func (s *Server) Generation() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.gen.id
}

// Result is one executed statement: the generation that actually served
// it — which may already be retired by the time the caller reads the
// result — and the result of its kind; exactly one is set.
type Result struct {
	Generation int
	Filter     *exec.Result           // bare filters
	Agg        *exec.AggResult        // aggregation statements
	AggPartial *exec.AggPartialResult // aggregation statements run with Partial
	Rows       *exec.RowsResult       // row and join statements
}

// Header returns the part of the result every kind shares: what ran,
// what the scan touched, and the universe it is measured against.
func (r Result) Header() *exec.Header {
	switch {
	case r.Agg != nil:
		return &r.Agg.Header
	case r.AggPartial != nil:
		return &r.AggPartial.Header
	case r.Rows != nil:
		return &r.Rows.Header
	}
	return &r.Filter.Header
}

// Execute runs one statement of any kind against the live generation,
// merging uncompacted delta rows, and records its filter and scan counts
// in the workload log — so aggregate, row and join traffic drives drift
// detection and background re-layouts exactly like plain filter queries.
// Each side of a join is logged separately: join traffic pulls re-layouts
// toward both build and probe filters, not a blended average. Safe for
// concurrent use, including across generation swaps: a statement runs
// entirely on the generation it acquired.
//
// Blocks are pruned by the layout's tree (exec.RouteQdTree) and read
// from the store's mapped block files under exec.EngineDBMS: only the
// columns the statement references are read from blocks or copied out of
// delta tables.
//
// Stage spans are recorded into tr; nil starts a fresh internal trace —
// every statement is traced so the metrics, the trace ring, and inline
// "trace": true responses all agree.
func (s *Server) Execute(stmt expr.Statement, tr *obs.Trace) (Result, error) {
	filters := stmt.Filters()
	for _, f := range filters {
		for _, a := range f.AdvRefs() {
			if a >= len(s.cfg.ACs) {
				return Result{}, fmt.Errorf("serve: query references advanced cut %d but the server holds %d", a, len(s.cfg.ACs))
			}
		}
	}
	if tr == nil {
		tr = obs.NewTrace("")
	}
	opt := s.cfg.ExecOptions
	opt.Trace = tr
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Result{}, ErrClosed
	}
	g := s.gen
	res := Result{Generation: g.id}
	acs, prof, mode, dv := s.cfg.ACs, exec.EngineDBMS, exec.RouteQdTree, s.deltaView()
	var err error
	switch stmt.Kind() {
	case expr.StmtFilter:
		var r exec.Result
		r, err = exec.RunDelta(g.store, g.layout, stmt.Filter, acs, prof, mode, opt, dv)
		res.Filter = &r
	case expr.StmtAgg:
		res.AggPartial, err = exec.RunAggPartialDelta(g.store, g.layout, *stmt.Agg, acs, prof, mode, opt, dv)
		if err == nil && !stmt.Partial {
			res.Agg, res.AggPartial = res.AggPartial.Finalize(stmt.Agg.Aggs), nil
		}
	case expr.StmtRows:
		res.Rows, err = exec.RunRowsDelta(g.store, g.layout, *stmt.Row, acs, prof, mode, opt, dv)
	case expr.StmtJoin:
		res.Rows, err = exec.RunJoinDelta(g.store, g.layout, *stmt.Join, acs, prof, mode, opt, dv)
	}
	s.mu.RUnlock()
	var h exec.Header
	if err == nil {
		h = *res.Header()
	}
	s.observeQuery(tr, stmt.Type(), h.ScanStats, err)
	if err != nil {
		return Result{}, err
	}
	s.queries.Add(1)
	name := stmt.Name()
	if name == "" {
		name = stmt.StringWith(s.Schema().Names(), acs)
	}
	// One drift-log entry per scan, so the replanner sees the filter that
	// actually pruned it.
	h.Query = name
	scans := []exec.Header{h}
	if j := res.Rows; stmt.Join != nil {
		s.metrics.joinBuildRows.Add(uint64(j.Join.RowsBuild))
		s.metrics.joinProbeRows.Add(uint64(j.Join.RowsProbe))
		// Per-side scan stats are exact; each side is measured against its
		// own copy of the universe.
		scans = []exec.Header{
			{Query: name + "#left", ScanStats: *j.Left, RowsTotal: j.RowsTotal / 2},
			{Query: name + "#right", ScanStats: *j.Right, RowsTotal: j.RowsTotal / 2},
		}
	}
	for i, q := range filters {
		h = scans[i]
		s.log.Record(Entry{
			Name:       h.Query,
			Query:      q,
			Generation: g.id,
			Blocks:     h.BlocksScanned,
			Rows:       h.RowsScanned,
			Matched:    h.RowsMatched,
			Bytes:      h.BytesRead,
			SkipRate:   h.SkipRate(),
		})
	}
	return res, nil
}

// ParseStatement parses one SQL statement of any kind against the served
// schema without executing it. Errors here are client faults (malformed
// SQL, unknown columns, unsupported advanced cuts) — the HTTP layer maps
// them to 400 while execution errors map to 500. Statements that
// introduce advanced cuts absent from the server's table are rejected:
// the live layout has no skipping metadata for them. An unnamed statement
// is named after its SQL text.
//
// Successful parses of row statements are memoized in the plan cache. The
// lookup is by raw SQL text, but entries are keyed on the statement's
// canonical rendering with the raw spelling aliased to it — so a
// repeated dashboard statement costs one map lookup, and whitespace or
// case variants of the same statement resolve to one shared plan (a
// hit) instead of each burning a cache slot. Rejected statements are
// never cached.
func (s *Server) ParseStatement(sql string) (expr.Statement, error) {
	if rs, ok := s.plans.get(sql); ok {
		s.planLookup("hit")
		return expr.Statement{Row: rs.Row, Join: rs.Join}, nil
	}
	schema := s.Schema()
	p := sqlparse.NewParser(schema)
	p.ACs = append([]expr.AdvCut(nil), s.cfg.ACs...)
	stmt, err := p.ParseStatement(sql)
	if err == nil && len(p.ACs) > len(s.cfg.ACs) {
		err = fmt.Errorf("serve: query %q introduces an advanced cut the server was not configured with", sql)
	}
	if err != nil {
		return expr.Statement{}, err
	}
	if stmt.Name() == "" {
		stmt.SetName(sql)
	}
	if stmt.Row != nil || stmt.Join != nil {
		canon := stmt.StringWith(schema.Names(), s.cfg.ACs)
		rs, aliased := s.plans.intern(sql, canon, expr.RowStmt{Row: stmt.Row, Join: stmt.Join})
		stmt.Row, stmt.Join = rs.Row, rs.Join
		if aliased {
			s.planLookup("hit")
		} else {
			s.planLookup("miss")
		}
	}
	return stmt, nil
}

// planLookup counts one row-statement plan-cache lookup by outcome.
func (s *Server) planLookup(outcome string) {
	if outcome == "hit" {
		s.plans.hits.Add(1)
	} else {
		s.plans.misses.Add(1)
	}
	s.metrics.planCache.With(outcome).Inc()
}

// executeSQL parses one statement, checks it is of a kind the caller can
// return, and executes it.
func (s *Server) executeSQL(sql string, kinds ...expr.StmtKind) (Result, error) {
	stmt, err := s.ParseStatement(sql)
	if err != nil {
		return Result{}, err
	}
	if !slices.Contains(kinds, stmt.Kind()) {
		return Result{}, fmt.Errorf("serve: %q is a %s statement, which this method cannot return", sql, stmt.Type())
	}
	return s.Execute(stmt, nil)
}

// QueryResult is one served filter query: its scan stats plus the
// generation that served it.
type QueryResult struct {
	exec.Result
	Generation int
}

// QuerySQL parses and executes one bare filter (or a legacy
// "SELECT * FROM t WHERE <filter>"), answered as a match count.
func (s *Server) QuerySQL(sql string) (QueryResult, error) {
	res, err := s.executeSQL(sql, expr.StmtFilter)
	if err != nil {
		return QueryResult{}, err
	}
	return QueryResult{Result: *res.Filter, Generation: res.Generation}, nil
}

// SelectResult is one served aggregation: typed result rows plus scan
// stats and the generation that served it.
type SelectResult struct {
	*exec.AggResult
	Generation int
}

// SelectSQL parses and executes one aggregation statement.
func (s *Server) SelectSQL(sql string) (SelectResult, error) {
	res, err := s.executeSQL(sql, expr.StmtAgg)
	return SelectResult{AggResult: res.Agg, Generation: res.Generation}, err
}

// SelectRowsResult is one served row-returning statement: ordered output
// tuples plus scan (and, for joins, build/probe) stats and the generation
// that served them.
type SelectRowsResult struct {
	*exec.RowsResult
	Generation int
}

// SelectRowsSQL parses (through the plan cache) and executes one
// row-returning statement: a single-table projection with optional ORDER
// BY/LIMIT, or a two-table equi-join.
func (s *Server) SelectRowsSQL(sql string) (SelectRowsResult, error) {
	res, err := s.executeSQL(sql, expr.StmtRows, expr.StmtJoin)
	return SelectRowsResult{RowsResult: res.Rows, Generation: res.Generation}, err
}

// Relayout runs one drift-check cycle synchronously. With force=false it
// behaves exactly like a background tick: the window must reach MinWindow
// and the candidate must beat MinImprovement. With force=true both gates
// are bypassed — the window (whatever is logged) is replanned and the
// candidate is swapped in unconditionally, which is the POST /relayout
// escape hatch for operators who know the workload has moved.
func (s *Server) Relayout(force bool) (Report, error) {
	s.relayoutMu.Lock()
	defer s.relayoutMu.Unlock()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return Report{}, ErrClosed
	}
	live := s.gen
	tbl := s.tbl
	s.mu.RUnlock()

	window := s.log.Queries(s.cfg.WindowSize)
	rep := Report{Window: len(window), Threshold: s.cfg.MinImprovement, Generation: live.id}
	if len(window) == 0 {
		rep.Reason = "workload log is empty; nothing to replan"
		s.finishCheck(rep, nil)
		return rep, nil
	}
	if !force && len(window) < s.cfg.MinWindow {
		rep.Reason = fmt.Sprintf("window %d below MinWindow %d", len(window), s.cfg.MinWindow)
		s.finishCheck(rep, nil)
		return rep, nil
	}

	cand, err := s.cfg.Replan(tbl, s.cfg.ACs, window)
	if err != nil {
		rep.Reason = "replan failed"
		err = fmt.Errorf("serve: replan over %d-query window: %w", len(window), err)
		s.finishCheck(rep, err)
		return rep, err
	}
	if len(cand.BIDs) != tbl.N {
		rep.Reason = "replan returned a layout for a different table"
		err = fmt.Errorf("serve: replanned layout assigns %d rows, table has %d", len(cand.BIDs), tbl.N)
		s.finishCheck(rep, err)
		return rep, err
	}
	rep = assess(live.layout, cand, window, s.cfg.MinImprovement)
	rep.Generation = live.id
	// A gated swap needs strictly positive improvement even at threshold
	// 0 ("any improvement"), or a steady workload would rewrite the table
	// on every tick for an identical candidate.
	if !force && (rep.Improvement < s.cfg.MinImprovement || rep.Improvement <= 0) {
		s.finishCheck(rep, nil)
		return rep, nil
	}
	if force {
		rep.Reason = "forced relayout: " + rep.Reason
	}

	// Materialize the candidate as the next generation, then flip. The id
	// skips past any directory already on disk (e.g. a partial write from
	// a failed cycle), so one bad cycle cannot wedge every later one.
	newID := s.nextGenID(live.id)
	cand.Name = genName(newID)
	if _, reason, err := s.install(newID, tbl, cand, nil); err != nil {
		rep.Reason = reason
		s.finishCheck(rep, err)
		return rep, err
	}
	s.swaps.Add(1)
	rep.Swapped = true
	rep.Generation = newID
	s.finishCheck(rep, nil)
	return rep, nil
}

// install materializes tbl under layout l as generation id and makes it
// live: write the generation, flip CURRENT, swap it in under the
// generation lock, then close the old store and collect retired
// generations. A compaction passes its delta checkpoint cp: the marker
// naming cp's segments is written before the flip, the checkpoint leaves
// the delta view under the same lock as the swap, and its segment files
// and the marker are deleted after. A failure up to and including the
// flip leaves the live generation serving, removes what was written, and
// names the failed step in reason. It returns the new generation's
// on-disk size. Callers hold relayoutMu.
func (s *Server) install(id int, tbl *table.Table, l *cost.Layout, cp *delta.Checkpoint) (written int64, reason string, err error) {
	store, err := blockstore.WriteGenerationOpts(s.root, id, tbl, l.BIDs, l.NumBlocks(), s.cfg.StoreWrite)
	if err != nil {
		return 0, "generation write failed", err
	}
	fail := func(reason string, err error, marked bool) (int64, string, error) {
		store.Close()
		blockstore.RemoveGeneration(s.root, id)
		if marked {
			delta.ClearMarker(deltaDir(s.root))
		}
		return 0, reason, err
	}
	if cp != nil {
		// The marker must be on disk before the flip: once CURRENT names
		// the new generation, the checkpointed segments are duplicate
		// copies that recovery is allowed to delete. Neither file is
		// fsynced yet, so this ordering holds against a killed process,
		// not a power loss.
		if err := delta.WriteMarker(deltaDir(s.root), delta.Marker{Gen: id, Segs: cp.SegIDs()}); err != nil {
			return fail("compaction marker write failed", err, false)
		}
	}
	if err := blockstore.SetCurrent(s.root, id); err != nil {
		return fail("CURRENT flip failed", err, cp != nil)
	}
	for _, m := range store.Blocks {
		written += m.Bytes
	}

	next := &generation{id: id, store: store, layout: l}
	var paths []string
	s.mu.Lock()
	old := s.gen
	s.gen, s.tbl = next, tbl
	if cp != nil {
		// Dropping the checkpoint under the same lock as the pointer flip
		// keeps the served view duplicate-free at every instant.
		paths = s.delta.Complete(cp)
	}
	s.mu.Unlock()
	// No new query can acquire old past this point and mu.Lock drained the
	// in-flight ones, so the old generation can be released and collected.
	old.store.Close()
	s.gcGenerations(id)
	if cp != nil {
		for _, p := range paths {
			os.Remove(p)
		}
		delta.ClearMarker(deltaDir(s.root))
	}
	return written, "", nil
}

// nextGenID picks the next generation id, skipping past any directory
// already on disk (e.g. a partial write from a failed cycle).
func (s *Server) nextGenID(liveID int) int {
	newID := liveID + 1
	if ids, lerr := blockstore.ListGenerations(s.root); lerr == nil {
		for _, id := range ids {
			if id >= newID {
				newID = id + 1
			}
		}
	}
	return newID
}

// gcGenerations removes retired generation directories, keeping the live
// one and the cfg.KeepGenerations most recent retirees.
func (s *Server) gcGenerations(liveID int) {
	ids, err := blockstore.ListGenerations(s.root)
	if err != nil {
		return
	}
	var retired []int
	for _, id := range ids {
		if id != liveID {
			retired = append(retired, id)
		}
	}
	for i := 0; i < len(retired)-s.cfg.KeepGenerations; i++ {
		blockstore.RemoveGeneration(s.root, retired[i])
	}
}

// finishCheck publishes the report for Stats; a successful check clears
// any error a previous cycle left behind.
func (s *Server) finishCheck(rep Report, err error) {
	switch {
	case err != nil:
		s.metrics.relayouts.With("failed").Inc()
	case rep.Swapped:
		s.metrics.relayouts.With("swapped").Inc()
	default:
		s.metrics.relayouts.With("skipped").Inc()
	}
	s.lastReport.Store(&rep)
	if err != nil {
		msg := err.Error()
		s.lastErr.Store(&msg)
	} else {
		s.lastErr.Store(nil)
	}
}

// monitor is the background drift loop: one no-force Relayout per tick.
func (s *Server) monitor(interval time.Duration) {
	defer close(s.monitorDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Relayout(false) // outcome lands in Stats via finishCheck
		}
	}
}

// Stats is a point-in-time snapshot of the serving subsystem.
type Stats struct {
	Shard      string `json:"shard,omitempty"`
	Generation int    `json:"generation"`
	Rows       int    `json:"rows"`
	Blocks     int    `json:"blocks"`
	Queries    uint64 `json:"queries"`
	// SlowQueries counts queries whose end-to-end latency reached
	// SlowThresholdMS (the -slow-ms flag); the trace ring's slow half
	// uses the same threshold, so both always agree on what "slow" means.
	SlowQueries     uint64  `json:"slow_queries"`
	SlowThresholdMS float64 `json:"slow_threshold_ms"`
	Swaps           uint64  `json:"swaps"`
	Logged          int     `json:"logged"`
	LogTotal        uint64  `json:"log_total"`
	WindowSkipRate  float64 `json:"window_skip_rate"`
	// PlanCacheHits/Misses count row-statement plan-cache lookups; a
	// hot dashboard should converge to hits ≈ queries.
	PlanCacheHits   uint64  `json:"plan_cache_hits"`
	PlanCacheMisses uint64  `json:"plan_cache_misses"`
	LastCheck       *Report `json:"last_check,omitempty"`
	LastError       string  `json:"last_error,omitempty"`

	// Streaming ingest. DeltaRows/DeltaSegments/DeltaBytes describe the
	// uncompacted delta (Rows above includes DeltaRows);
	// FreshnessSeconds is the age of the oldest uncompacted row (0 when
	// the delta is empty); WriteAmplification is cumulative compaction
	// bytes written over logical bytes ingested.
	DeltaRows          int            `json:"delta_rows"`
	DeltaSegments      int            `json:"delta_segments"`
	DeltaBytes         int64          `json:"delta_bytes"`
	DeltaWarnings      []string       `json:"delta_warnings,omitempty"`
	RowsIngested       int64          `json:"rows_ingested"`
	Compactions        uint64         `json:"compactions"`
	CompactedRows      int64          `json:"compacted_rows"`
	FreshnessSeconds   float64        `json:"freshness_seconds"`
	WriteAmplification float64        `json:"write_amplification"`
	LastCompact        *CompactReport `json:"last_compact,omitempty"`
}

// Stats snapshots the live counters.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	gen := s.gen
	tbl := s.tbl
	s.mu.RUnlock()
	deltaRows := s.delta.Rows()
	st := Stats{
		Shard:              s.cfg.ShardLabel,
		Generation:         gen.id,
		Rows:               tbl.N + deltaRows,
		Blocks:             gen.layout.NumBlocks(),
		Queries:            s.queries.Load(),
		SlowQueries:        s.slowQueries.Load(),
		SlowThresholdMS:    float64(s.cfg.SlowQuery) / float64(time.Millisecond),
		Swaps:              s.swaps.Load(),
		Logged:             s.log.Len(),
		LogTotal:           s.log.Total(),
		WindowSkipRate:     s.log.MeanSkipRate(s.cfg.WindowSize),
		PlanCacheHits:      s.plans.hits.Load(),
		PlanCacheMisses:    s.plans.misses.Load(),
		LastCheck:          s.lastReport.Load(),
		DeltaRows:          deltaRows,
		DeltaSegments:      s.delta.Segments(),
		DeltaBytes:         s.delta.Bytes(),
		DeltaWarnings:      s.deltaWarns,
		RowsIngested:       s.delta.RowsIngested(),
		Compactions:        s.compactions.Load(),
		CompactedRows:      s.compactedRows.Load(),
		WriteAmplification: s.writeAmp(),
		LastCompact:        s.lastCompact.Load(),
	}
	if oldest, ok := s.delta.Oldest(); ok {
		st.FreshnessSeconds = time.Since(oldest).Seconds()
	}
	if msg := s.lastErr.Load(); msg != nil {
		st.LastError = *msg
	}
	return st
}

// Close stops the drift monitor and the compactor, waits for in-flight
// queries and any running relayout or compaction to drain, seals the
// delta memtable (buffered inserts become durable segments), and releases
// the live generation's store. Idempotent. The background loops are
// stopped before relayoutMu is taken — taking the lock first would
// deadlock against a tick blocked on it.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	if s.monitorDone != nil {
		<-s.monitorDone
	}
	if s.compactDone != nil {
		<-s.compactDone
	}
	s.relayoutMu.Lock()
	defer s.relayoutMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	gen := s.gen
	s.mu.Unlock()
	return errors.Join(s.delta.Close(), gen.store.Close())
}

// GreedyReplan returns the default replanner: Algorithm 1 (Sec. 4) over
// the window's extracted cuts, with minBlockSize as b.
func GreedyReplan(minBlockSize int) ReplanFunc {
	return func(tbl *table.Table, acs []expr.AdvCut, window []expr.Query) (*cost.Layout, error) {
		tree, err := greedy.Build(tbl, acs, greedy.Options{
			MinSize: minBlockSize,
			Cuts:    core.ExtractCuts(window),
			Queries: window,
		})
		if err != nil {
			return nil, err
		}
		return cost.FromTree("greedy", tree, tbl), nil
	}
}
