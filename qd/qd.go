// Package qd is the public API of the qd-tree library — a Go
// implementation of "Qd-tree: Learning Data Layouts for Big Data
// Analytics" (Yang et al., SIGMOD 2020).
//
// A qd-tree routes both data and queries: records descend the tree's
// predicate cuts into blocks with complete semantic descriptions, and
// queries are answered by scanning only the blocks whose descriptions they
// intersect.
//
// The API is organized around three handles that mirror the paper's
// pipeline — workload in, layout out, queries routed:
//
//   - Dataset binds schema + table + workload once.
//   - Planner turns a Dataset into a Plan (a deployable Layout plus
//     strategy metadata). Strategies — greedy (Algorithm 1, Sec. 4),
//     woodblock (the deep-RL agent, Sec. 5), bottomup, random, range,
//     overlap, twotree — are registered by name; resolve one with
//     NewPlanner or instantiate e.g. GreedyPlanner directly.
//   - Engine binds a materialized store + plan + engine profile +
//     ExecOptions and serves queries.
//
// Typical use:
//
//	schema := qd.MustSchema([]qd.Column{
//	    {Name: "ship", Kind: qd.Numeric, Min: 0, Max: 2500},
//	    {Name: "mode", Kind: qd.Categorical, Dom: 7},
//	})
//	tbl := qd.NewTable(schema, n)            // append rows...
//	ds, _ := qd.NewDataset(schema, tbl).WithWorkload(sqls...)
//	plan, _ := qd.GreedyPlanner{}.Plan(ds, qd.PlanOptions{MinBlockSize: 100_000})
//	bids := plan.Layout.BIDs                 // per-row block assignment
//	blocks := plan.Tree.QueryBlocks(ds.Queries[0]) // BID IN (...) pruning
//
//	store, _ := qd.WriteStore(dir, tbl, plan.Layout)
//	eng, _ := qd.NewEngine(store, plan, qd.EngineSpark, qd.ExecOptions{Parallelism: 8})
//	defer eng.Close()
//	res, _ := eng.Query(ds.Queries[0])
package qd

import (
	"fmt"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/overlap"
	"repro/internal/replicate"
	"repro/internal/rl"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// Re-exported core types. Aliases keep the internal packages as the single
// source of truth while giving users one import path.
type (
	// Schema describes a table's columns.
	Schema = table.Schema
	// Column is one attribute: numeric (range cuts) or categorical
	// (equality/IN cuts over dictionary codes).
	Column = table.Column
	// Table is a column-major table of dictionary-encoded int64 values.
	Table = table.Table
	// Query is an AND/OR tree of predicates (and advanced-cut refs).
	Query = expr.Query
	// Pred is a unary predicate (column, op, literal).
	Pred = expr.Pred
	// AdvCut is a column-vs-column predicate (Sec. 6.1).
	AdvCut = expr.AdvCut
	// Tree is a constructed qd-tree.
	Tree = core.Tree
	// Node is one tree node.
	Node = core.Node
	// Cut is a tree edge predicate: unary or advanced.
	Cut = core.Cut
	// Desc is a node's semantic description.
	Desc = core.Desc
	// Layout is a materialized row→block partitioning with per-block
	// skipping metadata.
	Layout = cost.Layout
	// OverlapLayout is a multi-assignment layout (Sec. 6.2).
	OverlapLayout = overlap.Layout
	// TwoTree is the two-tree replication deployment (Sec. 6.3).
	TwoTree = replicate.TwoTree
	// RLResult reports a Woodblock run: best tree + learning curve.
	RLResult = rl.Result
	// CurvePoint is one learning-curve sample (Fig. 8).
	CurvePoint = rl.CurvePoint
)

// Column kinds.
const (
	Numeric     = table.Numeric
	Categorical = table.Categorical
)

// Predicate operators.
const (
	Lt = expr.Lt
	Le = expr.Le
	Gt = expr.Gt
	Ge = expr.Ge
	Eq = expr.Eq
	In = expr.In
)

// NewSchema builds a schema, validating column definitions.
func NewSchema(cols []Column) (*Schema, error) { return table.NewSchema(cols) }

// MustSchema is NewSchema that panics on error.
func MustSchema(cols []Column) *Schema { return table.MustSchema(cols) }

// NewTable returns an empty table with a row-capacity hint.
func NewTable(s *Schema, capacity int) *Table { return table.New(s, capacity) }

// NewIn builds an IN predicate over the given literals.
func NewIn(col int, vals []int64) Pred { return expr.NewIn(col, vals) }

// And / Or / P compose query ASTs.
var (
	And = expr.And
	Or  = expr.Or
)

// P wraps a predicate into a query AST leaf.
func P(p Pred) *expr.Node { return expr.NewPred(p) }

// AdvRef wraps an advanced-cut table index into a query AST leaf.
func AdvRef(i int) *expr.Node { return expr.NewAdv(i) }

// NewQuery assembles a named query from an AST root.
func NewQuery(name string, root *expr.Node) Query { return Query{Name: name, Root: root} }

// UnaryCut and AdvancedCut build candidate cuts explicitly.
func UnaryCut(p Pred) Cut                   { return core.UnaryCut(p) }
func AdvancedCut(idx int) Cut               { return core.AdvancedCut(idx) }
func NewTree(s *Schema, acs []AdvCut) *Tree { return core.NewTree(s, acs) }

// ExtractCuts derives the candidate cut set from a workload (Sec. 3.4):
// all pushed-down unary predicates, de-duplicated, plus one advanced cut
// per distinct reference.
func ExtractCuts(queries []Query) []Cut { return core.ExtractCuts(queries) }

// ParseWorkload parses SQL WHERE clauses (or the WHERE of full
// single-table SELECT statements) into queries named q<i>, plus the
// advanced-cut table discovered during parsing.
func ParseWorkload(s *Schema, sqls []string) ([]Query, []AdvCut, error) {
	p := sqlparse.NewParser(s)
	qs := make([]Query, 0, len(sqls))
	for i, sql := range sqls {
		q, err := p.Parse(sql)
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
		q.Name = fmt.Sprintf("q%d", i)
		qs = append(qs, q)
	}
	return qs, p.ACs, nil
}

// ParseSelect parses one full aggregation statement —
// SELECT <aggs> FROM t [WHERE ...] [GROUP BY ...] — against the schema.
// The returned cut table holds any column-vs-column advanced cuts the
// WHERE clause introduced; an engine executing the statement must be
// bound to a plan whose cut table covers them (execution rejects
// out-of-range cut references with an error).
func ParseSelect(s *Schema, sql string) (AggQuery, []AdvCut, error) {
	p := sqlparse.NewParser(s)
	aq, err := p.ParseSelect(sql)
	if err != nil {
		return AggQuery{}, nil, err
	}
	return aq, p.ACs, nil
}

// ParseAggWorkload parses an aggregation workload, returning the
// statements, named q<i>, plus the advanced-cut table their filters
// discovered.
func ParseAggWorkload(s *Schema, sqls []string) ([]AggQuery, []AdvCut, error) {
	p := sqlparse.NewParser(s)
	aqs := make([]AggQuery, 0, len(sqls))
	for i, sql := range sqls {
		aq, err := p.ParseSelect(sql)
		if err != nil {
			return nil, nil, fmt.Errorf("query %d: %w", i, err)
		}
		aq.Name = fmt.Sprintf("q%d", i)
		aqs = append(aqs, aq)
	}
	return aqs, p.ACs, nil
}

// LayoutFromTree routes the full table through the tree, freezes leaf
// descriptions (Sec. 3.2), and returns the deployable layout.
func LayoutFromTree(name string, t *Tree, tbl *Table) *Layout {
	return cost.FromTree(name, t, tbl)
}

// Selectivity returns the workload's exact match fraction — the lower
// bound on any layout's accessed fraction.
func Selectivity(tbl *Table, queries []Query, acs []AdvCut) float64 {
	return cost.Selectivity(tbl, queries, acs)
}

// PerQueryMatches evaluates every query exactly and returns the match
// count per query — the ground truth physical engines are checked against.
func PerQueryMatches(tbl *Table, queries []Query, acs []AdvCut) []int64 {
	return cost.PerQueryMatches(tbl, queries, acs)
}

// NewLayout wraps an arbitrary row→block assignment as a Layout with
// per-block skipping metadata, for layouts not produced by a planner.
func NewLayout(name string, tbl *Table, bids []int, numBlocks int, acs []AdvCut) *Layout {
	return cost.NewLayout(name, tbl, bids, numBlocks, acs)
}

// LoadTree deserializes a tree written with Tree.Save / Tree.Marshal.
func LoadTree(data []byte) (*Tree, error) { return core.Unmarshal(data) }

// --- physical execution ---

// Execution re-exports. The exec engine scans materialized block stores
// under a deterministic engine profile (Sec. 7.4/7.5).
type (
	// BlockStore is a materialized layout on disk; safe for concurrent
	// readers.
	BlockStore = blockstore.Store
	// EngineProfile models one execution engine's cost structure.
	EngineProfile = exec.Profile
	// ExecResult reports one query execution.
	ExecResult = exec.Result
	// ScanStats are the physical counters of a scan.
	ScanStats = exec.ScanStats
	// ExecMode selects block pruning: qd-tree routing or SMA-only.
	ExecMode = exec.Mode
	// AggQuery is a full aggregation statement: SELECT-list aggregates,
	// optional GROUP BY columns, and the filter the qd-tree routes.
	AggQuery = expr.AggQuery
	// Agg is one aggregate of a SELECT list (function over a column).
	Agg = expr.Agg
	// AggFunc identifies one aggregate function.
	AggFunc = expr.AggFunc
	// AggResult reports one aggregate query execution: scan stats plus
	// typed result rows sorted by group key.
	AggResult = exec.AggResult
	// AggRow is one typed result row: group key + one value per aggregate.
	AggRow = exec.AggRow
	// AggVal is one aggregate output cell (Valid, Int, Float).
	AggVal = exec.AggVal
	// ExecOptions tune physical execution: Parallelism is the scan worker
	// pool size (0 or negative selects GOMAXPROCS, 1 is sequential) and
	// Trace, when set, collects per-stage spans. Options change
	// scheduling only — ScanStats are identical for every value.
	ExecOptions = exec.Options
)

// Rows is the typed result set of an aggregate query, sorted by group key.
type Rows = []exec.AggRow

// Row-returning execution re-exports (SELECT cols ... [ORDER BY]
// [LIMIT], and two-table equi-joins).
type (
	// RowQuery is a single-table row-returning statement: projection,
	// filter, ORDER BY keys (positions into the projection), LIMIT.
	RowQuery = expr.RowQuery
	// JoinQuery is a two-table equi-join statement with per-side filters.
	JoinQuery = expr.JoinQuery
	// RowStmt is a parsed row-returning statement: exactly one of Row
	// (single table) or Join is set.
	RowStmt = expr.RowStmt
	// ColRef names an output column of a row statement (join side + col).
	ColRef = expr.ColRef
	// OrderKey is one ORDER BY key: SELECT-list position + direction.
	OrderKey = expr.OrderKey
	// RowsResult reports one row-returning execution: ordered output
	// tuples plus scan (and, for joins, per-side and join) stats.
	RowsResult = exec.RowsResult
	// JoinStats are the join-path physical counters.
	JoinStats = exec.JoinStats
)

// ParseRowSelect parses one row-returning statement — SELECT <cols>
// FROM t [JOIN t2 ON ...] [WHERE ...] [ORDER BY ...] [LIMIT k] —
// against the schema. Both sides of a join bind the same schema (the
// single-table serving shape); use an sqlparse.Parser with a Tables map
// for heterogeneous joins.
func ParseRowSelect(s *Schema, sql string) (RowStmt, []AdvCut, error) {
	p := sqlparse.NewParser(s)
	stmt, err := p.ParseRowSelect(sql)
	if err != nil {
		return RowStmt{}, nil, err
	}
	return stmt, p.ACs, nil
}

// ReferenceSelect evaluates a row query over an in-memory table row at
// a time — the ground truth the streaming executor is tested against.
func ReferenceSelect(tbl *Table, rq RowQuery, acs []AdvCut) [][]int64 {
	return exec.ReferenceSelect(tbl, rq, acs)
}

// ReferenceJoin evaluates an equi-join of the table with itself as a
// nested loop — the quadratic ground truth for the hash-join path.
func ReferenceJoin(tbl *Table, jq JoinQuery, acs []AdvCut) [][]int64 {
	return exec.ReferenceJoin(tbl, jq, acs)
}

// Aggregate functions for building AggQuery values programmatically.
const (
	AggCountStar = expr.AggCountStar
	AggCount     = expr.AggCount
	AggSum       = expr.AggSum
	AggMin       = expr.AggMin
	AggMax       = expr.AggMax
	AggAvg       = expr.AggAvg
)

// ReferenceAggregate evaluates an aggregate query over an in-memory table
// row at a time — the naive ground truth the vectorized engine is tested
// against (and a convenient way to aggregate without materializing a
// store).
func ReferenceAggregate(tbl *Table, aq AggQuery, acs []AdvCut) Rows {
	return exec.ReferenceAggregate(tbl, aq, acs)
}

// AggregateNaive executes an aggregate query over a store with no
// pushdown: every candidate block is fully decoded and aggregated row at
// a time, charging the decoded logical bytes — the decode-then-aggregate
// cost baseline TestAggregatePushdownAcceptance and
// BenchmarkAggregatePushdown compare the vectorized engine against.
func AggregateNaive(store *BlockStore, plan *Plan, aq AggQuery, prof EngineProfile, mode ExecMode) (*AggResult, error) {
	return exec.RunAggNaive(store, plan.Layout, aq, plan.ACs, prof, mode)
}

// Engine profiles and pruning modes.
var (
	EngineSpark = exec.EngineSpark
	EngineDBMS  = exec.EngineDBMS
)

const (
	RouteQdTree = exec.RouteQdTree
	NoRoute     = exec.NoRoute
)

// StoreOptions tune how WriteStore materializes a layout: FormatVersion
// selects block format v2 (default: per-column PLAIN/DICT/RLE/FOR
// encodings) or the legacy v1 plain layout, and PlainOnly keeps the v2
// container but disables encoding selection.
type StoreOptions = blockstore.WriteOptions

// Block store format versions for StoreOptions.FormatVersion.
const (
	StoreFormatV1 = blockstore.FormatV1
	StoreFormatV2 = blockstore.FormatV2
)

// SizeStats pairs a store's logical (decoded) and encoded (on-disk)
// footprints; see BlockStore.Sizes.
type SizeStats = cost.SizeStats

// WriteStore materializes a layout's row→block partitioning as a block
// directory usable by the execution engine. With no options it writes
// block format v2 (per-column encodings); pass a StoreOptions to select
// the format explicitly.
func WriteStore(dir string, tbl *Table, l *Layout, opts ...StoreOptions) (*BlockStore, error) {
	var opt StoreOptions
	if len(opts) > 0 {
		opt = opts[0]
	}
	return blockstore.WriteOpts(dir, tbl, l.BIDs, l.NumBlocks(), opt)
}

// OpenStore reopens a block directory from its catalog. It fails on a
// directory holding delta segments (delta_*.qdb): only a Server ingests,
// and its segments live under its root's delta directory.
func OpenStore(dir string) (*BlockStore, error) { return blockstore.Open(dir) }
