package qd

import (
	"fmt"
)

// Dataset binds a schema, a table, and a workload (parsed queries plus the
// advanced-cut table) into one handle. It is the single input every
// Planner consumes, replacing the (tbl, queries, acs) parameter triple
// that earlier API revisions threaded through each constructor.
//
// A Dataset is cheap: it holds references, never copies the table.
type Dataset struct {
	Schema  *Schema
	Table   *Table
	Queries []Query
	ACs     []AdvCut

	err error // deferred construction error, surfaced by Planner.Plan
}

// NewDataset binds a schema and a table. The workload is attached with
// WithWorkload (SQL strings) or WithQueries (pre-parsed queries). A nil
// schema adopts the table's schema.
func NewDataset(s *Schema, tbl *Table) *Dataset {
	d := &Dataset{Schema: s, Table: tbl}
	if tbl == nil {
		d.err = fmt.Errorf("qd: dataset has no table")
		return d
	}
	if d.Schema == nil {
		d.Schema = tbl.Schema
	}
	if d.Schema == nil {
		d.err = fmt.Errorf("qd: dataset has no schema")
	} else if tbl.Schema != nil && tbl.Schema != d.Schema {
		d.err = fmt.Errorf("qd: dataset schema differs from the table's schema")
	} else if err := tbl.CheckValues(); err != nil {
		d.err = fmt.Errorf("qd: %w", err)
	}
	return d
}

// WithWorkload parses SQL WHERE clauses (or full SELECT statements) into
// the dataset's workload, discovering advanced cuts during parsing.
func (d *Dataset) WithWorkload(sqls ...string) (*Dataset, error) {
	if d.err != nil {
		return d, d.err
	}
	queries, acs, err := ParseWorkload(d.Schema, sqls)
	if err != nil {
		return d, err
	}
	d.Queries, d.ACs = queries, acs
	return d, nil
}

// WithQueries attaches a pre-parsed workload and its advanced-cut table.
func (d *Dataset) WithQueries(qs []Query, acs []AdvCut) *Dataset {
	d.Queries, d.ACs = qs, acs
	return d
}

// Cuts derives the candidate cut set from the dataset's workload
// (Sec. 3.4). Planners call this when PlanOptions.Cuts is nil.
func (d *Dataset) Cuts() []Cut { return ExtractCuts(d.Queries) }

// Selectivity returns the workload's exact match fraction — the lower
// bound on any layout's accessed fraction.
func (d *Dataset) Selectivity() float64 {
	return Selectivity(d.Table, d.Queries, d.ACs)
}

// check validates the dataset before planning.
func (d *Dataset) check() error {
	if d == nil {
		return fmt.Errorf("qd: nil dataset")
	}
	return d.err
}
