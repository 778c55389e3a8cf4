package main

import (
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/table"
	"repro/internal/workload"
)

// Statement classes. Every latency metric named <class>_p50_ms is the
// median over the statements of that class.
const (
	classFilter = "filter" // bare WHERE expression → match count
	classAgg    = "agg"    // SELECT aggregates [GROUP BY]
	classRows   = "rows"   // projection, ORDER BY/LIMIT, join → tuples
)

// stmt is one statement of a workload: the SQL text the client sends,
// its parsed form (for the in-process replays) and its ground truth.
type stmt struct {
	SQL   string
	Class string

	// Exactly one of these is the parsed statement; Filter is always the
	// statement's WHERE part (for a join: the left side's), the input of
	// the pruning and block-read replays.
	Filter expr.Query
	Agg    *expr.AggQuery
	Row    *expr.RowStmt

	// Ground truth from the row-at-a-time reference.
	Count  int64         // classFilter
	Groups []exec.AggRow // classAgg
	Tuples [][]int64     // classRows
}

func (s *stmt) isJoin() bool { return s.Row != nil && s.Row.Join != nil }

// parseStmt parses SQL with the grammar its class selects, exactly as a
// server configured with acs would.
func parseStmt(schema *table.Schema, acs []expr.AdvCut, class, sql string) (*stmt, error) {
	p := sqlparse.NewParser(schema)
	p.ACs = append([]expr.AdvCut(nil), acs...)
	st := &stmt{SQL: sql, Class: class}
	switch class {
	case classFilter:
		q, err := p.Parse(sql)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", sql, err)
		}
		q.Name = sql
		st.Filter = q
	case classAgg:
		aq, err := p.ParseSelect(sql)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", sql, err)
		}
		aq.Name = sql
		st.Agg, st.Filter = &aq, aq.Filter
	case classRows:
		rs, err := p.ParseRowSelect(sql)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", sql, err)
		}
		st.Row = &rs
		if rs.Join != nil {
			st.Filter = rs.Join.LeftFilter
		} else {
			st.Filter = rs.Row.Filter
		}
	default:
		return nil, fmt.Errorf("unknown statement class %q", class)
	}
	if len(p.ACs) > len(acs) {
		return nil, fmt.Errorf("statement %q introduces an advanced cut the layout was not planned with", sql)
	}
	return st, nil
}

// shuffled returns the statements in a seeded order, so classes
// interleave the same way on every run of one seed.
func shuffled(stmts []*stmt, seed int64) []*stmt {
	out := append([]*stmt(nil), stmts...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// Point statement shapes over a seeded ErrorLog filter F.
const (
	pointAggSQL  = "SELECT event_type, COUNT(*), MAX(x_num06) FROM logs WHERE %s GROUP BY event_type"
	pointRowsSQL = "SELECT ingest_date, os_version, x_num06 FROM logs WHERE %s ORDER BY ingest_date DESC, x_num06 LIMIT 20"
)

// pointFilters is how many seeded filters the point list is built from
// at full size: 600 bare filters, the first half again as aggregations,
// the second half again as row statements — 300 distinct row texts,
// more than the server's 256-entry FIFO plan cache holds, so it never
// hits.
const pointFilters = 600

// pointStatements builds the point list from the spec's seeded filters:
// len(filters) bare filters, an aggregation over each of the first half
// and a row statement over each of the second half.
func pointStatements(spec *workload.Spec, seed int64) ([]*stmt, error) {
	schema := spec.Table.Schema
	names := schema.Names()
	n := len(spec.Queries)
	var out []*stmt
	add := func(class, sql string) error {
		st, err := parseStmt(schema, spec.ACs, class, sql)
		if err != nil {
			return err
		}
		out = append(out, st)
		return nil
	}
	for i, q := range spec.Queries {
		f := q.StringWith(names, spec.ACs)
		if err := add(classFilter, f); err != nil {
			return nil, err
		}
		if i < n/2 {
			if err := add(classAgg, fmt.Sprintf(pointAggSQL, f)); err != nil {
				return nil, err
			}
		} else {
			if err := add(classRows, fmt.Sprintf(pointRowsSQL, f)); err != nil {
				return nil, err
			}
		}
	}
	return shuffled(out, seed), nil
}

// scanStatements builds the scan list: the spec's 150 template filters,
// 12 aggregations (TPC-H Q1, Q6 and a l_shipmode GROUP BY, four seeded
// variants each) and 8 row statements (2 TopK, 5 LIMIT-less selects
// whose result is sized to ~8000 tuples at any row count, and one
// l_shipmode self-join). Five of the eight are the large selects, so the
// class median rows_p50_ms is firmly a ~200 KB reply and not a point
// between two kinds of statement. Eight row texts fit the plan cache, so
// it always hits.
func scanStatements(spec *workload.Spec, seed int64) ([]*stmt, error) {
	schema := spec.Table.Schema
	names := schema.Names()
	rng := rand.New(rand.NewSource(seed + 2))
	var out []*stmt
	add := func(class, sql string) error {
		st, err := parseStmt(schema, spec.ACs, class, sql)
		if err != nil {
			return err
		}
		out = append(out, st)
		return nil
	}
	for _, q := range spec.Queries {
		if err := add(classFilter, q.StringWith(names, spec.ACs)); err != nil {
			return nil, err
		}
	}
	// Dates are day numbers since 1992-01-01 (the generator's epoch),
	// discounts are hundredths.
	for v := 0; v < 4; v++ {
		cutoff := workload.TPCHDay(1998, 9, 2) - int64(rng.Intn(60))
		year := 1993 + rng.Intn(5)
		lo, hi := workload.TPCHDay(year, 1, 1), workload.TPCHDay(year+1, 1, 1)
		disc := int64(2 + rng.Intn(7))
		qty := int64(24 + rng.Intn(2))
		ship := workload.TPCHDay(1994+rng.Intn(3), 1+rng.Intn(12), 1)
		aggs := []string{
			fmt.Sprintf("SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity), SUM(l_extendedprice), AVG(l_quantity), AVG(l_discount) "+
				"FROM lineitem WHERE l_shipdate <= %d GROUP BY l_returnflag, l_linestatus", cutoff),
			fmt.Sprintf("SELECT SUM(l_extendedprice), COUNT(*) FROM lineitem "+
				"WHERE l_shipdate >= %d AND l_shipdate < %d AND l_discount BETWEEN %d AND %d AND l_quantity < %d", lo, hi, disc-1, disc+1, qty),
			fmt.Sprintf("SELECT l_shipmode, COUNT(*), SUM(l_quantity), MAX(l_extendedprice) FROM lineitem "+
				"WHERE l_shipdate >= %d AND l_shipdate < %d GROUP BY l_shipmode", ship, ship+365),
		}
		for _, sql := range aggs {
			if err := add(classAgg, sql); err != nil {
				return nil, err
			}
		}
	}
	for v := 0; v < 2; v++ {
		disc := int64(2 + rng.Intn(7))
		topk := fmt.Sprintf("SELECT l_orderkey, l_extendedprice, l_shipdate FROM lineitem "+
			"WHERE l_shipdate >= %d AND l_discount BETWEEN %d AND %d ORDER BY l_extendedprice DESC, l_orderkey LIMIT %d",
			workload.TPCHDay(1995, 1+rng.Intn(12), 1), disc-1, disc+1, 5+5*v)
		if err := add(classRows, topk); err != nil {
			return nil, err
		}
	}
	// l_extendedprice is uniform over [900, 105000): the threshold keeps
	// ~8000 tuples (~200 KB of JSON) whatever the table size.
	n := spec.Table.N
	width := int64(104_100)
	for v := 0; v < 5; v++ {
		keep := int64(8000 - 250*v)
		thr := 105_000 - width*keep/int64(max(n, 1))
		if thr < 900 {
			thr = 900
		}
		sql := fmt.Sprintf("SELECT l_orderkey, l_extendedprice, l_quantity FROM lineitem WHERE l_extendedprice >= %d", thr)
		if err := add(classRows, sql); err != nil {
			return nil, err
		}
	}
	join := fmt.Sprintf("SELECT a.l_orderkey, b.l_orderkey, a.l_shipmode FROM a JOIN b ON a.l_shipmode = b.l_shipmode "+
		"WHERE a.l_extendedprice >= %d AND b.l_extendedprice >= %d ORDER BY a.l_orderkey, b.l_orderkey LIMIT 8",
		104_500-rng.Intn(100), 104_800-rng.Intn(100))
	if err := add(classRows, join); err != nil {
		return nil, err
	}
	return shuffled(out, seed), nil
}

// ingestBatchRows is the size of one POST /ingest batch.
const ingestBatchRows = 500

// readerStatements thins the point list to every sixth seeded filter
// (bare, plus its aggregation or row statement) — the ingest reader's
// cycle. The list is small enough that the truth of every statement can
// be tracked across every ingested batch before the run starts.
func readerStatements(point []*stmt, stride int) []*stmt {
	// Statements over one seeded filter share the filter text.
	seen := map[string]int{}
	var out []*stmt
	next := 0
	for _, st := range point {
		key := st.Filter.String()
		idx, ok := seen[key]
		if !ok {
			idx = next
			next++
			seen[key] = idx
		}
		if idx%stride == 0 {
			out = append(out, st)
		}
	}
	return out
}
