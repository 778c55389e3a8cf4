package main

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/expr"
	"repro/internal/table"
	"repro/qd"
)

// Ground truth comes from the row-at-a-time reference only: expr.Query.Eval
// per row for match counts (the loop qd.PerQueryMatches runs — the smoke
// test pins the two equal), qd.ReferenceAggregate, qd.ReferenceSelect and
// qd.ReferenceJoin for result rows. A point statement's filter keeps a
// handful of rows, so its aggregation and row truth is computed by the
// reference over the sub-table of those rows instead of one full-table
// pass per statement.

// matchRows evaluates every filter against every row of tbl, row at a
// time, and returns per filter the match count and, where keep[i] is
// set, the matching row ids in table order. The table is split over the
// available cores by row range.
func matchRows(tbl *table.Table, filters []expr.Query, acs []expr.AdvCut, keep []bool) (counts []int64, ids [][]int) {
	workers := max(1, runtime.GOMAXPROCS(0))
	if workers > tbl.N {
		workers = 1
	}
	type part struct {
		counts []int64
		ids    [][]int
	}
	parts := make([]part, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lo, hi := w*tbl.N/workers, (w+1)*tbl.N/workers
			p := part{counts: make([]int64, len(filters)), ids: make([][]int, len(filters))}
			row := make([]int64, tbl.Schema.NumCols())
			for r := lo; r < hi; r++ {
				row = tbl.Row(r, row)
				for i, q := range filters {
					if q.Eval(row, acs) {
						p.counts[i]++
						if keep[i] {
							p.ids[i] = append(p.ids[i], r)
						}
					}
				}
			}
			parts[w] = p
		}(w)
	}
	wg.Wait()
	counts = make([]int64, len(filters))
	ids = make([][]int, len(filters))
	for _, p := range parts { // row ranges ascend with w, so ids stay ordered
		for i := range filters {
			counts[i] += p.counts[i]
			ids[i] = append(ids[i], p.ids[i]...)
		}
	}
	return counts, ids
}

// reference computes one statement's result rows over tbl with the
// reference evaluators.
func reference(tbl *table.Table, st *stmt, acs []expr.AdvCut) {
	switch {
	case st.Agg != nil:
		st.Groups = qd.ReferenceAggregate(tbl, *st.Agg, acs)
	case st.isJoin():
		st.Tuples = qd.ReferenceJoin(tbl, *st.Row.Join, acs)
	case st.Row != nil:
		st.Tuples = qd.ReferenceSelect(tbl, *st.Row.Row, acs)
	}
}

// groundTruth fills in every statement's truth. With subTables set (the
// point shapes: every statement filters down to few rows) result rows
// come from the reference over the statement's matching rows, which are
// kept in subs for the ingest workload to extend; otherwise from the
// reference over the whole table.
func groundTruth(tbl *table.Table, acs []expr.AdvCut, stmts []*stmt, subTables bool) (subs map[*stmt]*table.Table) {
	// Statements over one seeded filter share its text; evaluate each
	// distinct filter once.
	index := map[string]int{}
	var filters []expr.Query
	var keep []bool
	of := make([]int, len(stmts))
	for i, st := range stmts {
		if st.isJoin() || (!subTables && st.Class != classFilter) {
			of[i] = -1
			continue
		}
		key := st.Filter.String()
		j, ok := index[key]
		if !ok {
			j = len(filters)
			index[key] = j
			filters = append(filters, st.Filter)
			keep = append(keep, false)
		}
		if st.Class != classFilter {
			keep[j] = true
		}
		of[i] = j
	}
	counts, ids := matchRows(tbl, filters, acs, keep)

	subs = map[*stmt]*table.Table{}
	var full []*stmt
	for i, st := range stmts {
		switch {
		case st.Class == classFilter:
			st.Count = counts[of[i]]
		case of[i] >= 0:
			sub := tbl.Select(ids[of[i]])
			subs[st] = sub
			reference(sub, st, acs)
		default:
			full = append(full, st)
		}
	}
	// Whole-table references are independent of each other.
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	for _, st := range full {
		wg.Add(1)
		sem <- struct{}{}
		go func(st *stmt) {
			defer wg.Done()
			defer func() { <-sem }()
			reference(tbl, st, acs)
		}(st)
	}
	wg.Wait()
	return subs
}

// queryResponse is the part of a POST /query reply the benchmark reads,
// from a standalone server or the front door alike.
type queryResponse struct {
	BlocksScanned int   `json:"blocks_scanned"`
	BlocksTotal   int   `json:"blocks_total"`
	RowsScanned   int64 `json:"rows_scanned"`
	RowsMatched   int64 `json:"rows_matched"`
	BytesRead     int64 `json:"bytes_read"`
	Rows          []struct {
		Key  []int64 `json:"key"`
		Aggs []struct {
			Valid bool    `json:"valid"`
			Int   int64   `json:"int"`
			Float float64 `json:"float"`
		} `json:"aggs"`
	} `json:"rows"`
	Data            [][]int64 `json:"data"`
	ShardsPruned    int       `json:"shards_pruned"`
	ShardsContacted int       `json:"shards_contacted"`
	Partial         bool      `json:"partial"`
}

// sameAnswer reports whether a reply carries exactly the statement's
// reference answer.
func sameAnswer(st *stmt, resp *queryResponse) bool {
	switch st.Class {
	case classFilter:
		return resp.RowsMatched == st.Count
	case classAgg:
		if len(resp.Rows) != len(st.Groups) {
			return false
		}
		for i, g := range st.Groups {
			r := resp.Rows[i]
			if !sameInts(r.Key, g.Key) || len(r.Aggs) != len(g.Vals) {
				return false
			}
			for j, v := range g.Vals {
				a := r.Aggs[j]
				if a.Valid != v.Valid || a.Int != v.Int || a.Float != v.Float {
					return false
				}
			}
		}
		return true
	case classRows:
		if len(resp.Data) != len(st.Tuples) {
			return false
		}
		for i, t := range st.Tuples {
			if !sameInts(resp.Data[i], t) {
				return false
			}
		}
		return true
	}
	return false
}

func sameInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifier judges one reply. lo and hi bound the ingested batches the
// server may have applied when it answered: lo were acknowledged before
// the request was sent, hi had been sent when the reply arrived. Static
// workloads ignore them.
type verifier interface {
	verify(st *stmt, resp *queryResponse, lo, hi int) bool
}

// staticTruth verifies against the truth stored in the statement.
type staticTruth struct{}

func (staticTruth) verify(st *stmt, resp *queryResponse, _, _ int) bool {
	return sameAnswer(st, resp)
}

// corruptTruth falsifies one statement's truth — the self-test that a
// wrong answer is caught (fail_ratio > 0, non-zero exit).
func corruptTruth(stmts []*stmt) error {
	for _, st := range stmts {
		if st.Class == classFilter {
			st.Count += 1_000_003
			return nil
		}
	}
	return fmt.Errorf("no filter statement to corrupt")
}
