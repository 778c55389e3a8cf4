package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/expr"
)

// TestServerSelect runs aggregation statements through the serving handle
// and checks the typed rows plus their effect on the workload log.
func TestServerSelect(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := s.SelectSQL("SELECT COUNT(*), SUM(x), MIN(x), MAX(x), AVG(x) FROM t WHERE x >= 100 AND x < 150")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	v := res.Rows[0].Vals
	// 2000 rows cycling 0..999: every value in [100,150) appears twice.
	if v[0].Int != 100 || v[1].Int != 12450 || v[2].Int != 100 || v[3].Int != 149 {
		t.Fatalf("aggregates = %+v", v)
	}
	if v[4].Float != 124.5 {
		t.Fatalf("AVG = %v, want 124.5", v[4].Float)
	}
	if res.Generation != 1 {
		t.Fatalf("generation = %d", res.Generation)
	}
	if res.SkipRate() <= 0 {
		t.Fatalf("aggregate on planned workload must skip; got %.2f", res.SkipRate())
	}

	// The statement landed in the drift window with its filter and cost.
	if s.log.Len() != 1 {
		t.Fatalf("log holds %d entries", s.log.Len())
	}
	e := s.log.Window(1)[0]
	if e.Matched != 100 || e.SkipRate <= 0 || e.Query.Root == nil {
		t.Fatalf("logged entry = %+v", e)
	}

	// Grouped statement.
	gres, err := s.SelectSQL("SELECT x, COUNT(*) FROM t WHERE x >= 100 AND x < 103 GROUP BY x")
	if err != nil {
		t.Fatal(err)
	}
	if len(gres.Rows) != 3 {
		t.Fatalf("group rows = %d", len(gres.Rows))
	}
	for i, row := range gres.Rows {
		if row.Key[0] != int64(100+i) || row.Vals[0].Int != 2 {
			t.Fatalf("group row %d = %+v", i, row)
		}
	}

	// Statement errors are client faults.
	if _, err := s.SelectSQL("SELECT NOPE(x) FROM t"); err == nil {
		t.Error("unknown aggregate must error")
	}
	if _, err := s.Execute(expr.Statement{Agg: &expr.AggQuery{
		Aggs:   []expr.Agg{{Func: expr.AggCountStar}},
		Filter: expr.Query{Root: expr.NewAdv(7)},
	}}, nil); err == nil {
		t.Error("out-of-range advanced cut must be rejected")
	}
}

// TestServerSelectDrivesDrift: pure aggregate traffic fills the drift
// window and triggers a re-layout, exactly like filter queries.
func TestServerSelectDrivesDrift(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Drifted aggregate traffic over workload B's band.
	for i := 0; i < 4; i++ {
		if _, err := s.Execute(expr.Statement{Agg: &expr.AggQuery{
			Name:   "drift",
			Aggs:   []expr.Agg{{Func: expr.AggSum, Col: 0}},
			Filter: expr.Query{Root: bandQuery("b", 800, 1000).Root},
		}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Relayout(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped {
		t.Fatalf("drifted aggregate window must trigger a swap: %+v", rep)
	}
	// Aggregates answered after the swap see the new generation.
	res, err := s.SelectSQL("SELECT COUNT(*) FROM t WHERE x >= 800")
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != rep.Generation {
		t.Fatalf("generation %d, want %d", res.Generation, rep.Generation)
	}
	if res.Rows[0].Vals[0].Int != 400 {
		t.Fatalf("COUNT = %d, want 400", res.Rows[0].Vals[0].Int)
	}
}

// TestStatsNoDivideByZero pins the serve-log guards: a fresh server with
// zero logged queries reports finite stats, and a fully-pruned query logs
// skip rate 1 without perturbing the window average with NaNs.
func TestStatsNoDivideByZero(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	st := s.Stats()
	if st.WindowSkipRate != 0 || st.Queries != 0 {
		t.Fatalf("fresh server stats = %+v", st)
	}
	// A drift check over an empty log must not divide by zero either.
	rep, err := s.Relayout(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Swapped {
		t.Fatalf("empty-window relayout swapped: %+v", rep)
	}

	// Fully-pruned query: x is in [0, 999], so nothing matches.
	res, err := s.QuerySQL("x > 5000")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsScanned != 0 || res.SkipRate() != 1 {
		t.Fatalf("fully-pruned query: %+v skip %v", res.ScanStats, res.SkipRate())
	}
	if got := s.log.MeanSkipRate(0); got != 1 {
		t.Fatalf("window skip rate %v, want 1", got)
	}
	ares, err := s.SelectSQL("SELECT COUNT(*), AVG(x) FROM t WHERE x > 5000")
	if err != nil {
		t.Fatal(err)
	}
	if ares.SkipRate() != 1 || ares.Rows[0].Vals[0].Int != 0 || ares.Rows[0].Vals[1].Valid {
		t.Fatalf("fully-pruned aggregate: %+v", ares.Rows)
	}
}

// TestHTTPAggregateQuery drives POST /query with a SELECT statement and
// checks the typed-rows response shape.
func TestHTTPAggregateQuery(t *testing.T) {
	_, ts := newHTTPFixture(t)
	resp := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "SELECT x, COUNT(*), AVG(x) FROM t WHERE x >= 100 AND x < 102 GROUP BY x"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.GroupBy) != 1 || qr.GroupBy[0] != "x" {
		t.Fatalf("group_by = %v", qr.GroupBy)
	}
	if len(qr.Rows) != 2 {
		t.Fatalf("rows = %+v", qr.Rows)
	}
	for i, row := range qr.Rows {
		if row.Key[0] != int64(100+i) || row.Aggs[0].Int != 2 || row.Aggs[1].Float != float64(100+i) {
			t.Fatalf("row %d = %+v", i, row)
		}
	}
	if qr.RowsMatched != 4 || qr.Generation != 1 {
		t.Fatalf("response = %+v", qr)
	}

	// Malformed aggregation statements are 400s.
	bad := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "SELECT y FROM t"})
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad SELECT status %d, want 400", bad.StatusCode)
	}

	// Legacy SELECT-spelled filter queries (Parse skips to WHERE) keep
	// working: they fall back to the filter path and return scan stats.
	legacy := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "SELECT * FROM t WHERE x >= 100 AND x < 150"})
	defer legacy.Body.Close()
	if legacy.StatusCode != http.StatusOK {
		t.Fatalf("legacy SELECT filter status %d, want 200", legacy.StatusCode)
	}
	var lr QueryResponse
	if err := json.NewDecoder(legacy.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if lr.RowsMatched != 100 || lr.Rows != nil {
		t.Fatalf("legacy SELECT filter response = %+v", lr)
	}

	// A malformed aggregation (function call in the select list) must NOT
	// fall back to the filter path: the typo surfaces as a 400, not a
	// silently-successful match count.
	typo := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "SELECT SUM(nope) FROM t WHERE x >= 100"})
	typo.Body.Close()
	if typo.StatusCode != http.StatusBadRequest {
		t.Fatalf("aggregate typo status %d, want 400 (must not fall back to filter path)", typo.StatusCode)
	}
}
