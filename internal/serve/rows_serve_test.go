package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/expr"
)

// TestServerSelectRows runs row-returning statements through the serving
// handle: ordered tuples, the plan cache, delta visibility, per-side
// join logging, and AC rejection.
func TestServerSelectRows(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := s.SelectRowsSQL("SELECT x FROM t WHERE x >= 100 AND x < 110 ORDER BY x DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	// 2000 rows cycling 0..999: each value twice, so the DESC top 5 of
	// [100,110) is 109,109,108,108,107.
	want := []int64{109, 109, 108, 108, 107}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, row := range res.Rows {
		if len(row) != 1 || row[0] != want[i] {
			t.Fatalf("row %d = %v, want [%d]", i, row, want[i])
		}
	}
	if res.Generation != 1 {
		t.Fatalf("generation = %d", res.Generation)
	}
	if s.log.Len() != 1 || s.log.Window(1)[0].Query.Root == nil {
		t.Fatalf("row statement must land in the drift log: len=%d", s.log.Len())
	}

	// The same text again is a plan-cache hit.
	if _, err := s.SelectRowsSQL("SELECT x FROM t WHERE x >= 100 AND x < 110 ORDER BY x DESC LIMIT 5"); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.PlanCacheHits != 1 || st.PlanCacheMisses != 1 {
		t.Fatalf("plan cache hits=%d misses=%d, want 1/1", st.PlanCacheHits, st.PlanCacheMisses)
	}

	// Delta rows are visible before any compaction.
	if err := s.Insert([][]int64{{5}, {5}}); err != nil {
		t.Fatal(err)
	}
	dres, err := s.SelectRowsSQL("SELECT x FROM t WHERE x = 5 ORDER BY x LIMIT 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(dres.Rows) != 4 {
		t.Fatalf("base 2 + delta 2 rows, got %d", len(dres.Rows))
	}

	// A self-join: both sides logged separately, build/probe stats exact.
	logBefore := s.log.Len()
	jres, err := s.SelectRowsSQL("SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 AND b.x < 2 ORDER BY a.x, b.x")
	if err != nil {
		t.Fatal(err)
	}
	// x<2 keeps values {0,1}, twice each per side: 2*2 pairs per value.
	if len(jres.Rows) != 8 {
		t.Fatalf("join rows = %d, want 8", len(jres.Rows))
	}
	if jres.Join == nil || jres.Join.RowsBuild != 4 || jres.Join.RowsProbe != 4 {
		t.Fatalf("join stats = %+v", jres.Join)
	}
	if s.log.Len() != logBefore+2 {
		t.Fatalf("join must log one entry per side: %d -> %d", logBefore, s.log.Len())
	}
	w := s.log.Window(2)
	if w[0].Name[len(w[0].Name)-5:] != "#left" || w[1].Name[len(w[1].Name)-6:] != "#right" {
		t.Fatalf("side entries = %q, %q", w[0].Name, w[1].Name)
	}

	// Out-of-range advanced cuts are rejected before execution.
	if _, err := s.Execute(expr.Statement{Row: &expr.RowQuery{
		Cols:   []int{0},
		Filter: expr.Query{Root: expr.NewAdv(7)},
	}}, nil); err == nil {
		t.Error("out-of-range advanced cut must be rejected")
	}
}

// TestServerSelectRowsDrivesDrift: pure join traffic fills the drift
// window (one entry per side) and triggers a re-layout, exactly like
// filter and aggregate queries.
func TestServerSelectRowsDrivesDrift(t *testing.T) {
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Drifted join traffic over workload B's band.
	for i := 0; i < 4; i++ {
		if _, err := s.SelectRowsSQL("SELECT a.x, b.x FROM a JOIN b ON a.x = b.x " +
			"WHERE a.x >= 800 AND a.x < 1000 AND b.x >= 800 AND b.x < 1000 LIMIT 5"); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := s.Relayout(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped {
		t.Fatalf("drifted join window must trigger a swap: %+v", rep)
	}
	// Row statements answered after the swap see the new generation.
	res, err := s.SelectRowsSQL("SELECT x FROM t WHERE x >= 990 ORDER BY x LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Generation != rep.Generation {
		t.Fatalf("generation %d, want %d", res.Generation, rep.Generation)
	}
	if len(res.Rows) != 3 || res.Rows[0][0] != 990 {
		t.Fatalf("post-swap rows = %v", res.Rows)
	}
}

// TestHTTPRowQuery pins the POST /query row surface: ordered tuples in
// Columns/Data, alias-qualified join columns with build/probe stats, and
// 400 on row-grammar client faults.
func TestHTTPRowQuery(t *testing.T) {
	_, ts := newHTTPFixture(t)

	resp := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "SELECT x FROM t WHERE x >= 100 AND x < 110 ORDER BY x DESC LIMIT 3"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Columns) != 1 || qr.Columns[0] != "x" {
		t.Fatalf("columns = %v", qr.Columns)
	}
	if len(qr.Data) != 3 || qr.Data[0][0] != 109 || qr.Data[2][0] != 108 {
		t.Fatalf("data = %v", qr.Data)
	}
	if qr.Rows != nil || qr.Join != nil {
		t.Fatalf("row response must carry neither agg rows nor join stats: %+v", qr)
	}

	jresp := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 AND b.x < 2 ORDER BY a.x, b.x LIMIT 4"})
	defer jresp.Body.Close()
	if jresp.StatusCode != http.StatusOK {
		t.Fatalf("join status %d", jresp.StatusCode)
	}
	var jr QueryResponse
	if err := json.NewDecoder(jresp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Columns) != 2 || jr.Columns[0] != "a.x" || jr.Columns[1] != "b.x" {
		t.Fatalf("join columns = %v", jr.Columns)
	}
	if jr.Join == nil || jr.Join.RowsBuild != 4 || len(jr.Data) != 4 {
		t.Fatalf("join response = %+v", jr)
	}

	// Row-grammar faults are the client's: 400, not 500.
	bresp := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "SELECT x FROM t ORDER BY nosuch"})
	defer bresp.Body.Close()
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ORDER BY status %d, want 400", bresp.StatusCode)
	}
}
