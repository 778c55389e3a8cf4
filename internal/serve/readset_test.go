package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/table"
)

// TestServedReadSet pins what a server reads per statement: the reply's
// bytes_read is the column-pruned read of exec under EngineDBMS — the
// statement's own columns of the pruned blocks and delta tables — which
// on this 3-column schema is strictly less than the whole-block read of
// EngineSpark, while the answer is the same.
func TestServedReadSet(t *testing.T) {
	schema := table.MustSchema([]table.Column{
		{Name: "x", Kind: table.Numeric, Min: 0, Max: 999},
		{Name: "y", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "svc", Kind: table.Categorical, Dom: 3, Dict: []string{"auth", "billing", "search"}},
	})
	tbl := table.New(schema, 4000)
	for i := 0; i < 4000; i++ {
		tbl.AppendRow([]int64{int64(i % 1000), int64(i*7) % 100, int64(i % 3)})
	}
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })

	stmts := []string{
		"x >= 100 AND x < 150",
		"SELECT svc, COUNT(*), MAX(x) FROM t WHERE x < 300 GROUP BY svc",
		"SELECT y FROM t WHERE x >= 20 AND x < 40 ORDER BY y DESC LIMIT 5",
		"SELECT a.y, b.svc FROM a JOIN b ON a.x = b.x WHERE a.x < 3 AND b.x < 3 ORDER BY a.y, b.svc",
	}
	// run executes stmt in-process under prof against the server's live
	// generation and delta, and renders it as the server would.
	run := func(stmt expr.Statement, prof exec.Profile) QueryResponse {
		t.Helper()
		s.mu.RLock()
		g, dv := s.gen, s.deltaView()
		s.mu.RUnlock()
		if (dv != nil) != (s.delta.Rows() > 0) {
			t.Fatal("delta view does not match the inserted rows")
		}
		opt := exec.Options{Parallelism: 2}
		res := Result{Generation: g.id}
		var err error
		switch stmt.Kind() {
		case expr.StmtFilter:
			var r exec.Result
			r, err = exec.RunDelta(g.store, g.layout, stmt.Filter, s.cfg.ACs, prof, exec.RouteQdTree, opt, dv)
			res.Filter = &r
		case expr.StmtAgg:
			res.Agg, err = exec.RunAggDelta(g.store, g.layout, *stmt.Agg, s.cfg.ACs, prof, exec.RouteQdTree, opt, dv)
		case expr.StmtRows:
			res.Rows, err = exec.RunRowsDelta(g.store, g.layout, *stmt.Row, s.cfg.ACs, prof, exec.RouteQdTree, opt, dv)
		case expr.StmtJoin:
			res.Rows, err = exec.RunJoinDelta(g.store, g.layout, *stmt.Join, s.cfg.ACs, prof, exec.RouteQdTree, opt, dv)
		}
		if err != nil {
			t.Fatal(err)
		}
		return Render(schema, stmt, res)
	}
	// answer is a reply's JSON without its read volume and timing.
	answer := func(r QueryResponse) string {
		r.BytesRead, r.WallTimeNS = 0, 0
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	for _, withDelta := range []bool{false, true} {
		if withDelta {
			if err := s.Insert([][]int64{{1, 5, 0}, {2, 6, 1}, {120, 7, 2}, {30, 8, 0}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, sql := range stmts {
			resp := postJSON(t, ts.URL+"/query", QueryRequest{SQL: sql})
			var got QueryResponse
			err := json.NewDecoder(resp.Body).Decode(&got)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%q (delta %v): status %d, %v", sql, withDelta, resp.StatusCode, err)
			}
			stmt, err := s.ParseStatement(sql)
			if err != nil {
				t.Fatal(err)
			}
			dbms, spark := run(stmt, exec.EngineDBMS), run(stmt, exec.EngineSpark)
			if got.BytesRead != dbms.BytesRead {
				t.Errorf("%q (delta %v): served %d bytes, exec under EngineDBMS %d", sql, withDelta, got.BytesRead, dbms.BytesRead)
			}
			if !(dbms.BytesRead > 0 && dbms.BytesRead < spark.BytesRead) {
				t.Errorf("%q (delta %v): EngineDBMS read %d bytes, EngineSpark %d — want strictly fewer", sql, withDelta, dbms.BytesRead, spark.BytesRead)
			}
			if a, b := answer(got), answer(spark); a != b {
				t.Errorf("%q (delta %v): served answer differs from EngineSpark:\n%s\n%s", sql, withDelta, a, b)
			}
		}
	}
}
