package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

func newHTTPFixture(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	tbl := fixtureTable(2000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPQuery(t *testing.T) {
	_, ts := newHTTPFixture(t)
	resp := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "x >= 100 AND x < 150"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowsMatched != 100 { // 2000 rows cycle 0..999: each value twice
		t.Fatalf("matched %d, want 100", qr.RowsMatched)
	}
	if qr.Generation != 1 || qr.SkipRate <= 0 {
		t.Fatalf("response = %+v", qr)
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	_, ts := newHTTPFixture(t)
	for _, body := range []any{QueryRequest{}, QueryRequest{SQL: "bogus !!"}, QueryRequest{SQL: "nope > 3"}} {
		resp := postJSON(t, ts.URL+"/query", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %+v: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query status %d", resp.StatusCode)
	}
}

func TestHTTPStatsAndRelayout(t *testing.T) {
	s, ts := newHTTPFixture(t)
	// Log drifted traffic, then force a cycle over HTTP.
	for _, q := range workloadB() {
		if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
			t.Fatal(err)
		}
	}
	resp := postJSON(t, ts.URL+"/relayout", map[string]any{})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("relayout status %d", resp.StatusCode)
	}
	var rep Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || rep.Generation != 2 {
		t.Fatalf("report = %+v", rep)
	}

	resp2, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.Swaps != 1 || st.Queries != 4 {
		t.Fatalf("stats = %+v", st)
	}

	// Gated relayout right after a swap: window is now well-served.
	resp3 := postJSON(t, ts.URL+"/relayout", RelayoutRequest{Force: new(bool)})
	defer resp3.Body.Close()
	var rep2 Report
	json.NewDecoder(resp3.Body).Decode(&rep2)
	if rep2.Swapped {
		t.Fatalf("gated relayout after swap must not swap again: %+v", rep2)
	}
}

func TestHTTPRelayoutMalformedBody(t *testing.T) {
	_, ts := newHTTPFixture(t)
	resp, err := http.Post(ts.URL+"/relayout", "application/json", bytes.NewReader([]byte(`{"force": fals`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed /relayout body: status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, ts := newHTTPFixture(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPIngestAndCompact(t *testing.T) {
	s, ts := newHTTPFixture(t)

	resp := postJSON(t, ts.URL+"/ingest", IngestRequest{Rows: [][]json.RawMessage{
		{json.RawMessage("500")}, {json.RawMessage("500")}, {json.RawMessage("500")},
	}})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	if ir.Inserted != 3 || ir.DeltaRows != 3 {
		t.Fatalf("ingest response %+v", ir)
	}

	// The rows answer queries before any compaction.
	q := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "x >= 500 AND x < 501"})
	defer q.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(q.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowsMatched != 5 { // 2 base (2000 rows cycle 0..999) + 3 ingested
		t.Fatalf("matched %d, want 5", qr.RowsMatched)
	}

	// Force a compaction over the wire; the rows remain visible.
	c := postJSON(t, ts.URL+"/compact", struct{}{})
	defer c.Body.Close()
	if c.StatusCode != http.StatusOK {
		t.Fatalf("compact status %d", c.StatusCode)
	}
	var rep CompactReport
	if err := json.NewDecoder(c.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || rep.Rows != 3 {
		t.Fatalf("compact report %+v", rep)
	}
	q2 := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "x >= 500 AND x < 501"})
	defer q2.Body.Close()
	if err := json.NewDecoder(q2.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowsMatched != 5 || qr.Generation != rep.Generation {
		t.Fatalf("post-compaction query %+v, want 5 matches from generation %d", qr, rep.Generation)
	}

	// Stats surface the ingest counters.
	st, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Body.Close()
	var stats Stats
	if err := json.NewDecoder(st.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.RowsIngested != 3 || stats.Compactions != 1 || stats.DeltaRows != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if stats.WriteAmplification <= 0 {
		t.Fatalf("write amplification %v, want > 0 after a compaction", stats.WriteAmplification)
	}
	_ = s
}

// TestHTTPIngestBeyondSchemaBoundsThenCompact ingests rows above the
// schema's Max (ingest accepts any numeric value), folds them into the
// base with a compaction that re-freezes the live qd-tree, and counts
// them: block pruning must keep the blocks that hold them, and the
// answers must equal the row-at-a-time reference over base ∪ ingested.
func TestHTTPIngestBeyondSchemaBoundsThenCompact(t *testing.T) {
	s, ts := newHTTPFixture(t)
	for _, q := range workloadA() {
		if _, err := s.Execute(expr.Statement{Filter: q}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Relayout(true); err != nil {
		t.Fatal(err)
	}
	ingested := []int64{2500, 1500, 1000, 999, 7}
	var body IngestRequest
	for _, v := range ingested {
		body.Rows = append(body.Rows, []json.RawMessage{json.RawMessage(fmt.Sprint(v))})
	}
	resp := postJSON(t, ts.URL+"/ingest", body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	c := postJSON(t, ts.URL+"/compact", struct{}{})
	defer c.Body.Close()
	var rep CompactReport
	if err := json.NewDecoder(c.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Swapped || rep.Routed != "tree" {
		t.Fatalf("compact report %+v, want a swap routed by the live qd-tree", rep)
	}
	// Freeze widened the inner descriptions over the out-of-bounds leaves,
	// so the re-frozen tree still passes its containment invariant.
	if err := s.gen.layout.Tree.Validate(); err != nil {
		t.Fatalf("compacted tree: %v", err)
	}

	merged := fixtureTable(2000)
	for _, v := range ingested {
		merged.AppendRow([]int64{v})
	}
	p := sqlparse.NewParser(merged.Schema)
	for _, where := range []string{"x > 999", "x >= 1500", "x > 2000", "x = 1000", "x > 990 AND x < 1200"} {
		aggSQL := "SELECT COUNT(*), MAX(x) FROM t WHERE " + where
		stmt, err := p.ParseStatement(aggSQL)
		if err != nil {
			t.Fatal(err)
		}
		want := exec.ReferenceAggregate(merged, *stmt.Agg, nil)
		got, err := s.SelectSQL(aggSQL)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want) {
			t.Errorf("%s: %+v, reference %+v", aggSQL, got.Rows, want)
		}
		q := postJSON(t, ts.URL+"/query", QueryRequest{SQL: where})
		var qr QueryResponse
		err = json.NewDecoder(q.Body).Decode(&qr)
		q.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if qr.Generation != rep.Generation || qr.RowsMatched != want[0].Vals[0].Int {
			t.Errorf("POST /query %q: generation %d matched %d, want generation %d and %d",
				where, qr.Generation, qr.RowsMatched, rep.Generation, want[0].Vals[0].Int)
		}
	}
}

func TestHTTPIngestErrors(t *testing.T) {
	_, ts := newHTTPFixture(t)
	for name, body := range map[string]IngestRequest{
		"no rows":        {},
		"short row":      {Rows: [][]json.RawMessage{{}}},
		"wide row":       {Rows: [][]json.RawMessage{{json.RawMessage("1"), json.RawMessage("2")}}},
		"bad value":      {Rows: [][]json.RawMessage{{json.RawMessage("1.5")}}},
		"unknown column": {Columns: []string{"nope"}, Rows: [][]json.RawMessage{{json.RawMessage("1")}}},
	} {
		resp := postJSON(t, ts.URL+"/ingest", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
}

// DecodeIngestRows maps named column order and dictionary strings onto
// schema-ordered coded rows.
func TestDecodeIngestRows(t *testing.T) {
	schema := table.MustSchema([]table.Column{
		{Name: "x", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "svc", Kind: table.Categorical, Dom: 2, Dict: []string{"auth", "web"}},
	})
	rows, err := DecodeIngestRows(schema, IngestRequest{
		Columns: []string{"svc", "x"}, // reversed on the wire
		Rows: [][]json.RawMessage{
			{json.RawMessage(`"web"`), json.RawMessage("7")},
			{json.RawMessage("0"), json.RawMessage("9")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != 7 || rows[0][1] != 1 || rows[1][0] != 9 || rows[1][1] != 0 {
		t.Fatalf("decoded %v", rows)
	}
	for name, req := range map[string]IngestRequest{
		"partial columns": {Columns: []string{"x"}, Rows: [][]json.RawMessage{{json.RawMessage("1")}}},
		"dup column":      {Columns: []string{"x", "x"}, Rows: [][]json.RawMessage{{json.RawMessage("1"), json.RawMessage("2")}}},
		"bad dict string": {Rows: [][]json.RawMessage{{json.RawMessage("1"), json.RawMessage(`"db"`)}}},
	} {
		if _, err := DecodeIngestRows(schema, req); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// decodeIngestValueBefore is the value decoder DecodeIngestRows used
// before its integer fast path: every value is tried as a string first,
// then as an int64. The fast path must agree with it on every input.
func decodeIngestValueBefore(schema *table.Schema, ri, c int, rv json.RawMessage) (int64, error) {
	var sval string
	if err := json.Unmarshal(rv, &sval); err == nil {
		code := schema.Code(c, sval)
		if code < 0 {
			return 0, fmt.Errorf("row %d column %s: %q is not in the dictionary", ri, schema.Cols[c].Name, sval)
		}
		return code, nil
	}
	var ival int64
	if err := json.Unmarshal(rv, &ival); err != nil {
		return 0, fmt.Errorf("row %d column %s: want an integer or a dictionary string, got %s", ri, schema.Cols[c].Name, string(rv))
	}
	return ival, nil
}

// TestDecodeIngestValuesMatchTheStringFirstDecoder: the integer fast
// path yields the same values and the same error texts as the old
// string-first decoder, in a numeric and in a categorical column, for
// integers at and past the int64 limits and for everything ParseInt or
// JSON rejects.
func TestDecodeIngestValuesMatchTheStringFirstDecoder(t *testing.T) {
	schema := table.MustSchema([]table.Column{
		{Name: "x", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "svc", Kind: table.Categorical, Dom: 2, Dict: []string{"auth", "web"}},
	})
	values := []string{
		"0", "7", "-7", "-0", "42", "9223372036854775807", "-9223372036854775808",
		"9223372036854775808", "-9223372036854775809", "12345678901234567890123",
		"1.0", "1e3", "1E3", "-1.5", "null", "true", "false",
		`"web"`, `"auth"`, `"db"`, `""`, `"7"`,
		"+5", "007", "-007", "00", "-", "", " 7", "7 ", "0x10", "1_000", "[1]", "{}",
	}
	for _, v := range values {
		for c := range 2 {
			row := []json.RawMessage{json.RawMessage("1"), json.RawMessage(`"web"`)}
			row[c] = json.RawMessage(v)
			got, gotErr := DecodeIngestRows(schema, IngestRequest{Rows: [][]json.RawMessage{row}})
			want, wantErr := decodeIngestValueBefore(schema, 0, c, row[c])
			switch {
			case (gotErr == nil) != (wantErr == nil):
				t.Errorf("%q in column %d: error %v, want %v", v, c, gotErr, wantErr)
			case gotErr != nil && gotErr.Error() != wantErr.Error():
				t.Errorf("%q in column %d: error %q, want %q", v, c, gotErr, wantErr)
			case gotErr == nil && got[0][c] != want:
				t.Errorf("%q in column %d: decoded %d, want %d", v, c, got[0][c], want)
			}
		}
	}
}

// Error responses are structured JSON: every 4xx/5xx from the serving
// API must carry Content-Type application/json and a non-empty "error"
// message, so cluster front doors and scripted clients never have to
// scrape free-text bodies.
func TestHTTPErrorBodiesAreJSON(t *testing.T) {
	_, ts := newHTTPFixture(t)
	cases := []struct {
		name string
		url  string
		body any
		code int
	}{
		{"query empty sql", ts.URL + "/query", QueryRequest{}, http.StatusBadRequest},
		{"query parse error", ts.URL + "/query", QueryRequest{SQL: "bogus !!"}, http.StatusBadRequest},
		{"query unknown column", ts.URL + "/query", QueryRequest{SQL: "nope > 3"}, http.StatusBadRequest},
		{"ingest no rows", ts.URL + "/ingest", IngestRequest{}, http.StatusBadRequest},
		{"ingest bad value", ts.URL + "/ingest",
			IngestRequest{Rows: [][]json.RawMessage{{json.RawMessage("1.5")}}}, http.StatusBadRequest},
		{"ingest unknown column", ts.URL + "/ingest",
			IngestRequest{Columns: []string{"nope"}, Rows: [][]json.RawMessage{{json.RawMessage("1")}}},
			http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, tc.url, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.code {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.code)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if body.Error == "" {
				t.Fatal("error body has no \"error\" message")
			}
		})
	}

	// Method misuse answers with the same structured shape.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /query: status %d, want 405", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("GET /query: Content-Type %q, want application/json", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Fatalf("GET /query: structured error body missing (err %v, body %+v)", err, body)
	}
}
