package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/delta"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/table"
)

// HTTP/JSON surface of a Server, mounted by cmd/qdserve:
//
//	POST /query    {"sql": "severity >= 8"}  → per-query scan stats
//	POST /query    {"sql": "SELECT ..."}     → scan stats + typed rows
//	POST /ingest   {"rows": [[...], ...]}    → insert rows into the delta
//	GET  /stats                              → Stats snapshot
//	POST /relayout {"force": true|false}     → run one drift-check cycle
//	POST /compact  {"force": true|false}     → run one compaction cycle
//	GET  /metrics                            → Prometheus text exposition
//	GET  /debug/traces                       → recent + slow trace rings
//	GET  /healthz                            → 200 ok
//
// A /query body with "trace": true returns the query's span-level trace
// inline (an EXPLAIN ANALYZE for the learned layout). The TraceID is
// taken from the X-Qd-Trace-Id request header when present — the
// cluster front door propagates its own ID to shards this way — and
// generated otherwise.
//
// A /query body is routed by sqlparse.Parser.ParseStatement: an
// aggregation statement (COUNT/SUM/MIN/MAX/AVG, optional GROUP BY)
// answers with typed Rows, a row statement (projection lists, ORDER BY
// ... LIMIT, two-table equi-joins) with the ordered tuples in
// Columns/Data, and any other SQL is a bare filter answered as a match
// count. Every kind is logged into the drift window.
//
// /relayout with an empty body forces the cycle (the operator asked for
// it); pass {"force": false} for a gated check identical to a monitor
// tick.

// QueryRequest is the POST /query body. Trace asks for the query's
// span-level trace inline in the response.
type QueryRequest struct {
	SQL   string `json:"sql"`
	Trace bool   `json:"trace,omitempty"`
}

// QueryRow is one typed result row of an aggregation query. Key holds the
// raw group-key values; KeyStrings their dictionary spellings where the
// grouping column has one.
type QueryRow struct {
	Key        []int64       `json:"key,omitempty"`
	KeyStrings []string      `json:"key_strings,omitempty"`
	Aggs       []exec.AggVal `json:"aggs"`
}

// QueryResponse reports one served query. GroupBy and Rows are present
// only for aggregation statements.
type QueryResponse struct {
	Query         string     `json:"query"`
	Generation    int        `json:"generation"`
	BlocksScanned int        `json:"blocks_scanned"`
	BlocksTotal   int        `json:"blocks_total"`
	RowsScanned   int64      `json:"rows_scanned"`
	RowsTotal     int64      `json:"rows_total"`
	RowsMatched   int64      `json:"rows_matched"`
	BytesRead     int64      `json:"bytes_read"`
	SkipRate      float64    `json:"skip_rate"`
	WallTimeNS    int64      `json:"wall_time_ns"`
	GroupBy       []string   `json:"group_by,omitempty"`
	Rows          []QueryRow `json:"rows,omitempty"`
	// Columns/Data are present only for row-returning statements:
	// Columns names each output column (alias-qualified for joins) and
	// Data holds the ordered tuples. DataStrings carries the dictionary
	// spellings when any projected column has one ("" for the rest).
	// Join reports build/probe stats when the statement was a join.
	Columns     []string        `json:"columns,omitempty"`
	Data        [][]int64       `json:"data,omitempty"`
	DataStrings [][]string      `json:"data_strings,omitempty"`
	Join        *exec.JoinStats `json:"join,omitempty"`
	// Trace is present when the request carried "trace": true.
	Trace *obs.TraceData `json:"trace,omitempty"`
}

// RelayoutRequest is the POST /relayout body. An empty body means force.
type RelayoutRequest struct {
	Force *bool `json:"force"`
}

// IngestRequest is the POST /ingest body. Each row lists one value per
// column: numeric columns take JSON integers, categorical columns take
// either the dictionary string or its integer code. Columns, when
// present, names every schema column and gives the order the row values
// use; absent, rows are in schema order.
type IngestRequest struct {
	Columns []string            `json:"columns,omitempty"`
	Rows    [][]json.RawMessage `json:"rows"`
}

// IngestResponse reports one accepted ingest batch.
type IngestResponse struct {
	Inserted  int `json:"inserted"`
	DeltaRows int `json:"delta_rows"`
}

// DecodeIngestRows validates and decodes an ingest batch against the
// served schema. All errors here are client faults (400). Exported so the
// cluster front door validates batches once before routing rows to
// shards.
func DecodeIngestRows(schema *table.Schema, req IngestRequest) ([][]int64, error) {
	ncols := schema.NumCols()
	order := make([]int, ncols) // position in request row → schema ordinal
	for i := range order {
		order[i] = i
	}
	if req.Columns != nil {
		if len(req.Columns) != ncols {
			return nil, fmt.Errorf("columns names %d of %d schema columns — every column is required", len(req.Columns), ncols)
		}
		seen := make(map[int]bool, ncols)
		for i, name := range req.Columns {
			c := schema.Col(name)
			if c < 0 {
				return nil, fmt.Errorf("unknown column %q", name)
			}
			if seen[c] {
				return nil, fmt.Errorf("column %q named twice", name)
			}
			seen[c] = true
			order[i] = c
		}
	}
	rows := make([][]int64, len(req.Rows))
	for ri, raw := range req.Rows {
		if len(raw) != ncols {
			return nil, fmt.Errorf("row %d has %d values, schema has %d columns", ri, len(raw), ncols)
		}
		row := make([]int64, ncols)
		for i, rv := range raw {
			c := order[i]
			var sval string
			if err := json.Unmarshal(rv, &sval); err == nil {
				code := schema.Code(c, sval)
				if code < 0 {
					return nil, fmt.Errorf("row %d column %s: %q is not in the dictionary", ri, schema.Cols[c].Name, sval)
				}
				row[c] = code
				continue
			}
			var ival int64
			if err := json.Unmarshal(rv, &ival); err != nil {
				return nil, fmt.Errorf("row %d column %s: want an integer or a dictionary string, got %s", ri, schema.Cols[c].Name, string(rv))
			}
			row[c] = ival
		}
		rows[ri] = row
	}
	return rows, nil
}

// Handler mounts the server's HTTP/JSON API.
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		if req.SQL == "" {
			httpErr(w, http.StatusBadRequest, `body needs {"sql": "..."}`)
			return
		}
		// Every query is traced (the trace also feeds the metrics and the
		// ring); "trace": true only controls inline return. The parse span
		// joins the same trace so histogram sums reconcile with it.
		tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
		psp := tr.Start("parse")
		stmt, err := s.ParseStatement(req.SQL)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		psp.End()
		start := time.Now()
		res, err := s.Execute(stmt, tr)
		if err != nil {
			// A failure after a successful parse is an execution/storage
			// fault on our side, not the client's.
			httpErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp := Render(s.Schema(), stmt, res)
		resp.WallTimeNS = int64(time.Since(start))
		if req.Trace {
			resp.Trace = tr.Snapshot()
		}
		writeJSON(w, resp)
	})
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		if len(req.Rows) == 0 {
			httpErr(w, http.StatusBadRequest, `body needs {"rows": [[...], ...]}`)
			return
		}
		rows, err := DecodeIngestRows(s.Schema(), req)
		if err != nil {
			httpErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		if err := s.Insert(rows); err != nil {
			// A schema mismatch the decoder could not see (e.g. an integer
			// categorical code outside the dictionary) is still the
			// client's fault.
			if errors.Is(err, delta.ErrSchemaMismatch) {
				httpErr(w, http.StatusBadRequest, "%v", err)
			} else {
				httpErr(w, http.StatusInternalServerError, "%v", err)
			}
			return
		}
		writeJSON(w, IngestResponse{Inserted: len(rows), DeltaRows: s.delta.Rows()})
	})
	mux.HandleFunc("/compact", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		// Same convention as /relayout: empty body = force.
		force := true
		var req RelayoutRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
			httpErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		} else if req.Force != nil {
			force = *req.Force
		}
		rep, err := s.RunCompaction(force)
		if err != nil {
			httpErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("/relayout", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		// Empty body = force; a non-empty body must parse — a mangled
		// {"force": false} must not silently become an unconditional swap.
		force := true
		var req RelayoutRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
			httpErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		} else if req.Force != nil {
			force = *req.Force
		}
		rep, err := s.Relayout(force)
		if err != nil {
			httpErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		writeJSON(w, rep)
	})
	mux.Handle("/metrics", s.Metrics().Handler())
	mux.Handle("/debug/traces", s.Traces().Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Render builds the /query reply of one answered statement: the scan
// stats block every kind shares, then the kind's payload with its
// dictionary spellings — group keys of an aggregation, output columns
// (alias-qualified for joins, so `SELECT c.x, s.x FROM c JOIN s ...`
// stays unambiguous) and tuples of a row statement. A standalone server
// renders what it executed and a front door what it gathered, so both
// spell an answer identically. WallTimeNS and Trace are the caller's.
func Render(schema *table.Schema, stmt expr.Statement, res Result) QueryResponse {
	h := res.Header()
	resp := QueryResponse{
		Query:         h.Query,
		Generation:    res.Generation,
		BlocksScanned: h.BlocksScanned,
		BlocksTotal:   h.BlocksTotal,
		RowsScanned:   h.RowsScanned,
		RowsTotal:     h.RowsTotal,
		RowsMatched:   h.RowsMatched,
		BytesRead:     h.BytesRead,
		SkipRate:      h.SkipRate(),
	}
	// dicts returns each column's dictionary, or nil when none has one;
	// spell renders one tuple through them ("" for a column without a
	// dictionary or a value outside it).
	dicts := func(cols []int) [][]string {
		var out [][]string
		for i, c := range cols {
			if d := schema.Cols[c].Dict; len(d) > 0 {
				if out == nil {
					out = make([][]string, len(cols))
				}
				out[i] = d
			}
		}
		return out
	}
	spell := func(dicts [][]string, vals []int64) []string {
		out := make([]string, len(vals))
		for i, v := range vals {
			if d := dicts[i]; v >= 0 && v < int64(len(d)) {
				out[i] = d[v]
			}
		}
		return out
	}
	switch {
	case res.Agg != nil:
		for _, g := range res.Agg.GroupBy {
			resp.GroupBy = append(resp.GroupBy, schema.Cols[g].Name)
		}
		ds := dicts(res.Agg.GroupBy)
		resp.Rows = make([]QueryRow, len(res.Agg.Rows))
		for i, row := range res.Agg.Rows {
			resp.Rows[i] = QueryRow{Key: row.Key, Aggs: row.Vals}
			if ds != nil {
				resp.Rows[i].KeyStrings = spell(ds, row.Key)
			}
		}
	case res.Rows != nil:
		resp.Data = res.Rows.Rows
		resp.Join = res.Rows.Join
		cols := make([]int, len(res.Rows.Cols))
		for i, cr := range res.Rows.Cols {
			cols[i] = cr.Col
			name := schema.Cols[cr.Col].Name
			if jq := stmt.Join; jq != nil {
				alias := jq.LeftTable
				if cr.Side == 1 {
					alias = jq.RightTable
				}
				name = alias + "." + name
			}
			resp.Columns = append(resp.Columns, name)
		}
		if ds := dicts(cols); ds != nil {
			resp.DataStrings = make([][]string, len(res.Rows.Rows))
			for i, row := range res.Rows.Rows {
				resp.DataStrings[i] = spell(ds, row)
			}
		}
	}
	return resp
}

// Header reads a reply's stats block back into the executor's shape —
// what a front door merges when the reply came from a shard.
func (r QueryResponse) Header() exec.Header {
	return exec.Header{
		Query: r.Query,
		ScanStats: exec.ScanStats{
			BlocksScanned: r.BlocksScanned,
			RowsScanned:   r.RowsScanned,
			RowsMatched:   r.RowsMatched,
			BytesRead:     r.BytesRead,
		},
		BlocksTotal: r.BlocksTotal,
		RowsTotal:   r.RowsTotal,
		WallTime:    time.Duration(r.WallTimeNS),
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
