package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/serve"
)

// SelectPartialResponse is the POST /cluster/select body a store node
// returns: the unfinalized partial-aggregation state of its slice of the
// data plus the generation that served it. Trace carries the shard's own
// stage spans when the request set "trace": true (the front door imports
// them into the gathered trace).
type SelectPartialResponse struct {
	Shard      string                 `json:"shard,omitempty"`
	Generation int                    `json:"generation"`
	Partial    *exec.AggPartialResult `json:"partial"`
	Trace      *obs.TraceData         `json:"trace,omitempty"`
}

// ShardHandler mounts the store-node ("shardd") HTTP surface: the full
// standalone API of serve.Handler — a shard ingests, compacts, detects
// drift, and re-layouts on its own — plus the two endpoints a front door
// needs:
//
//	GET  /cluster/summary  → serve.Summary (pruning envelope + schema)
//	POST /cluster/select   {"sql": "SELECT ..."} → SelectPartialResponse
func ShardHandler(s *serve.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", serve.Handler(s))
	mux.HandleFunc("/cluster/summary", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, s.Summary())
	})
	mux.HandleFunc("/cluster/select", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req serve.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
		psp := tr.Start("parse")
		stmt, err := s.ParseStatement(req.SQL)
		if err == nil && stmt.Agg == nil {
			err = fmt.Errorf("/cluster/select takes an aggregation statement; send %s statements to /query", stmt.Type())
		}
		if err != nil {
			httpErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		psp.End()
		stmt.Partial = true
		res, err := s.Execute(stmt, tr)
		if err != nil {
			httpErr(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp := SelectPartialResponse{
			Shard:      s.Stats().Shard,
			Generation: res.Generation,
			Partial:    res.AggPartial,
		}
		if req.Trace {
			resp.Trace = tr.Snapshot()
		}
		writeJSON(w, resp)
	})
	return mux
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
