package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// QueryResponse is the front door's POST /query reply: the merged
// cluster-wide answer in the same shape a standalone server returns,
// plus the scatter's shape. Clients must check Partial — a true value
// means failed shards' rows are missing from the answer.
type QueryResponse struct {
	serve.QueryResponse
	ShardsTotal     int          `json:"shards_total"`
	ShardsPruned    int          `json:"shards_pruned"`
	ShardsContacted int          `json:"shards_contacted"`
	ShardsFailed    int          `json:"shards_failed"`
	Retries         int          `json:"retries,omitempty"`
	Partial         bool         `json:"partial"`
	Failed          []ShardError `json:"failed,omitempty"`
}

// Note: the embedded serve.QueryResponse carries the Trace field; for a
// front-door query it holds the gathered trace — parse, shard_prune
// (naming each pruned shard and the envelope bound), one shard span per
// contacted peer with the peer's own block_prune/scan spans imported
// under it, and merge.

// IngestResponse is the front door's POST /ingest reply.
type IngestResponse struct {
	Inserted int          `json:"inserted"`
	PerShard map[int]int  `json:"per_shard"`
	Failed   []ShardError `json:"failed,omitempty"`
}

// FrontDoorHandler mounts the scatter/gather tier's HTTP surface:
//
//	POST /query         {"sql": "..."}  → merged cluster answer (QueryResponse)
//	POST /ingest        {"rows": ...}   → routed ingest (IngestResponse)
//	GET  /stats                         → front-door Stats
//	GET  /metrics                       → Prometheus text exposition
//	GET  /debug/traces                  → recent + slow gathered traces
//	POST /refresh                       → re-fetch shard summaries
//	GET  /healthz                       → 200 ok
//
// POST /query honors {"trace": true} — the reply then inlines the
// gathered trace, with each contacted shard's own spans imported — and
// the X-Qd-Trace-Id header for caller-supplied trace IDs.
//
// Error mapping: request faults are 400, two-table joins are 501 (a
// sharded scatter would miss cross-shard pairs — run joins on a single
// node), a scatter that loses every owning shard is 503, an ingest that
// loses any shard batch is 502; a scatter that loses some (not all)
// owning shards still answers 200 with "partial": true.
//
// Single-table row statements (projection, ORDER BY/LIMIT) scatter with
// top-k pushdown: each shard answers its local top-k and the front door
// re-merges with the same deterministic comparator, so the gathered
// Columns/Data are bit-identical to a single-node run when no shard
// failed.
func FrontDoorHandler(fd *FrontDoor) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req serve.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		if req.SQL == "" {
			httpErr(w, http.StatusBadRequest, `body needs {"sql": "..."}`)
			return
		}
		start := time.Now()
		tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
		res, err := fd.QueryTraced(req.SQL, tr, req.Trace)
		if err != nil {
			var ce ClientError
			switch {
			case errors.Is(err, ErrJoinUnsupported):
				httpErr(w, http.StatusNotImplemented, "%v", err)
			case errors.As(err, &ce):
				httpErr(w, http.StatusBadRequest, "%v", err)
			case errors.Is(err, ErrAllShardsFailed):
				httpErr(w, http.StatusServiceUnavailable, "%v", err)
			default:
				httpErr(w, http.StatusInternalServerError, "%v", err)
			}
			return
		}
		resp := QueryResponse{
			QueryResponse:   serve.Render(fd.Schema(), res.Stmt, res.Result),
			ShardsTotal:     res.ShardsTotal,
			ShardsPruned:    res.ShardsPruned,
			ShardsContacted: res.ShardsContacted,
			ShardsFailed:    res.ShardsFailed,
			Retries:         res.Retries,
			Partial:         res.Partial,
			Failed:          res.Failed,
		}
		resp.WallTimeNS = int64(time.Since(start))
		if req.Trace {
			resp.Trace = tr.Snapshot()
		}
		writeJSON(w, resp)
	})
	mux.Handle("/metrics", fd.Metrics().Handler())
	mux.Handle("/debug/traces", fd.Traces().Handler())
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		var req serve.IngestRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpErr(w, http.StatusBadRequest, "bad JSON: %v", err)
			return
		}
		if len(req.Rows) == 0 {
			httpErr(w, http.StatusBadRequest, `body needs {"rows": [[...], ...]}`)
			return
		}
		res, err := fd.Ingest(req)
		if err != nil {
			var ce ClientError
			if errors.As(err, &ce) {
				httpErr(w, http.StatusBadRequest, "%v", err)
				return
			}
			httpErr(w, http.StatusBadGateway, "%v", err)
			return
		}
		writeJSON(w, IngestResponse{Inserted: res.Inserted, PerShard: res.PerShard, Failed: res.Failed})
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			httpErr(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		writeJSON(w, fd.Stats())
	})
	mux.HandleFunc("/refresh", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		if err := fd.Refresh(); err != nil {
			httpErr(w, http.StatusBadGateway, "%v", err)
			return
		}
		writeJSON(w, fd.Stats())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	return mux
}
