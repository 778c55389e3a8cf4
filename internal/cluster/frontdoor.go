package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// ErrAllShardsFailed reports a scatter in which every owning
// (non-pruned) shard failed after retries, and not every one of them
// with a 4xx (that is the shards' ClientError) — the one condition a
// front door maps to 503. Partial failures return a Result with Partial
// set.
var ErrAllShardsFailed = errors.New("cluster: all owning shards failed")

// ErrJoinUnsupported reports a two-table join sent to the front door.
// Joins need one node to see both sides' rows; a sharded scatter would
// miss every cross-shard pair. The HTTP layer maps this to 501 — run the
// join against a standalone server (or one shard holding both tables).
var ErrJoinUnsupported = errors.New("cluster: joins are not supported across shards; run them on a single node")

// ClientError marks a fault in the request itself (unparsable SQL, bad
// ingest rows) as opposed to a shard-side failure; the HTTP layer maps
// it to 400.
type ClientError struct{ Err error }

func (e ClientError) Error() string { return e.Err.Error() }
func (e ClientError) Unwrap() error { return e.Err }

// FrontDoorOptions tunes the scatter client.
type FrontDoorOptions struct {
	// ACs is the advanced-cut table queries may reference; it must match
	// the table the shards were initialized with. Queries that would
	// introduce new cuts are rejected.
	ACs []expr.AdvCut
	// Timeout bounds one HTTP attempt against one shard (default 10s).
	Timeout time.Duration
	// Retries is how many extra attempts a failed shard call gets
	// (default 1; transport errors and 5xx responses are retried, 4xx —
	// the request's own fault — is not).
	Retries int
	// Client overrides the HTTP client (its Timeout is ignored; the
	// per-attempt Timeout above governs).
	Client *http.Client
	// SlowQuery is the latency threshold for slow-query accounting
	// (default 250ms; negative disables it).
	SlowQuery time.Duration
	// Metrics is the registry behind GET /metrics (nil = own registry).
	Metrics *obs.Registry
	// TraceRingSize bounds the recent/slow trace rings behind
	// GET /debug/traces (default obs.DefaultTraceRingSize).
	TraceRingSize int
}

// shardState is the front door's view of one store node: its address and
// the last summary fetched from it, under its own lock so a slow refresh
// of one shard never blocks queries touching the others.
type shardState struct {
	id   int
	addr string

	mu  sync.RWMutex
	sum serve.Summary
}

func (st *shardState) summary() serve.Summary {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.sum
}

// FrontDoor is the stateless scatter/gather tier: it owns no data, only
// the peer list, the schema (learned from the shards), and cached shard
// summaries used for shard-level pruning and ingest routing. Safe for
// concurrent use.
type FrontDoor struct {
	shards  []*shardState
	schema  *table.Schema
	acs     []expr.AdvCut
	client  *http.Client
	timeout time.Duration
	retries int

	reg        *obs.Registry
	metrics    *fdMetrics
	traces     *obs.TraceRing
	slowThresh time.Duration

	queries     atomic.Int64
	slowQueries atomic.Int64
	contacted   atomic.Int64
	pruned      atomic.Int64
	failures    atomic.Int64
	partials    atomic.Int64
	ingested    atomic.Int64
}

// NewFrontDoor connects to the given shard addresses (host:port or full
// http:// URLs), fetches every shard's summary, and verifies the shards
// agree on the schema. All peers must be reachable at startup; losing one
// later degrades gracefully per query instead.
func NewFrontDoor(addrs []string, opt FrontDoorOptions) (*FrontDoor, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: front door needs at least one shard address")
	}
	fd := &FrontDoor{
		acs:        opt.ACs,
		client:     opt.Client,
		timeout:    opt.Timeout,
		retries:    opt.Retries,
		reg:        opt.Metrics,
		traces:     obs.NewTraceRing(opt.TraceRingSize),
		slowThresh: opt.SlowQuery,
	}
	if fd.client == nil {
		fd.client = &http.Client{}
	}
	if fd.timeout <= 0 {
		fd.timeout = 10 * time.Second
	}
	if fd.slowThresh == 0 {
		fd.slowThresh = 250 * time.Millisecond
	} else if fd.slowThresh < 0 {
		fd.slowThresh = 0
	}
	if fd.reg == nil {
		fd.reg = obs.NewRegistry()
	}
	fd.metrics = newFDMetrics(fd.reg, fd)
	if fd.retries < 0 {
		fd.retries = 0
	} else if opt.Retries == 0 {
		fd.retries = 1
	}
	for i, addr := range addrs {
		fd.shards = append(fd.shards, &shardState{id: i, addr: normalizeAddr(addr)})
	}
	for _, st := range fd.shards {
		sum, err := fd.fetchSummary(st)
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d (%s): %w", st.id, st.addr, err)
		}
		st.sum = sum
	}
	first := fd.shards[0].sum.Columns
	for _, st := range fd.shards[1:] {
		if !sameColumns(first, st.sum.Columns) {
			return nil, fmt.Errorf("cluster: shard %d (%s) schema differs from shard 0", st.id, st.addr)
		}
	}
	schema, err := table.NewSchema(first)
	if err != nil {
		return nil, fmt.Errorf("cluster: shard schema: %w", err)
	}
	fd.schema = schema
	return fd, nil
}

func normalizeAddr(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimRight(addr, "/")
	}
	return "http://" + strings.TrimRight(addr, "/")
}

func sameColumns(a, b []table.Column) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Kind != b[i].Kind || a[i].Dom != b[i].Dom {
			return false
		}
	}
	return true
}

// Schema is the cluster schema learned from the shards.
func (fd *FrontDoor) Schema() *table.Schema { return fd.schema }

// NumShards is the size of the peer list.
func (fd *FrontDoor) NumShards() int { return len(fd.shards) }

// Summaries snapshots the cached shard summaries in shard-id order.
func (fd *FrontDoor) Summaries() []serve.Summary {
	out := make([]serve.Summary, len(fd.shards))
	for i, st := range fd.shards {
		out[i] = st.summary()
	}
	return out
}

// Refresh re-fetches every shard's summary. A shard that cannot be
// reached keeps its previous (conservative) summary; the error reports
// which shards failed.
func (fd *FrontDoor) Refresh() error {
	var wg sync.WaitGroup
	errs := make([]error, len(fd.shards))
	for i, st := range fd.shards {
		wg.Add(1)
		go func(i int, st *shardState) {
			defer wg.Done()
			sum, err := fd.fetchSummary(st)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d (%s): %w", st.id, st.addr, err)
				return
			}
			st.mu.Lock()
			st.sum = sum
			st.mu.Unlock()
		}(i, st)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ShardError reports one failed shard call.
type ShardError struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr"`
	Err   string `json:"error"`
}

// Result is one gathered cluster query: the statement, the merged
// answer in the shape a single node returns (named after the canonical
// SQL that was scattered; Generation stays 0 — a cluster has none) and
// the scatter's shape — how many shards were pruned by the summary
// envelopes, contacted, and lost. Partial marks an answer that is
// missing failed shards' rows; bit-identity to a single-node run holds
// exactly when Partial is false.
type Result struct {
	Stmt expr.Statement
	serve.Result

	ShardsTotal     int
	ShardsPruned    int
	ShardsContacted int
	ShardsFailed    int
	Retries         int
	Partial         bool
	Failed          []ShardError
}

// parse routes the statement exactly like a standalone server
// (sqlparse.Parser.ParseStatement). Joins are rejected with
// ErrJoinUnsupported — a sharded scatter would miss every cross-shard
// pair. The front door's AC table seeds the parser, and a statement that
// would intern a new cut is rejected — the shards were not planned with
// it.
func (fd *FrontDoor) parse(sql string) (expr.Statement, error) {
	p := sqlparse.NewParser(fd.schema)
	p.ACs = append([]expr.AdvCut(nil), fd.acs...)
	stmt, err := p.ParseStatement(sql)
	switch {
	case err != nil:
		return stmt, ClientError{err}
	case stmt.Join != nil:
		return stmt, ErrJoinUnsupported
	case len(p.ACs) > len(fd.acs):
		return stmt, ClientError{fmt.Errorf("cluster: statement introduces advanced cut %v not in the cluster's table", p.ACs[len(p.ACs)-1])}
	}
	return stmt, nil
}

// Query parses the statement once, prunes shards whose summary envelope
// cannot match, scatters the canonical SQL to the owners, and gathers
// the partials into one cluster-wide answer.
func (fd *FrontDoor) Query(sql string) (*Result, error) {
	return fd.QueryTraced(sql, nil, false)
}

// QueryTraced is Query recording the scatter's stage spans into tr (nil
// starts a fresh internal trace — the front door traces every gathered
// query for its metrics and trace ring). With deep set, the scatter also
// asks each shard for its own spans and imports them under the
// shard-call offsets, yielding the full parse → shard_prune → per-shard
// block_prune/scan → merge picture a "trace": true client sees.
func (fd *FrontDoor) QueryTraced(sql string, tr *obs.Trace, deep bool) (*Result, error) {
	if tr == nil {
		tr = obs.NewTrace("")
	}
	psp := tr.Start("parse")
	stmt, err := fd.parse(sql)
	if err != nil {
		return nil, err
	}
	psp.End()
	fd.queries.Add(1)
	res, err := fd.scatterGather(stmt, tr, deep)
	fd.observe(tr, stmt.Type(), err)
	return res, err
}

// owners splits the peer list by the pruning filter: shards whose cached
// summary may match, and the pruned remainder's cached base totals
// (rows/blocks the cluster-wide skip rate counts as skipped). The
// shard_prune span names every pruned shard and the envelope bound that
// pruned it.
func (fd *FrontDoor) owners(filter expr.Query, tr *obs.Trace) (owning []*shardState, prunedRows int64, prunedBlocks int) {
	sp := tr.Start("shard_prune")
	var pruned []ShardPrune
	for _, st := range fd.shards {
		sum := st.summary()
		if sum.MayMatch(filter) {
			owning = append(owning, st)
		} else {
			prunedRows += int64(sum.Rows)
			prunedBlocks += sum.Blocks
			fd.metrics.shardRequests.With("pruned").Inc()
			if tr != nil {
				pruned = append(pruned, fd.shardPruneCause(st, sum, filter))
			}
		}
	}
	sp.SetAttr("shards_total", len(fd.shards)).
		SetAttr("shards_owning", len(owning)).
		SetAttr("shards_pruned", len(fd.shards)-len(owning))
	if len(pruned) > 0 {
		sp.SetAttr("pruned", pruned)
	}
	sp.End()
	return owning, prunedRows, prunedBlocks
}

// shardCall is one scattered request: aggregation statements answer
// with a partial (agg), every other kind with a standalone /query reply.
type shardCall struct {
	st      *shardState
	retries int
	err     error
	reply   serve.QueryResponse
	agg     SelectPartialResponse
}

// shardLabel names a shard in traces: its self-reported summary label,
// falling back to the peer index.
func shardLabel(st *shardState) string {
	if lbl := st.summary().Shard; lbl != "" {
		return lbl
	}
	return fmt.Sprintf("shard_%d", st.id)
}

// scatter fans one statement out to the owning shards (aggregations to
// /cluster/select for partial state, everything else to /query), bounded
// by the per-shard timeout and retry budget, and waits for all of them.
// Each call gets a "shard" span; with deep set the shards are asked for
// their own spans, which are imported under the call's start offset so
// the gathered trace shows the remote block_prune/scan work inline.
func (fd *FrontDoor) scatter(owning []*shardState, canonical string, decodeAgg bool, tr *obs.Trace, deep bool) []*shardCall {
	path, body := "/query", serve.QueryRequest{SQL: canonical, Trace: deep}
	if decodeAgg {
		path = "/cluster/select"
	}
	calls := make([]*shardCall, len(owning))
	var wg sync.WaitGroup
	for i, st := range owning {
		calls[i] = &shardCall{st: st}
		wg.Add(1)
		go func(c *shardCall) {
			defer wg.Done()
			label := shardLabel(c.st)
			ssp := tr.Start("shard")
			ssp.SetAttr("shard", label).SetAttr("addr", c.st.addr)
			var dst any = &c.reply
			if decodeAgg {
				dst = &c.agg
			}
			c.retries, c.err = fd.retry(func() error {
				return fd.postTraced(c.st.addr+path, body, dst, tr.ID())
			})
			outcome := "ok"
			if c.err != nil {
				outcome = "failed"
			}
			ssp.SetAttr("outcome", outcome)
			if c.retries > 0 {
				ssp.SetAttr("retries", c.retries)
			}
			if deep && c.err == nil {
				var remote *obs.TraceData
				if decodeAgg {
					remote = c.agg.Trace
				} else {
					remote = c.reply.Trace
				}
				if remote != nil {
					tr.AddRemote(label, ssp.StartNS(), remote.Spans)
				}
			}
			ssp.End()
		}(calls[i])
	}
	wg.Wait()
	return calls
}

// gatherShape fills the scatter-shape half of a Result and returns the
// successful calls.
func (fd *FrontDoor) gatherShape(res *Result, calls []*shardCall) []*shardCall {
	var ok []*shardCall
	for _, c := range calls {
		res.Retries += c.retries
		fd.contacted.Add(1)
		if c.retries > 0 {
			fd.metrics.shardRequests.With("retry").Add(uint64(c.retries))
		}
		if c.err != nil {
			res.ShardsFailed++
			res.Failed = append(res.Failed, ShardError{Shard: c.st.id, Addr: c.st.addr, Err: c.err.Error()})
			fd.failures.Add(1)
			fd.metrics.shardRequests.With("failed").Inc()
			continue
		}
		fd.metrics.shardRequests.With("ok").Inc()
		ok = append(ok, c)
	}
	sort.Slice(res.Failed, func(i, j int) bool { return res.Failed[i].Shard < res.Failed[j].Shard })
	res.Partial = res.ShardsFailed > 0
	if res.Partial {
		fd.partials.Add(1)
		fd.metrics.partials.Inc()
	}
	return ok
}

// scatterGather runs one statement across the cluster. Pruning, the
// scatter and the shape accounting do not depend on the statement kind;
// only the merge does:
//
//   - Filter counts sum.
//   - Aggregations fold the shards' partial states (exec.MergeAggPartials)
//     and finalize once, so AVG/MIN/MAX are bit-identical to one node.
//   - Row statements carry their ORDER BY/LIMIT in the canonical SQL, so
//     each shard answers with its own local top-k (at most k rows cross
//     the wire per shard); the gather re-sorts the union with the same
//     deterministic comparator and re-applies the limit. Shards partition
//     the rows disjointly, so the re-merged union is bit-identical to a
//     single-node run whenever no shard failed.
func (fd *FrontDoor) scatterGather(stmt expr.Statement, tr *obs.Trace, deep bool) (*Result, error) {
	canonical := stmt.StringWith(fd.schema.Names(), fd.acs)
	owning, prunedRows, prunedBlocks := fd.owners(stmt.Filters()[0], tr)
	res := &Result{
		Stmt:            stmt,
		ShardsTotal:     len(fd.shards),
		ShardsPruned:    len(fd.shards) - len(owning),
		ShardsContacted: len(owning),
	}
	fd.pruned.Add(int64(res.ShardsPruned))
	calls := fd.scatter(owning, canonical, stmt.Agg != nil, tr, deep)
	msp := tr.Start("merge")
	defer msp.End()
	ok := fd.gatherShape(res, calls)
	msp.SetAttr("shards_merged", len(ok))
	if len(owning) > 0 && len(ok) == 0 {
		if ce, ok := requestFault(calls); ok {
			return nil, ce
		}
		return nil, fmt.Errorf("%w: %s", ErrAllShardsFailed, canonical)
	}
	if aq := stmt.Agg; aq != nil {
		// Seed with the empty partial so an all-pruned scatter still yields
		// the result a single-node run over zero matching rows produces.
		parts := []*exec.AggPartialResult{exec.EmptyAggPartial(canonical, len(aq.Aggs), aq.GroupBy)}
		for _, c := range ok {
			if c.agg.Partial == nil {
				return nil, fmt.Errorf("cluster: shard %d returned no partial", c.st.id)
			}
			parts = append(parts, c.agg.Partial)
		}
		merged, err := exec.MergeAggPartials(aq.Aggs, parts...)
		if err != nil {
			return nil, err
		}
		res.Agg = merged.Finalize(aq.Aggs)
	} else {
		var h exec.Header
		rows := [][]int64{}
		for _, c := range ok {
			h.Merge(c.reply.Header())
			rows = append(rows, c.reply.Data...)
		}
		if rq := stmt.Row; rq != nil {
			exec.SortRows(rows, rq.OrderBy)
			if rq.Limit > 0 && len(rows) > rq.Limit {
				rows = rows[:rq.Limit]
			}
			res.Rows = &exec.RowsResult{Header: h, Rows: rows}
			for _, c := range rq.Cols {
				res.Rows.Cols = append(res.Rows.Cols, expr.ColRef{Col: c})
			}
			msp.SetAttr("rows_returned", len(rows))
		} else {
			res.Filter = &exec.Result{Header: h}
		}
	}
	// Pruned shards' rows are part of the universe the cluster skipped —
	// count them in the totals so the cluster-wide skip rate reflects
	// shard-level pruning.
	h := res.Header()
	h.Query = canonical
	h.RowsTotal += prunedRows
	h.BlocksTotal += prunedBlocks
	return res, nil
}

// requestFault returns the first call's ClientError when every call
// failed with one: each owning shard blamed the request, so the client
// gets that 4xx rather than a shard failure. A mix with any other
// failure is a shard failure.
func requestFault(calls []*shardCall) (ClientError, bool) {
	var first ClientError
	for i, c := range calls {
		var ce ClientError
		if !errors.As(c.err, &ce) {
			return ClientError{}, false
		}
		if i == 0 {
			first = ce
		}
	}
	return first, len(calls) > 0
}

// IngestResult reports one routed ingest batch.
type IngestResult struct {
	Inserted int          `json:"inserted"`
	PerShard map[int]int  `json:"per_shard"`
	Failed   []ShardError `json:"failed,omitempty"`
}

// Ingest validates the batch once against the cluster schema, routes each
// row to the shard whose summary envelope contains it (first match in
// shard-id order; rows outside every envelope go to the least-loaded
// shard), and forwards the per-shard slices. Routed rows land in the
// owning shard's delta store, making that shard unprunable until its own
// compactor folds them in — the cached summary is widened locally so
// pruning stays sound without waiting for a refresh.
func (fd *FrontDoor) Ingest(req serve.IngestRequest) (*IngestResult, error) {
	rows, err := serve.DecodeIngestRows(fd.schema, req)
	if err != nil {
		return nil, ClientError{err}
	}
	sums := fd.Summaries()
	batches := make(map[int][][]int64)
	for _, row := range rows {
		id := fd.routeRow(sums, row)
		batches[id] = append(batches[id], row)
	}
	out := &IngestResult{PerShard: make(map[int]int)}
	ids := make([]int, 0, len(batches))
	for id := range batches {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var errs []error
	for _, id := range ids {
		st := fd.shards[id]
		batch := batches[id]
		var resp serve.IngestResponse
		_, err := fd.retry(func() error { return fd.postTraced(st.addr+"/ingest", ingestBody(batch), &resp, "") })
		if err != nil {
			out.Failed = append(out.Failed, ShardError{Shard: id, Addr: st.addr, Err: err.Error()})
			errs = append(errs, fmt.Errorf("shard %d (%s): %w", id, st.addr, err))
			continue
		}
		out.Inserted += resp.Inserted
		out.PerShard[id] = resp.Inserted
		fd.ingested.Add(int64(resp.Inserted))
		fd.metrics.ingestRows.Add(uint64(resp.Inserted))
		// Widen the cached summary: the shard now has uncompacted delta
		// rows, so MayMatch must return true until the next refresh.
		st.mu.Lock()
		st.sum.DeltaRows += resp.Inserted
		st.mu.Unlock()
	}
	if len(errs) > 0 {
		return out, fmt.Errorf("cluster: ingest forwarded %d rows but lost %d shard batches: %w",
			out.Inserted, len(errs), errors.Join(errs...))
	}
	return out, nil
}

// routeRow picks the owning shard for one row: the first shard whose base
// envelope contains the row on every column, else the least-loaded shard
// (fewest base+delta rows, lowest id on ties). Correctness never depends
// on the choice — any shard's own layout adapts to what it stores — so
// routing only aims to keep envelopes tight and loads level.
func (fd *FrontDoor) routeRow(sums []serve.Summary, row []int64) int {
	for i, sum := range sums {
		if sum.Rows == 0 || len(sum.Min) != len(row) {
			continue
		}
		inside := true
		for c, v := range row {
			if v < sum.Min[c] || v > sum.Max[c] {
				inside = false
				break
			}
		}
		if inside {
			return i
		}
	}
	best, bestLoad := 0, int(^uint(0)>>1)
	for i, sum := range sums {
		if load := sum.Rows + sum.DeltaRows; load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

func ingestBody(rows [][]int64) serve.IngestRequest {
	req := serve.IngestRequest{Rows: make([][]json.RawMessage, len(rows))}
	for i, row := range rows {
		vals := make([]json.RawMessage, len(row))
		for c, v := range row {
			vals[c] = json.RawMessage(fmt.Sprintf("%d", v))
		}
		req.Rows[i] = vals
	}
	return req
}

// Stats is the front door's observability snapshot.
type Stats struct {
	Shards          int             `json:"shards"`
	Queries         int64           `json:"queries"`
	SlowQueries     int64           `json:"slow_queries"`
	ShardsContacted int64           `json:"shards_contacted"`
	ShardsPruned    int64           `json:"shards_pruned"`
	ShardFailures   int64           `json:"shard_failures"`
	PartialResults  int64           `json:"partial_results"`
	RowsIngested    int64           `json:"rows_ingested"`
	Summaries       []serve.Summary `json:"summaries"`
}

// Stats snapshots the front door's counters and cached shard summaries.
func (fd *FrontDoor) Stats() Stats {
	return Stats{
		Shards:          len(fd.shards),
		Queries:         fd.queries.Load(),
		SlowQueries:     fd.slowQueries.Load(),
		ShardsContacted: fd.contacted.Load(),
		ShardsPruned:    fd.pruned.Load(),
		ShardFailures:   fd.failures.Load(),
		PartialResults:  fd.partials.Load(),
		RowsIngested:    fd.ingested.Load(),
		Summaries:       fd.Summaries(),
	}
}

// fetchSummary pulls one shard's current summary (with the retry budget).
func (fd *FrontDoor) fetchSummary(st *shardState) (serve.Summary, error) {
	var sum serve.Summary
	_, err := fd.retry(func() error {
		req, err := http.NewRequest(http.MethodGet, st.addr+"/cluster/summary", nil)
		if err != nil {
			return err
		}
		return fd.do(req, &sum)
	})
	return sum, err
}

// retry runs one shard call, retrying it up to the front door's budget
// with a 50 ms pause between attempts, and returns how many retries it
// took and the last error. A ClientError (4xx: the request itself is at
// fault) is returned at once and never retried; 5xx and transport errors
// are retriable shard failures.
func (fd *FrontDoor) retry(call func() error) (retries int, err error) {
	for {
		err = call()
		var ce ClientError
		if err == nil || errors.As(err, &ce) || retries >= fd.retries {
			return retries, err
		}
		retries++
		time.Sleep(50 * time.Millisecond)
	}
}

// postTraced issues one HTTP POST attempt of body as JSON, decoding the
// reply into dst. A non-empty traceID propagates the gathered query's
// trace to the shard via the X-Qd-Trace-Id header, so shard-side trace
// rings and logs correlate with the front door's.
func (fd *FrontDoor) postTraced(url string, body any, dst any, traceID string) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	return fd.do(req, dst)
}

// do issues one HTTP attempt. A 4xx response comes back as ClientError.
func (fd *FrontDoor) do(req *http.Request, dst any) error {
	ctx, cancel := context.WithTimeout(req.Context(), fd.timeout)
	defer cancel()
	resp, err := fd.client.Do(req.WithContext(ctx))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := readErrBody(resp.Body)
		err := fmt.Errorf("shard returned %d: %s", resp.StatusCode, msg)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return ClientError{err}
		}
		return err
	}
	return json.NewDecoder(resp.Body).Decode(dst)
}

// readErrBody extracts the {"error": ...} message a shard's JSON error
// responses carry, falling back to the raw body.
func readErrBody(r io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}
