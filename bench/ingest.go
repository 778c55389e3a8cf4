package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/expr"
	"repro/internal/table"
	"repro/internal/workload"
)

// The ingest workload's writer script, per cycle: batchesPerCycle
// POST /ingest batches of ingestBatchRows seeded rows, one every
// batchInterval, then one forced POST /compact. Cycles repeat until the
// phase's time is up; then one forced POST /relayout, and Close +
// NewServer reopen.
//
// The writer is paced (a log shipper sends on its own schedule, whatever
// the server does), not closed-loop: a reader's latency grows with the
// delta rows pending, and with a paced writer the rows pending at any
// moment of a cycle are fixed by the schedule instead of by how fast the
// host happens to be, which is what makes the reader's medians repeat. A
// batch's latency counts from when it was due, so a server that falls
// behind the schedule shows it.
const (
	batchesPerCycle = 40
	batchInterval   = 50 * time.Millisecond // 10,000 rows/s offered
)

// readerStride thins the point list for the ingest reader (see
// readerStatements).
const readerStride = 12

// ingestTruth tracks every reader statement's truth across ingested
// batches. State j is the base table plus batches [0, j). Inserts are
// atomic per batch and a query reads one snapshot, so a reply must be
// the exact reference answer at some state between the batches
// acknowledged before the request and the batches sent before the reply.
type ingestTruth struct {
	acs     []expr.AdvCut
	batches [][][]int64 // [batch][row][col]
	bodies  [][]byte    // POST /ingest bodies
	perStmt map[*stmt]*stmtTruth
}

// stmtTruth is one statement's history. For filters cum[j] counts the
// matches in batches [0, j). For aggregations and row statements base is
// the sub-table of matching base rows and ins the matching ingested rows
// tagged with their batch, so the reference can be re-run over the few
// rows that matter at any state.
type stmtTruth struct {
	cum  []int32
	base *table.Table
	ins  []insertedRow
	// memo is the truth with the first memoN > 0 matching inserts applied
	// (states advance monotonically and matching inserts are rare).
	memoN int
	memo  stmt
}

type insertedRow struct {
	batch int
	row   []int64
}

// newIngestTruth generates nbatches seeded batches (rows drawn from the
// same ErrorLog distribution, a seed apart from the base table) and
// precomputes each reader statement's truth history over them.
func newIngestTruth(e *env, reader []*stmt, subs map[*stmt]*table.Table, nbatches int) *ingestTruth {
	src := workload.ErrorLogInt(workload.ErrorLogConfig{
		Rows: nbatches * ingestBatchRows, NumQueries: 1, Seed: e.cfg.Seed + 7919}).Table
	it := &ingestTruth{acs: e.plan.ACs, perStmt: map[*stmt]*stmtTruth{}}
	row := make([]int64, src.Schema.NumCols())
	for b := 0; b < nbatches; b++ {
		rows := make([][]int64, ingestBatchRows)
		for r := range rows {
			rows[r] = append([]int64(nil), src.Row(b*ingestBatchRows+r, row)...)
		}
		it.batches = append(it.batches, rows)
		it.bodies = append(it.bodies, ingestBody(rows))
	}
	for _, st := range reader {
		tr := &stmtTruth{base: subs[st]}
		if st.Class == classFilter {
			tr.cum = make([]int32, nbatches+1)
		}
		it.perStmt[st] = tr
	}
	for b, rows := range it.batches {
		for _, st := range reader {
			tr := it.perStmt[st]
			n := int32(0)
			for _, r := range rows {
				if st.Filter.Eval(r, it.acs) {
					n++
					if tr.cum == nil {
						tr.ins = append(tr.ins, insertedRow{batch: b, row: r})
					}
				}
			}
			if tr.cum != nil {
				tr.cum[b+1] = tr.cum[b] + n
			}
		}
	}
	return it
}

// ingestBody renders rows as a POST /ingest body of integer codes.
func ingestBody(rows [][]int64) []byte {
	var buf bytes.Buffer
	buf.WriteString(`{"rows":[`)
	for i, r := range rows {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteByte('[')
		for j, v := range r {
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.WriteString(strconv.FormatInt(v, 10))
		}
		buf.WriteByte(']')
	}
	buf.WriteString("]}")
	return buf.Bytes()
}

func (it *ingestTruth) verify(st *stmt, resp *queryResponse, lo, hi int) bool {
	tr := it.perStmt[st]
	if tr == nil {
		return false
	}
	hi = min(hi, len(it.batches))
	for j := lo; j <= hi; j++ {
		if st.Class == classFilter {
			if resp.RowsMatched == st.Count+int64(tr.cum[j]) {
				return true
			}
			continue
		}
		if sameAnswer(tr.at(st, j, it.acs), resp) {
			return true
		}
	}
	return false
}

// at returns the statement with its truth at state j.
func (tr *stmtTruth) at(st *stmt, j int, acs []expr.AdvCut) *stmt {
	n := sort.Search(len(tr.ins), func(i int) bool { return tr.ins[i].batch >= j })
	if n == 0 {
		return st // no ingested row matches yet: the base truth stands
	}
	if tr.memoN == n {
		return &tr.memo
	}
	tbl := table.New(tr.base.Schema, tr.base.N+n)
	tbl.Concat(tr.base)
	for _, ir := range tr.ins[:n] {
		tbl.AppendRow(ir.row)
	}
	tr.memo = *st
	reference(tbl, &tr.memo, acs)
	tr.memoN = n
	return &tr.memo
}

// ingestStats is what the writer observed.
type ingestStats struct {
	batches, rows   int
	cycles          [][2]time.Time // each cycle's first batch sent → its compaction done
	batchHTTP       []float64      // ms per POST /ingest batch
	batchInProc     []float64      // ms per in-process Server.Insert batch (traced run)
	compactS        []float64
	compactBytes    []float64
	pendingRows     []float64 // delta rows pending, sampled per batch (traced run)
	segmentsSealed  int       // delta segments at each compaction start, summed (traced run)
	writeAmp        float64
	relayoutS       float64
	reopenS         float64
	finalRows       int
	wantRows        int
	exhausted       bool        // ran out of pre-generated batches before the time was up
	cache           cacheCounts // plan-cache counters just before the reopen resets them
	compactElapsedS float64
	readerWaitS     float64 // the reader's time blocked while compactions ran (ingestClock.gate)
}

// serverStats is the part of GET /stats the benchmark reads.
type serverStats struct {
	PlanCacheHits   uint64  `json:"plan_cache_hits"`
	PlanCacheMisses uint64  `json:"plan_cache_misses"`
	DeltaRows       int     `json:"delta_rows"`
	DeltaSegments   int     `json:"delta_segments"`
	WriteAmp        float64 `json:"write_amplification"`
}

func getStats(c *http.Client, url string) (serverStats, error) {
	var st serverStats
	resp, err := c.Get(url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// compactReport is the part of a POST /compact reply the benchmark reads.
type compactReport struct {
	Swapped      bool  `json:"swapped"`
	BytesWritten int64 `json:"bytes_written"`
}

// runWriter drives the writer script against e until deadline, keeping
// clock current for the reader. With rec set (the traced run) every
// other batch goes through the in-process Server.Insert instead of HTTP,
// /stats is sampled per batch, and every call is recorded as a span.
func runWriter(e *env, it *ingestTruth, clock *ingestClock, deadline time.Time, rec *recorder, lane int) (ingestStats, error) {
	var st ingestStats
	client := newClient()
	defer client.CloseIdleConnections()
	srv := e.servers[0]
	span := func(name string, a, b time.Time) {
		if rec != nil {
			rec.add(lane, 0, st.batches, name, "", a, b)
		}
	}
	for time.Now().Before(deadline) && !st.exhausted {
		cycleStart := time.Now()
		for i := 0; i < batchesPerCycle; i++ {
			if st.batches == len(it.batches) {
				st.exhausted = true
				break
			}
			b := st.batches
			t0 := cycleStart.Add(time.Duration(i) * batchInterval) // when the batch is due
			time.Sleep(time.Until(t0))
			clock.sent.Add(1)
			if rec != nil && b%2 == 1 {
				if err := srv.Insert(it.batches[b]); err != nil {
					return st, fmt.Errorf("insert batch %d: %w", b, err)
				}
				t1 := time.Now()
				st.batchInProc = append(st.batchInProc, ms(t1.Sub(t0)))
				span(spanDeltaInsert, t0, t1)
			} else {
				data, status, err := post(client, e.url+"/ingest", it.bodies[b])
				t1 := time.Now()
				if err := checkStatus(fmt.Sprintf("ingest batch %d", b), status, data, err); err != nil {
					return st, err
				}
				st.batchHTTP = append(st.batchHTTP, ms(t1.Sub(t0)))
				span(spanClientIngest, t0, t1)
			}
			clock.acked.Add(1)
			st.batches++
			st.rows += ingestBatchRows
			if rec != nil {
				ss, err := getStats(client, e.url)
				if err != nil {
					return st, err
				}
				st.pendingRows = append(st.pendingRows, float64(ss.DeltaRows))
			}
		}
		if rec != nil {
			ss, err := getStats(client, e.url)
			if err != nil {
				return st, err
			}
			st.segmentsSealed += ss.DeltaSegments
		}
		clock.gate.Lock() // see ingestClock.gate
		t0 := time.Now()
		data, status, err := post(client, e.url+"/compact", nil)
		t1 := time.Now()
		clock.gate.Unlock()
		if err := checkStatus("compact", status, data, err); err != nil {
			return st, err
		}
		var rep compactReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return st, fmt.Errorf("compact reply: %w", err)
		}
		st.cycles = append(st.cycles, [2]time.Time{cycleStart, t1})
		if rep.Swapped {
			st.compactS = append(st.compactS, t1.Sub(t0).Seconds())
			st.compactBytes = append(st.compactBytes, float64(rep.BytesWritten))
			st.compactElapsedS += t1.Sub(t0).Seconds()
			span(spanCompact, t0, t1)
		}
	}
	ss, err := getStats(client, e.url)
	if err != nil {
		return st, err
	}
	st.writeAmp = ss.WriteAmp
	t0 := time.Now()
	data, status, err := post(client, e.url+"/relayout", nil)
	t1 := time.Now()
	if err := checkStatus("relayout", status, data, err); err != nil {
		return st, err
	}
	st.relayoutS = t1.Sub(t0).Seconds()
	span(spanRelayout, t0, t1)
	return st, nil
}

// countAll asks the server for COUNT(*) over everything it holds.
func countAll(e *env) (int, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	body, _ := json.Marshal(map[string]string{"sql": "SELECT COUNT(*) FROM logs"})
	data, status, err := post(client, e.url+"/query", body)
	if err := checkStatus("count after reopen", status, data, err); err != nil {
		return 0, err
	}
	var resp queryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return 0, err
	}
	if len(resp.Rows) != 1 || len(resp.Rows[0].Aggs) != 1 {
		return 0, fmt.Errorf("count after reopen: unexpected reply %s", bytes.TrimSpace(data))
	}
	return int(resp.Rows[0].Aggs[0].Int), nil
}

// runIngest runs the ingest workload's measured phase: one writer and
// one reader side by side for seconds, then relayout (reader still
// running), then the reader stops and the server is closed and reopened
// and must count exactly base + ingested rows.
func runIngest(e *env, seconds float64, rec *recorder) (phaseResult, ingestStats, error) {
	clock := &ingestClock{}
	stop := make(chan struct{})
	lp := e.loop(1)
	lp.clock, lp.stop = clock, stop
	if rec != nil {
		// Round trips only: the inner replays ran in the reader-only
		// pre-phase, against the generation the writer is about to retire.
		lp.tracer = &tracer{rec: rec, spansOnly: true}
	}
	done := make(chan phaseResult, 1)
	go func() { done <- lp.run() }()
	ws, werr := runWriter(e, e.prep.ingest, clock, deadlineIn(seconds), rec, 1)
	close(stop)
	res := <-done
	ws.readerWaitS = time.Duration(clock.waited.Load()).Seconds()
	if werr != nil {
		return res, ws, werr
	}
	var err error
	if ws.cache, err = planCacheCounts(e); err != nil {
		return res, ws, err
	}
	t0 := time.Now()
	d, err := e.reopen()
	if err != nil {
		return res, ws, err
	}
	ws.reopenS = d.Seconds()
	if rec != nil {
		rec.add(1, 0, ws.batches, spanReopen, "", t0, t0.Add(d))
	}
	ws.wantRows = e.cfg.Rows + ws.rows
	if ws.finalRows, err = countAll(e); err != nil {
		return res, ws, err
	}
	return res, ws, nil
}
