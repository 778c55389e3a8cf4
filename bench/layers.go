package main

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/table"
)

// tracer measures the layers from outside. After a client's HTTP round
// trip it replays the same statement through successively inner
// exported entry points — in-process Server, parser, executor, layout
// pruning, block reads — on the client's own goroutine, recording each
// replay as a child span of the layer that calls it in the real request
// path. A layer's self time is its span minus its children.
//
// The executor and block replays run against a second handle on the
// live generation (blockstore.OpenCurrent) with the planned layout, the
// server's default profile (Spark: whole blocks are read) and default
// parallelism, so they do the work the server's own scan does without
// sharing its file handles or arenas' contents.
type tracer struct {
	rec    *recorder
	env    *env
	schema *table.Schema
	acs    []expr.AdvCut
	store  *blockstore.Store // nil on the cluster workload
	layout *cost.Layout
	lanes  []laneState
	// spansOnly records the client.query span and replays nothing.
	spansOnly bool
}

// laneState is one client's private replay state and kernel tallies.
type laneState struct {
	client *http.Client
	arena  *blockstore.Arena
	dec    [][]int64
	sel    blockstore.SelVec

	routeBlocks                               int64
	readBlocks, readBytes                     int64
	readTime, decodeTime, filterTime, cmpTime time.Duration
	decodeRows, filterRows, cmpRows           int64
	classRun                                  map[string][]float64 // exec.run ms per class ("join" apart)
	classParse                                map[string][]float64 // parse µs per class
	shardMax, frontSelf, scatter              []float64
	err                                       error // first failed replay; later statements are not replayed
}

func newTracer(e *env, lanes int) (*tracer, error) {
	t := &tracer{
		rec:    newRecorder(lanes),
		env:    e,
		schema: e.schema,
		acs:    e.plan.ACs,
		layout: e.plan.Layout,
		lanes:  make([]laneState, lanes),
	}
	if e.fd == nil {
		st, _, err := blockstore.OpenCurrent(e.dir)
		if err != nil {
			return nil, fmt.Errorf("second store handle: %w", err)
		}
		t.store = st
	}
	for i := range t.lanes {
		t.lanes[i] = laneState{
			client:     newClient(),
			arena:      new(blockstore.Arena),
			classRun:   map[string][]float64{},
			classParse: map[string][]float64{},
		}
	}
	return t, nil
}

func (t *tracer) close() {
	for i := range t.lanes {
		t.lanes[i].client.CloseIdleConnections()
	}
	if t.store != nil {
		t.store.Close()
	}
}

// err returns the first replay failure of any lane.
func (t *tracer) err() error {
	for i := range t.lanes {
		if t.lanes[i].err != nil {
			return t.lanes[i].err
		}
	}
	return nil
}

// replay records the client.query span [t0, t1] of statement st and
// its child replays.
func (t *tracer) replay(lane, op int, st *stmt, body []byte, t0, t1 time.Time) {
	root := t.rec.add(lane, 0, op, spanClientQuery, st.Class, t0, t1)
	if t.spansOnly {
		return
	}
	ls := &t.lanes[lane]
	if ls.err != nil {
		return
	}
	if t.env.fd != nil {
		ls.err = t.replayCluster(ls, lane, op, root, st, body, t1.Sub(t0))
	} else {
		ls.err = t.replayServe(ls, lane, op, root, st)
	}
}

// span times fn and records it under parent.
func (t *tracer) span(lane, parent, op int, name, class string, fn func()) (int, time.Duration) {
	start := time.Now()
	fn()
	end := time.Now()
	return t.rec.add(lane, parent, op, name, class, start, end), end.Sub(start)
}

// replayServe: serve.execute ⊃ {sqlparse.parse, exec.run ⊃ {cost.prune,
// blockstore.read}}.
func (t *tracer) replayServe(ls *laneState, lane, op, root int, st *stmt) error {
	srv := t.env.servers[0]
	var err error
	serveID, _ := t.span(lane, root, op, spanServeExecute, st.Class, func() {
		switch st.Class {
		case classFilter:
			_, err = srv.QuerySQL(st.SQL)
		case classAgg:
			_, err = srv.SelectSQL(st.SQL)
		case classRows:
			_, err = srv.SelectRowsSQL(st.SQL)
		}
	})
	if err != nil {
		return fmt.Errorf("in-process replay of %q: %w", st.SQL, err)
	}
	if err := t.spanParse(ls, lane, serveID, op, st); err != nil {
		return err
	}

	prof, mode, opt := exec.EngineSpark, exec.RouteQdTree, exec.Options{}
	execID, d := t.span(lane, serveID, op, spanExecRun, st.Class, func() {
		switch {
		case st.Class == classFilter:
			_, err = exec.RunDelta(t.store, t.layout, st.Filter, t.acs, prof, mode, opt, nil)
		case st.Agg != nil:
			_, err = exec.RunAggDelta(t.store, t.layout, *st.Agg, t.acs, prof, mode, opt, nil)
		case st.isJoin():
			_, err = exec.RunJoinDelta(t.store, t.layout, *st.Row.Join, t.acs, prof, mode, opt, nil)
		default:
			_, err = exec.RunRowsDelta(t.store, t.layout, *st.Row.Row, t.acs, prof, mode, opt, nil)
		}
	})
	if err != nil {
		return fmt.Errorf("executor replay of %q: %w", st.SQL, err)
	}
	class := st.Class
	if st.isJoin() {
		class = "join"
	}
	ls.classRun[class] = append(ls.classRun[class], ms(d))

	filters := []expr.Query{st.Filter}
	if st.isJoin() {
		filters = append(filters, st.Row.Join.RightFilter)
	}
	var candidates []int
	t.span(lane, execID, op, spanPrune, st.Class, func() {
		for _, f := range filters {
			for _, b := range t.layout.BlocksFor(f) {
				m := t.store.Blocks[b]
				if m.Rows > 0 && (len(m.Min) == 0 || cost.SMAMayMatch(m.Min, m.Max, f)) {
					candidates = append(candidates, b)
				}
			}
		}
	})
	ls.routeBlocks += int64(len(candidates))

	// The read span covers only ReadColVecsArena; the kernels over the
	// vectors just read are timed beside it, not inside it.
	preds := st.Filter.Preds()
	var readStart time.Time
	var read time.Duration
	for i, b := range candidates {
		r0 := time.Now()
		vecs, nrows, nbytes, err := t.store.ReadColVecsArena(b, nil, ls.arena)
		r1 := time.Now()
		if err != nil {
			return fmt.Errorf("read replay of block %d: %w", b, err)
		}
		if i == 0 {
			readStart = r0
		}
		read += r1.Sub(r0)
		ls.readBlocks++
		ls.readBytes += nbytes
		if vecs != nil {
			ls.kernels(vecs, nrows, preds)
		}
	}
	if len(candidates) > 0 {
		// One span for the statement's reads: their summed duration laid
		// from the first read's start (the kernel time between reads is
		// not part of it).
		t.rec.add(lane, execID, op, spanRead, st.Class, readStart, readStart.Add(read))
		ls.readTime += read
	}
	return nil
}

// kernels times ColVec.Decode over every column, ColVec.Filter over the
// statement's predicates and CmpSelect over the first two decoded
// columns of one block just read.
func (ls *laneState) kernels(vecs []*blockstore.ColVec, nrows int, preds []expr.Pred) {
	if len(ls.dec) < len(vecs) {
		ls.dec = make([][]int64, len(vecs))
	}
	d0 := time.Now()
	for c, v := range vecs {
		if v != nil {
			ls.dec[c] = v.Decode(ls.dec[c])
			ls.decodeRows += int64(nrows)
		}
	}
	d1 := time.Now()
	for _, p := range preds {
		v := vecs[p.Col]
		if v == nil {
			continue
		}
		for start := 0; start < nrows; start += blockstore.BatchSize {
			v.Filter(p, start, min(blockstore.BatchSize, nrows-start), &ls.sel)
		}
		ls.filterRows += int64(nrows)
	}
	d2 := time.Now()
	if len(vecs) >= 2 && vecs[0] != nil && vecs[1] != nil {
		a, b := ls.dec[0], ls.dec[1]
		for start := 0; start < nrows; start += blockstore.BatchSize {
			ls.sel.Zero()
			blockstore.CmpSelect(expr.Lt, a[start:], b[start:], min(blockstore.BatchSize, nrows-start), &ls.sel)
		}
		ls.cmpRows += int64(nrows)
	}
	d3 := time.Now()
	ls.decodeTime += d1.Sub(d0)
	ls.filterTime += d2.Sub(d1)
	ls.cmpTime += d3.Sub(d2)
}

// spanParse records sqlparse.parse under parent: the grammar the
// statement's class selects, on a parser set up as the server's is.
func (t *tracer) spanParse(ls *laneState, lane, parent, op int, st *stmt) error {
	var err error
	_, d := t.span(lane, parent, op, spanParse, st.Class, func() {
		p := sqlparse.NewParser(t.schema)
		p.ACs = append([]expr.AdvCut(nil), t.acs...)
		switch st.Class {
		case classFilter:
			_, err = p.Parse(st.SQL)
		case classAgg:
			_, err = p.ParseSelect(st.SQL)
		case classRows:
			_, err = p.ParseRowSelect(st.SQL)
		}
	})
	if err != nil {
		return fmt.Errorf("parse replay of %q: %w", st.SQL, err)
	}
	ls.classParse[st.Class] = append(ls.classParse[st.Class], us(d))
	return nil
}

// replayCluster: cluster.scatter (in-process FrontDoor.Query) ⊃
// cluster.shard (the slowest direct shard /query round trip). The
// parse replay has no serve.execute span to hang under on this
// workload and is recorded as a root.
func (t *tracer) replayCluster(ls *laneState, lane, op, root int, st *stmt, body []byte, roundTrip time.Duration) error {
	var err error
	scatterID, d := t.span(lane, root, op, spanScatter, st.Class, func() {
		_, err = t.env.fd.Query(st.SQL)
	})
	if err != nil {
		return fmt.Errorf("in-process scatter of %q: %w", st.SQL, err)
	}
	ls.scatter = append(ls.scatter, ms(d))
	var slowest time.Duration
	var s0, s1 time.Time
	for _, hs := range t.env.https {
		a := time.Now()
		data, status, err := post(ls.client, hs.URL+"/query", body)
		b := time.Now()
		if err := checkStatus("direct shard query", status, data, err); err != nil {
			return err
		}
		if b.Sub(a) > slowest {
			slowest, s0, s1 = b.Sub(a), a, b
		}
	}
	t.rec.add(lane, scatterID, op, spanShard, st.Class, s0, s1)
	ls.frontSelf = append(ls.frontSelf, us(selfTime(roundTrip, slowest)))
	return t.spanParse(ls, lane, 0, op, st)
}
