package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sample is one measured phase's metrics by name.
type sample map[string]float64

// outcome is one workload run: a sample per repeat plus the answer
// check's tally over every statement sent (warm-up included).
type outcome struct {
	samples   []sample
	attempted int
	failed    int
	listLen   int
	notes     []string
}

// runOpts are the switches of one workload run beyond its config.
type runOpts struct {
	trace   bool
	corrupt bool // falsify one truth entry (self-test of the answer check)
}

// runWorkload runs one workload in this process: set-up (cfg.Setups
// times, the last one kept), ground truth, one untimed warm-up pass,
// then cfg.Repeat measured phases of cfg.Seconds each.
func runWorkload(name string, cfg config, ro runOpts) (*outcome, error) {
	var setups []float64
	var e *env
	defer func() {
		if e != nil {
			e.close()
		}
	}()
	// fresh replaces e with a newly set-up system.
	fresh := func() error {
		if e != nil {
			e.close()
			e = nil // let the old table go before the next one is generated
		}
		var err error
		if e, err = setUp(name, cfg); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, e.times.Total)
		return nil
	}
	for i := 0; i < max(1, cfg.Setups); i++ {
		if err := fresh(); err != nil {
			return nil, err
		}
	}
	out := &outcome{}
	for rep := 0; rep < max(1, cfg.Repeat); rep++ {
		// The ingest phase rewrites the store; every repeat of it starts
		// from a fresh one.
		if rep > 0 && name == wlIngest {
			if err := fresh(); err != nil {
				return nil, err
			}
		}
		if rep == 0 || name == wlIngest {
			if err := prepare(e, ro, out); err != nil {
				return nil, err
			}
		}
		// Earlier set-ups and the truth computation leave garbage; start
		// every phase from a collected heap, and watch the resident set from
		// here on only (VmHWM would report the harness's own earlier peak).
		debug.FreeOSMemory()
		rss := watchRSS()
		var s sample
		var err error
		switch {
		case name == wlIngest:
			s, err = measureIngest(e, ro.trace, out)
		case ro.trace:
			s, err = measureTraced(e, out)
		default:
			s = measureStatic(e, out)
		}
		peak := rss.stop()
		if err != nil {
			return nil, err
		}
		s["peak_rss_mb"] = peak
		s["setup_s"] = median(setups)
		setupLayerMetrics(e, s)
		onDisk := float64(dirBytes(e.dir))
		s["store_bytes_per_row"] = ratio(onDisk, float64(e.storeRows()))
		s["blockstore.bytes_on_disk"] = onDisk
		out.samples = append(out.samples, s)
	}
	return out, nil
}

// prepared is what prepare attaches to an env: the statement list, its
// verifier and (ingest) the reader's list and truth history.
type prepared struct {
	list   []*stmt // on ingest: the reader's thinned list
	bodies [][]byte
	truth  verifier
	ingest *ingestTruth
}

// loop returns a closed-loop phase over the prepared list; the caller
// sets how it ends and whether it is traced.
func (e *env) loop(n int) *loop {
	return &loop{url: e.url, list: e.prep.list, bodies: e.prep.bodies, clients: n, truth: e.prep.truth}
}

// prepare builds the workload's statement list, computes ground truth
// and runs the untimed warm-up pass.
func prepare(e *env, ro runOpts, out *outcome) error {
	var list []*stmt
	var err error
	if e.name == wlScan {
		list, err = scanStatements(e.spec, e.cfg.Seed)
	} else {
		list, err = pointStatements(e.spec, e.cfg.Seed)
	}
	if err != nil {
		return err
	}
	subs := groundTruth(e.spec.Table, e.plan.ACs, list, e.name != wlScan)
	p := &prepared{list: list, truth: staticTruth{}}
	if e.name == wlIngest {
		p.list = readerStatements(list, readerStride)
		p.ingest = newIngestTruth(e, p.list, subs, ingestBatches(e.cfg))
		p.truth = p.ingest
	}
	if ro.corrupt {
		if err := corruptTruth(p.list); err != nil {
			return err
		}
	}
	p.bodies = queryBodies(p.list)
	e.prep = p
	// The generated rows have served their purpose; without them the
	// resident set of the measured phase is mostly the servers'.
	e.spec = nil
	out.listLen = len(p.list)
	lp := e.loop(clients)
	lp.maxOps = len(p.list)
	warm := lp.run()
	out.attempted += len(warm.ops)
	out.failed += warm.failed()
	return nil
}

// ingestBatches is how many batches are generated ahead of an ingest
// phase: what the writer's schedule can send in the time, in whole
// cycles, and one cycle more.
func ingestBatches(cfg config) int {
	perCycle := float64(batchesPerCycle) * batchInterval.Seconds()
	return (int(cfg.Seconds/perCycle) + 2) * batchesPerCycle
}

func deadlineIn(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// measureStatic is the untraced measured phase of point, scan and
// cluster: the closed-loop clients for cfg.Seconds.
func measureStatic(e *env, out *outcome) sample {
	p := e.prep
	before := procSnapshot()
	lp := e.loop(clients)
	lp.deadline = deadlineIn(e.cfg.Seconds)
	res := lp.run()
	after := procSnapshot()
	out.attempted += len(res.ops)
	out.failed += res.failed()
	s := sample{}
	clientMetrics(s, res, res.fixedWindows(), res.wholePasses(len(p.list)), true)
	procMetrics(s, before, after, len(res.ops))
	return s
}

// measureTraced is the traced run of point, scan and cluster: an
// untraced phase (0.4 of the time: client, process and plan-cache
// numbers, and the qps the tracing overhead is judged against), then a
// traced phase (0.6) whose spans give the per-layer times.
func measureTraced(e *env, out *outcome) (sample, error) {
	p := e.prep
	cacheBefore, err := planCacheCounts(e)
	if err != nil {
		return nil, err
	}
	before := procSnapshot()
	lp := e.loop(clients)
	lp.deadline = deadlineIn(0.4 * e.cfg.Seconds)
	off := lp.run()
	after := procSnapshot()
	cacheAfter, err := planCacheCounts(e)
	if err != nil {
		return nil, err
	}
	tr, err := newTracer(e, clients)
	if err != nil {
		return nil, err
	}
	defer tr.close()
	lp = e.loop(clients)
	lp.tracer, lp.deadline = tr, deadlineIn(0.6*e.cfg.Seconds)
	on := lp.run()
	if err := tr.err(); err != nil {
		return nil, err
	}
	out.attempted += len(off.ops) + len(on.ops)
	out.failed += off.failed() + on.failed()

	s := sample{}
	clientMetrics(s, off, off.fixedWindows(), off.wholePasses(len(p.list)), true)
	procMetrics(s, before, after, len(off.ops))
	s["serve.plancache_hit_ratio"] = cacheAfter.sub(cacheBefore).hitRatio()
	layerMetrics(s, tr)
	// Tracing overhead: throughput of the round trips alone (each
	// client's busy time is the sum of its client.query spans) against
	// the untraced phase.
	var busy float64
	for _, op := range on.ops {
		busy += op.lat.Seconds()
	}
	qpsOn := ratio(float64(len(on.ops)), busy/clients)
	s["client.trace_overhead_pct"] = 100 * ratio(s["query_qps"]-qpsOn, s["query_qps"])
	if err := tr.rec.write(filepath.Join(e.cfg.OutDir, "trace-"+e.name+".json")); err != nil {
		return nil, err
	}
	return s, nil
}

// measureIngest is the ingest workload's phase, traced or not. The
// traced run first spends 0.3 of its time on a reader-only pre-phase
// with the full replays (the generation they read is retired by the
// first compaction), then runs writer and reader with spans on the
// round trips only.
func measureIngest(e *env, trace bool, out *outcome) (sample, error) {
	s := sample{}
	seconds := e.cfg.Seconds
	var rec *recorder
	if trace {
		tr, err := newTracer(e, 2) // lane 0: reader, lane 1: writer
		if err != nil {
			return nil, err
		}
		lp := e.loop(1)
		lp.tracer, lp.deadline = tr, deadlineIn(0.3*seconds)
		pre := lp.run()
		tr.close()
		if err := tr.err(); err != nil {
			return nil, err
		}
		out.attempted += len(pre.ops)
		out.failed += pre.failed()
		layerMetrics(s, tr)
		rec = tr.rec
		seconds *= 0.7
	}
	cacheBefore, err := planCacheCounts(e)
	if err != nil {
		return nil, err
	}
	before := procSnapshot()
	res, ws, err := runIngest(e, seconds, rec)
	if err != nil {
		return nil, err
	}
	after := procSnapshot()
	out.attempted += len(res.ops) + 1
	out.failed += res.failed()
	if ws.finalRows != ws.wantRows {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("reopened server counts %d rows, want %d", ws.finalRows, ws.wantRows))
	}
	out.notes = append(out.notes, fmt.Sprintf("reads were kept out of %d compactions (reader blocked %.2f s of the phase; query_qps counts that time): "+
		"read latency during a compaction is not measured until compaction stops re-freezing the live tree (see README)", len(ws.cycles), ws.readerWaitS))
	if ws.exhausted {
		out.notes = append(out.notes, fmt.Sprintf("writer used all %d pre-generated batches before the time was up", ws.batches))
	}
	// The reader's phase is cut at the writer's cycles; what it did
	// during the relayout after the last one is left out.
	cycles := res.spans(ws.cycles)
	var inCycles []opRec
	for _, c := range cycles {
		inCycles = append(inCycles, c.ops...)
	}
	clientMetrics(s, res, cycles, inCycles, false)
	procMetrics(s, before, after, len(res.ops))
	s["serve.plancache_hit_ratio"] = ws.cache.sub(cacheBefore).hitRatio()
	ingestMetrics(s, res, ws)
	if trace {
		if err := rec.write(filepath.Join(e.cfg.OutDir, "trace-"+e.name+".json")); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// window is the length of the slices a measured phase is cut into. The
// host this runs on slows down by a tenth to a third for seconds at a
// time (a neighbour's doing, not the program's: process CPU time per
// query rises in step). Interference only ever slows a window down, so
// throughput and median latencies are taken from the phase's best window
// — the highest qps, the lowest p50 — which is the closest a run gets to
// the undisturbed speed a code change moves. The p95 is the median over
// the windows instead: a tail is made by events every window has (GC,
// scheduling), and the lowest of several noisy tails is an extreme, not
// an estimate. Measured on 60 consecutive windows of `point`, as the
// spread between groups of six: p50 28 % as a median over windows, 8 %
// as the best window; p95 7 % as a median over windows, 10 % as the best.
const window = 2 * time.Second

// opWindow is one slice of a phase: the ops completed in it and its length.
type opWindow struct {
	ops    []opRec
	length time.Duration
}

// fixedWindows cuts the phase into whole windows by completion time (the
// remainder at the end is dropped; a phase shorter than one window is
// one window).
func (r phaseResult) fixedWindows() []opWindow {
	n := int(r.elapsed / window)
	if n < 1 {
		return []opWindow{{r.ops, r.elapsed}}
	}
	out := make([]opWindow, n)
	for i := range out {
		out[i].length = window
	}
	for _, op := range r.ops {
		if w := int(op.end / window); w < n {
			out[w].ops = append(out[w].ops, op)
		}
	}
	return out
}

// spans cuts the phase into the given intervals (the ingest writer's
// cycles: the phase is not stationary, but every cycle has the same
// shape), dropping the ops outside them.
func (r phaseResult) spans(bounds [][2]time.Time) []opWindow {
	out := make([]opWindow, len(bounds))
	for i, b := range bounds {
		out[i].length = b[1].Sub(b[0])
		lo, hi := b[0].Sub(r.start), b[1].Sub(r.start)
		for _, op := range r.ops {
			if op.end >= lo && op.end < hi {
				out[i].ops = append(out[i].ops, op)
			}
		}
	}
	return out
}

// clientMetrics fills in what the clients saw: the end-to-end latency
// and throughput metrics over the windows (see window) and the per-query
// counts from the replies, summed over counted. With best set, qps and
// the p50s come from the best window; without (the ingest workload, whose
// cycles differ in shape as the store grows, so that the best one is an
// extreme of the workload and not of the host) they are medians over the
// windows like the p95.
func clientMetrics(s sample, res phaseResult, wins []opWindow, counted []opRec, best bool) {
	highest, lowest := median, median
	if best {
		highest = func(xs []float64) float64 { return percentile(xs, 100) }
		lowest = func(xs []float64) float64 { return percentile(xs, 0) }
	}
	perWindow := func(keep func(opRec) bool, p float64) []float64 {
		var out []float64
		for _, w := range wins {
			if lat := latencies(w.ops, keep); len(lat) > 0 {
				out = append(out, percentile(lat, p))
			}
		}
		return out
	}
	var qps []float64
	for _, w := range wins {
		qps = append(qps, ratio(float64(len(w.ops)), w.length.Seconds()))
	}
	s["query_qps"] = highest(qps)
	s["query_p50_ms"] = lowest(perWindow(anyOp, 50))
	s["query_p95_ms"] = median(perWindow(anyOp, 95))
	s["filter_p50_ms"] = lowest(perWindow(ofClass(classFilter), 50))
	s["agg_p50_ms"] = lowest(perWindow(ofClass(classAgg), 50))
	s["rows_p50_ms"] = lowest(perWindow(ofClass(classRows), 50))
	all := latencies(res.ops, anyOp)
	s["client.query_p99_ms"] = percentile(all, 99)
	s["client.query_max_ms"] = percentile(all, 100)
	s["client.ops"] = float64(len(res.ops))
	s["client.measured_s"] = res.elapsed.Seconds()

	var scanned, total, rowsScanned, rowsMatched, bytesRead, respBytes, contacted, pruned, partial float64
	for _, op := range counted {
		scanned += float64(op.blocksScanned)
		total += float64(op.blocksTotal)
		rowsScanned += float64(op.rowsScanned)
		rowsMatched += float64(op.rowsMatched)
		bytesRead += float64(op.bytesRet)
		respBytes += float64(op.respBytes)
		contacted += float64(op.shardsContacted)
		pruned += float64(op.shardsPruned)
		if op.partial {
			partial++
		}
	}
	n := float64(len(counted))
	s["blocks_read_frac"] = ratio(scanned, total)
	s["exec.blocks_scanned_per_query"] = ratio(scanned, n)
	s["exec.rows_scanned_per_query"] = ratio(rowsScanned, n)
	s["exec.rows_matched_per_query"] = ratio(rowsMatched, n)
	s["exec.bytes_read_per_query"] = ratio(bytesRead, n)
	s["serve.resp_bytes_per_query"] = ratio(respBytes, n)
	s["cluster.shards_contacted_per_query"] = ratio(contacted, n)
	s["cluster.shards_pruned_per_query"] = ratio(pruned, n)
	s["cluster.partial_ratio"] = ratio(partial, n)
}

// setupLayerMetrics reports the stages of the kept set-up.
func setupLayerMetrics(e *env, s sample) {
	t := e.times
	s["workload.gen_s"] = t.Gen
	s["greedy.plan_s"] = t.Plan
	s["greedy.blocks"] = float64(e.plan.Layout.NumBlocks())
	s["blockstore.write_s"] = t.Write
	s["blockstore.write_mb_per_s"] = ratio(float64(t.WriteBytes)/1e6, t.Write+t.ClusterInit)
	s["serve.open_s"] = t.Open
	s["cluster.init_s"] = t.ClusterInit
}

// layerMetrics turns a traced phase's spans and kernel tallies into the
// per-layer time metrics.
func layerMetrics(s sample, tr *tracer) {
	ls := selfTimes(tr.rec.all())
	var all laneState
	all.classRun, all.classParse = map[string][]float64{}, map[string][]float64{}
	for i := range tr.lanes {
		l := &tr.lanes[i]
		all.routeBlocks += l.routeBlocks
		all.readBlocks += l.readBlocks
		all.readBytes += l.readBytes
		all.readTime += l.readTime
		all.decodeTime += l.decodeTime
		all.filterTime += l.filterTime
		all.cmpTime += l.cmpTime
		all.decodeRows += l.decodeRows
		all.filterRows += l.filterRows
		all.cmpRows += l.cmpRows
		for k, v := range l.classRun {
			all.classRun[k] = append(all.classRun[k], v...)
		}
		for k, v := range l.classParse {
			all.classParse[k] = append(all.classParse[k], v...)
		}
		all.frontSelf = append(all.frontSelf, l.frontSelf...)
		all.scatter = append(all.scatter, l.scatter...)
	}
	s["sqlparse.filter_parse_us"] = median(all.classParse[classFilter])
	s["sqlparse.agg_parse_us"] = median(all.classParse[classAgg])
	s["sqlparse.rows_parse_us"] = median(all.classParse[classRows])
	s["cost.prune_us"] = median(ls.dur[spanPrune])
	s["cost.route_blocks_per_query"] = ratio(float64(all.routeBlocks), float64(len(ls.dur[spanPrune])))
	s["blockstore.read_us_per_block"] = ratio(us(all.readTime), float64(all.readBlocks))
	s["blockstore.read_mb_per_s"] = ratio(float64(all.readBytes)/1e6, all.readTime.Seconds())
	s["blockstore.decode_mrows_per_s"] = ratio(float64(all.decodeRows)/1e6, all.decodeTime.Seconds())
	s["blockstore.filter_mrows_per_s"] = ratio(float64(all.filterRows)/1e6, all.filterTime.Seconds())
	s["blockstore.cmpselect_mrows_per_s"] = ratio(float64(all.cmpRows)/1e6, all.cmpTime.Seconds())
	s["exec.filter_run_ms"] = median(all.classRun[classFilter])
	s["exec.agg_run_ms"] = median(all.classRun[classAgg])
	s["exec.rows_run_ms"] = median(all.classRun[classRows])
	s["exec.join_run_ms"] = median(all.classRun["join"])
	s["serve.execute_us"] = median(ls.dur[spanServeExecute])
	s["serve.self_us"] = median(ls.self[spanServeExecute])
	// On the cluster workload client.query's child is cluster.scatter,
	// so its self time is the front door's HTTP layer instead.
	if len(ls.dur[spanServeExecute]) > 0 {
		s["serve.http_self_us"] = median(ls.self[spanClientQuery])
		s["serve.http_share"] = ls.share(spanClientQuery, spanClientQuery)
	}
	s["serve.self_share"] = ls.share(spanServeExecute, spanClientQuery)
	if len(ls.dur[spanServeExecute]) > 0 {
		s["sqlparse.self_share"] = ls.share(spanParse, spanClientQuery)
	}
	s["exec.self_share"] = ls.share(spanExecRun, spanClientQuery)
	s["cost.self_share"] = ls.share(spanPrune, spanClientQuery)
	s["blockstore.self_share"] = ls.share(spanRead, spanClientQuery)
	s["cluster.scatter_ms"] = median(all.scatter)
	s["cluster.frontdoor_self_us"] = median(all.frontSelf)
}

// ingestMetrics fills in the writer's side of the ingest workload.
func ingestMetrics(s sample, res phaseResult, ws ingestStats) {
	s["ingest.rows_per_s"] = ratio(float64(len(ws.batchHTTP)*ingestBatchRows), sum(ws.batchHTTP)/1e3)
	s["ingest.batch_p50_ms"] = median(ws.batchHTTP)
	s["ingest.write_amp"] = ws.writeAmp
	s["delta.insert_us_per_row"] = median(ws.batchInProc) * 1e3 / ingestBatchRows
	if len(ws.batchInProc) > 0 {
		decode := median(ws.batchHTTP) - median(ws.batchInProc)
		s["serve.ingest_decode_us_per_row"] = max(0, decode) * 1e3 / ingestBatchRows
	}
	s["delta.rows_pending_p50"] = median(ws.pendingRows)
	s["delta.segments_sealed"] = float64(ws.segmentsSealed)
	s["serve.compact_s"] = median(ws.compactS)
	s["serve.compact_mb_per_s"] = ratio(sum(ws.compactBytes)/1e6, ws.compactElapsedS)
	s["serve.compact_bytes_written"] = sum(ws.compactBytes)
	// No read runs while a compaction is in flight (see ingestClock.gate):
	// every read is an idle one, and the reader's wait is reported beside it.
	s["serve.reader_p95_idle_ms"] = percentile(latencies(res.ops, anyOp), 95)
	s["client.compact_wait_s"] = ws.readerWaitS
	s["serve.relayout_s"] = ws.relayoutS
	s["serve.reopen_s"] = ws.reopenS
}

// cacheCounts are the servers' row-statement plan-cache counters.
type cacheCounts struct{ hits, misses uint64 }

func (c cacheCounts) sub(o cacheCounts) cacheCounts {
	return cacheCounts{c.hits - o.hits, c.misses - o.misses}
}

func (c cacheCounts) hitRatio() float64 {
	return ratio(float64(c.hits), float64(c.hits+c.misses))
}

// planCacheCounts sums GET /stats plan-cache counters over the servers
// (the shards, on the cluster workload).
func planCacheCounts(e *env) (cacheCounts, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	var c cacheCounts
	for _, hs := range e.https {
		st, err := getStats(client, hs.URL)
		if err != nil {
			return c, err
		}
		c.hits += st.PlanCacheHits
		c.misses += st.PlanCacheMisses
	}
	return c, nil
}

// procSnap is the process's resource use at one instant.
type procSnap struct {
	cpu      time.Duration
	mallocs  uint64
	bytes    uint64
	gcCycles uint32
	gcPause  time.Duration
}

func procSnapshot() procSnap {
	var ru syscall.Rusage
	var p procSnap
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	p.mallocs, p.bytes, p.gcCycles, p.gcPause = m.Mallocs, m.TotalAlloc, m.NumGC, time.Duration(m.PauseTotalNs)
	return p
}

// procMetrics reports the process's resource use over a phase of ops
// statements. The process holds clients and servers alike.
func procMetrics(s sample, a, b procSnap, ops int) {
	n := float64(ops)
	s["proc.cpu_ms_per_query"] = ratio(ms(b.cpu-a.cpu), n)
	s["proc.allocs_per_query"] = ratio(float64(b.mallocs-a.mallocs), n)
	s["proc.alloc_kb_per_query"] = ratio(float64(b.bytes-a.bytes)/1e3, n)
	s["proc.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	s["proc.gc_pause_ms"] = ms(b.gcPause - a.gcPause)
}

// rssWatch samples the process's resident set while a measured phase runs.
type rssWatch struct {
	quit chan struct{}
	peak chan float64
}

// rssInterval is short against a phase and against how fast a Go heap's
// resident set moves (it grows by GC cycle and shrinks by the scavenger's
// slow returns), and long against the ~20 µs one sample costs.
const rssInterval = 50 * time.Millisecond

// watchRSS starts sampling; stop returns the highest resident set seen,
// in MB. The measured phase's own peak is what a serving-memory change
// moves: the set-ups, the generator and the truth computation before it
// reach several times that, which is why this is not VmHWM.
func watchRSS() *rssWatch {
	w := &rssWatch{quit: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		peak := residentMB()
		for {
			select {
			case <-tick.C:
				peak = max(peak, residentMB())
			case <-w.quit:
				w.peak <- max(peak, residentMB())
				return
			}
		}
	}()
	return w
}

func (w *rssWatch) stop() float64 {
	close(w.quit)
	return <-w.peak
}

// residentMB is the process's resident set in MB (second field of
// /proc/self/statm, in pages), 0 where that cannot be read.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
