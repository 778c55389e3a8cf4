package serve

import (
	"time"

	"repro/internal/blockstore"
	"repro/internal/exec"
	"repro/internal/obs"
)

// serverMetrics is the per-server instrument set exposed at GET
// /metrics. Metric names and label sets are pinned by a golden test —
// renaming one is an observability-breaking change.
type serverMetrics struct {
	queries       *obs.CounterVec   // qd_queries_total{type}
	queryErrors   *obs.CounterVec   // qd_query_errors_total{type}
	stageDur      *obs.HistogramVec // qd_stage_duration_seconds{stage}
	queryDur      *obs.HistogramVec // qd_query_duration_seconds{type}
	slowQueries   *obs.Counter      // qd_slow_queries_total
	blocksScanned *obs.Counter      // qd_blocks_scanned_total
	blocksSkipped *obs.CounterVec   // qd_blocks_skipped_total{reason}
	rowsScanned   *obs.CounterVec   // qd_rows_scanned_total{source}
	rowsMatched   *obs.Counter      // qd_rows_matched_total
	bytesRead     *obs.Counter      // qd_bytes_read_total
	joinBuildRows *obs.Counter      // qd_join_build_rows_total
	joinProbeRows *obs.Counter      // qd_join_probe_rows_total
	planCache     *obs.CounterVec   // qd_plan_cache_total{outcome}
	ingestRows    *obs.Counter      // qd_ingest_rows_total
	relayouts     *obs.CounterVec   // qd_relayouts_total{outcome}
	compactions   *obs.CounterVec   // qd_compactions_total{outcome}
	compactedRows *obs.Counter      // qd_compacted_rows_total
	compactBytes  *obs.Counter      // qd_compaction_bytes_written_total
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		queries:       reg.CounterVec("qd_queries_total", "Queries served, by statement type.", "type"),
		queryErrors:   reg.CounterVec("qd_query_errors_total", "Queries that failed during execution, by statement type.", "type"),
		stageDur:      reg.HistogramVec("qd_stage_duration_seconds", "Per-stage query latency (parse, block_prune, scan, delta_scan, merge).", nil, "stage"),
		queryDur:      reg.HistogramVec("qd_query_duration_seconds", "End-to-end query latency, by statement type.", nil, "type"),
		slowQueries:   reg.Counter("qd_slow_queries_total", "Queries over the slow-query threshold."),
		blocksScanned: reg.Counter("qd_blocks_scanned_total", "Blocks physically scanned."),
		blocksSkipped: reg.CounterVec("qd_blocks_skipped_total", "Blocks skipped without reading, by pruning stage (route = qd-tree routing).", "reason"),
		rowsScanned:   reg.CounterVec("qd_rows_scanned_total", "Rows scanned, by source (base = learned layout, delta = uncompacted ingest).", "source"),
		rowsMatched:   reg.Counter("qd_rows_matched_total", "Rows matching query filters."),
		bytesRead:     reg.Counter("qd_bytes_read_total", "Encoded bytes read from block stores."),
		joinBuildRows: reg.Counter("qd_join_build_rows_total", "Rows inserted into join build tables."),
		joinProbeRows: reg.Counter("qd_join_probe_rows_total", "Rows probed against join build tables."),
		planCache:     reg.CounterVec("qd_plan_cache_total", "Row-statement plan cache lookups, by outcome (hit, miss).", "outcome"),
		ingestRows:    reg.Counter("qd_ingest_rows_total", "Rows accepted into the delta store."),
		relayouts:     reg.CounterVec("qd_relayouts_total", "Drift-check cycles, by outcome (swapped, skipped, failed).", "outcome"),
		compactions:   reg.CounterVec("qd_compactions_total", "Compaction cycles, by outcome (swapped, skipped, failed).", "outcome"),
		compactedRows: reg.Counter("qd_compacted_rows_total", "Delta rows folded into fresh generations."),
		compactBytes:  reg.Counter("qd_compaction_bytes_written_total", "On-disk bytes written by compaction generations."),
	}
}

// registerGauges wires scrape-time gauges to the live server state.
// Gauge callbacks take s.mu.RLock briefly; scrapes never block queries
// longer than a pointer read.
func (s *Server) registerGauges(reg *obs.Registry) {
	reg.GaugeFunc("qd_generation", "Live generation id.", func() float64 {
		return float64(s.Generation())
	})
	reg.GaugeFunc("qd_rows", "Served rows (base + uncompacted delta).", func() float64 {
		return float64(s.Rows())
	})
	reg.GaugeFunc("qd_blocks", "Blocks in the live generation.", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(s.gen.layout.NumBlocks())
	})
	reg.GaugeFunc("qd_delta_rows", "Uncompacted delta rows.", func() float64 {
		return float64(s.delta.Rows())
	})
	reg.GaugeFunc("qd_delta_bytes", "On-disk bytes of sealed delta segments.", func() float64 {
		return float64(s.delta.Bytes())
	})
	reg.GaugeFunc("qd_freshness_seconds", "Age of the oldest uncompacted row (0 when the delta is empty).", func() float64 {
		if oldest, ok := s.delta.Oldest(); ok {
			return time.Since(oldest).Seconds()
		}
		return 0
	})
	// Scan-arena pool health (process-wide): gets-misses is the number of
	// reads served from warmed scratch instead of fresh allocations.
	reg.GaugeFunc("qd_arena_pool_gets", "Cumulative scan-arena pool gets.", func() float64 {
		gets, _ := blockstore.ArenaPoolStats()
		return float64(gets)
	})
	reg.GaugeFunc("qd_arena_pool_misses", "Cumulative scan-arena pool misses (each allocated a fresh arena).", func() float64 {
		_, misses := blockstore.ArenaPoolStats()
		return float64(misses)
	})
}

// observeQuery finishes a query's trace and feeds every instrument from
// it: the per-stage histograms observe the exact span durations, so the
// exposed sums reconcile with the trace a client sees for the same
// query. Returns the finished snapshot for the ring and the response.
func (s *Server) observeQuery(tr *obs.Trace, typ string, st exec.ScanStats, err error) *obs.TraceData {
	tr.Finish()
	if err != nil {
		s.metrics.queryErrors.With(typ).Inc()
		return nil
	}
	s.metrics.queries.With(typ).Inc()
	s.metrics.queryDur.With(typ).Observe(float64(tr.DurNS()) / 1e9)
	if thr := s.cfg.SlowQuery; thr > 0 && tr.DurNS() >= thr.Nanoseconds() {
		tr.MarkSlow()
		s.slowQueries.Add(1)
		s.metrics.slowQueries.Inc()
	}
	for _, sd := range tr.SpanDurations() {
		s.metrics.stageDur.With(sd.Name).Observe(float64(sd.DurNS) / 1e9)
		if sd.Name == "block_prune" {
			if n := sd.IntAttr("pruned_route"); n > 0 {
				s.metrics.blocksSkipped.With("route").Add(uint64(n))
			}
		}
	}
	s.metrics.blocksScanned.Add(uint64(st.BlocksScanned))
	s.metrics.rowsScanned.With("base").Add(uint64(st.RowsScanned - st.DeltaRows))
	if st.DeltaRows > 0 {
		s.metrics.rowsScanned.With("delta").Add(uint64(st.DeltaRows))
	}
	s.metrics.rowsMatched.Add(uint64(st.RowsMatched))
	s.metrics.bytesRead.Add(uint64(st.BytesRead))
	td := tr.Snapshot()
	s.traces.Record(td)
	return td
}

// Metrics returns the server's metric registry (never nil).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Traces returns the server's recent/slow trace ring (never nil).
func (s *Server) Traces() *obs.TraceRing { return s.traces }
