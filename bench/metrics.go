package main

import (
	"encoding/json"
)

// metricDef names one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse before a change counts as
// a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them (the driver's contract), which is why the
// ingest-only numbers of ISSUE 11 (ingest_rows_per_s, ingest_p50_ms,
// compact_p50_s, write_amp) live in perLayer under ingest.* / serve.*.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"query_qps", "1/s", higher, 0.25},
	{"query_p50_ms", "ms", lower, 0.25},
	{"query_p95_ms", "ms", lower, 0.25},
	{"filter_p50_ms", "ms", lower, 0.25},
	{"agg_p50_ms", "ms", lower, 0.25},
	{"rows_p50_ms", "ms", lower, 0.25},
	{"blocks_read_frac", "ratio", lower, 0.25},
	{"store_bytes_per_row", "B", lower, 0.10},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// perLayer are the metrics of single layers, prefixed with the module
// they measure. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// Set-up stages.
	{Name: "workload.gen_s", Unit: "s", Better: lower},
	{Name: "greedy.plan_s", Unit: "s", Better: lower},
	{Name: "greedy.blocks", Unit: "count", Better: lower},
	{Name: "blockstore.write_s", Unit: "s", Better: lower},
	{Name: "blockstore.write_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "serve.open_s", Unit: "s", Better: lower},
	{Name: "cluster.init_s", Unit: "s", Better: lower},
	// Parse and plan cache.
	{Name: "sqlparse.filter_parse_us", Unit: "us", Better: lower},
	{Name: "sqlparse.agg_parse_us", Unit: "us", Better: lower},
	{Name: "sqlparse.rows_parse_us", Unit: "us", Better: lower},
	{Name: "serve.plancache_hit_ratio", Unit: "ratio", Better: higher},
	// Block pruning.
	{Name: "cost.prune_us", Unit: "us", Better: lower},
	{Name: "cost.route_blocks_per_query", Unit: "count", Better: lower},
	// Block reads and kernels.
	{Name: "blockstore.read_us_per_block", Unit: "us", Better: lower},
	{Name: "blockstore.read_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "blockstore.decode_mrows_per_s", Unit: "Mrows/s", Better: higher},
	{Name: "blockstore.filter_mrows_per_s", Unit: "Mrows/s", Better: higher},
	{Name: "blockstore.cmpselect_mrows_per_s", Unit: "Mrows/s", Better: higher},
	{Name: "blockstore.bytes_on_disk", Unit: "B", Better: lower},
	// Executor.
	{Name: "exec.filter_run_ms", Unit: "ms", Better: lower},
	{Name: "exec.agg_run_ms", Unit: "ms", Better: lower},
	{Name: "exec.rows_run_ms", Unit: "ms", Better: lower},
	{Name: "exec.join_run_ms", Unit: "ms", Better: lower},
	{Name: "exec.blocks_scanned_per_query", Unit: "count", Better: lower},
	{Name: "exec.rows_scanned_per_query", Unit: "count", Better: lower},
	{Name: "exec.rows_matched_per_query", Unit: "count", Better: lower},
	{Name: "exec.bytes_read_per_query", Unit: "B", Better: lower},
	// Server.
	{Name: "serve.execute_us", Unit: "us", Better: lower},
	{Name: "serve.self_us", Unit: "us", Better: lower},
	{Name: "serve.http_self_us", Unit: "us", Better: lower},
	{Name: "serve.resp_bytes_per_query", Unit: "B", Better: lower},
	// Each layer's share of what the client waited for (self time
	// summed over statements / client.query summed).
	{Name: "serve.http_share", Unit: "ratio", Better: lower},
	{Name: "serve.self_share", Unit: "ratio", Better: lower},
	{Name: "sqlparse.self_share", Unit: "ratio", Better: lower},
	{Name: "exec.self_share", Unit: "ratio", Better: lower},
	{Name: "cost.self_share", Unit: "ratio", Better: lower},
	{Name: "blockstore.self_share", Unit: "ratio", Better: lower},
	// Ingest, compaction, re-layout, reopen (ingest workload).
	{Name: "ingest.rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "ingest.batch_p50_ms", Unit: "ms", Better: lower},
	{Name: "ingest.write_amp", Unit: "ratio", Better: lower},
	{Name: "delta.insert_us_per_row", Unit: "us", Better: lower},
	{Name: "serve.ingest_decode_us_per_row", Unit: "us", Better: lower},
	{Name: "delta.rows_pending_p50", Unit: "count", Better: lower},
	{Name: "delta.segments_sealed", Unit: "count", Better: lower},
	{Name: "serve.compact_s", Unit: "s", Better: lower},
	{Name: "serve.compact_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "serve.compact_bytes_written", Unit: "B", Better: lower},
	{Name: "serve.reader_p95_idle_ms", Unit: "ms", Better: lower},
	{Name: "serve.relayout_s", Unit: "s", Better: lower},
	{Name: "serve.reopen_s", Unit: "s", Better: lower},
	// Scatter/gather (cluster workload).
	{Name: "cluster.scatter_ms", Unit: "ms", Better: lower},
	{Name: "cluster.frontdoor_self_us", Unit: "us", Better: lower},
	{Name: "cluster.shards_contacted_per_query", Unit: "count", Better: lower},
	{Name: "cluster.shards_pruned_per_query", Unit: "count", Better: higher},
	{Name: "cluster.partial_ratio", Unit: "ratio", Better: lower},
	// Process and client.
	{Name: "proc.cpu_ms_per_query", Unit: "ms", Better: lower},
	{Name: "proc.allocs_per_query", Unit: "count", Better: lower},
	{Name: "proc.alloc_kb_per_query", Unit: "KB", Better: lower},
	{Name: "proc.gc_cycles", Unit: "count", Better: lower},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "client.query_p99_ms", Unit: "ms", Better: lower},
	{Name: "client.query_max_ms", Unit: "ms", Better: lower},
	{Name: "client.ops", Unit: "count", Better: higher},
	{Name: "client.measured_s", Unit: "s", Better: lower},
	{Name: "client.compact_wait_s", Unit: "s", Better: lower},
	{Name: "client.trace_overhead_pct", Unit: "%", Better: lower},
}

// workloadWhy records why each workload was chosen.
var workloadWhy = map[string]string{
	wlPoint:   "ErrorLog-Int, over 97% of blocks skipped: parse, block pruning, HTTP/JSON and the plan cache (300 row texts, never hits) dominate; scan kernels do little",
	wlScan:    "TPC-H with advanced cuts, ~25% of rows read: pread, decode, filter kernels, aggregation, join and ~200 KB JSON replies dominate; parse does almost none",
	wlIngest:  "one writer (ingest, compact, relayout, reopen) beside one reader: the same layers used for writes next to reads, so a read gain that costs writes shows",
	wlCluster: "the point statements through the front door over 2 shards: the difference to point is exactly shard pruning, scatter, merge and the second HTTP hop",
}

// benchmarkSpec renders BENCHMARK.json from the definitions above, so
// the file and the program cannot drift apart (a test compares them).
func benchmarkSpec(command []string, runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	// metricDef marshals as the driver wants it: a bound on the
	// end-to-end metrics, none (omitempty) on the per-layer ones.
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{Command: command, Paths: []string{"bench"}, RunSeconds: runSeconds, EndToEnd: endToEnd, PerLayer: perLayer}
	for _, name := range workloadNames {
		spec.Workloads = append(spec.Workloads, wl{name, workloadWhy[name]})
	}
	return json.MarshalIndent(spec, "", "  ")
}

// The driver's invocation, written into BENCHMARK.json: run.sh builds
// the binary inside the checkout and runs it at the gated scale (see
// README.md for why it is 200k rows and three set-ups per run).
var benchmarkCommand = []string{"bash", "bench/run.sh", "-rows", "200000", "-setups", "3"}

const benchmarkRunSeconds = 15
