package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
)

// metricsGolden pins the /metrics exposition contract: every family a
// standalone server registers, its type, and the label sets its series
// use once the server has served traffic. Renaming a metric or changing
// its labels must be a conscious change here.
var metricsGolden = []string{
	"qd_arena_pool_gets|gauge|",
	"qd_arena_pool_misses|gauge|",
	"qd_blocks_scanned_total|counter|",
	"qd_blocks_skipped_total|counter|reason",
	"qd_blocks|gauge|",
	"qd_bytes_read_total|counter|",
	"qd_compacted_rows_total|counter|",
	"qd_compaction_bytes_written_total|counter|",
	"qd_compactions_total|counter|outcome",
	"qd_delta_bytes|gauge|",
	"qd_delta_rows|gauge|",
	"qd_freshness_seconds|gauge|",
	"qd_generation|gauge|",
	"qd_ingest_rows_total|counter|",
	"qd_join_build_rows_total|counter|",
	"qd_join_probe_rows_total|counter|",
	"qd_plan_cache_total|counter|outcome",
	"qd_queries_total|counter|type",
	"qd_query_duration_seconds|histogram|type",
	// qd_query_errors_total is labelled {type}, but label keys only
	// render once a series exists and no query errors in this test.
	"qd_query_errors_total|counter|",
	"qd_relayouts_total|counter|outcome",
	"qd_rows_matched_total|counter|",
	"qd_rows_scanned_total|counter|source",
	"qd_rows|gauge|",
	"qd_slow_queries_total|counter|",
	"qd_stage_duration_seconds|histogram|stage",
}

// scrapeFamilies parses exposition text into "name|type|labels" entries
// plus the set of label keys actually used per family.
func scrapeFamilies(t *testing.T, text string) []string {
	t.Helper()
	types := map[string]string{}
	labels := map[string]map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			types[parts[2]] = parts[3]
			labels[parts[2]] = map[string]bool{}
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		lset := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.IndexByte(line, '}')
			if j < i {
				t.Fatalf("malformed series line: %q", line)
			}
			lset = line[i+1 : j]
			name = line[:i]
		} else if i := strings.IndexByte(line, ' '); i >= 0 {
			name = line[:i]
		}
		fam := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if s := strings.TrimSuffix(name, suf); s != name && types[s] == "histogram" {
				fam = s
			}
		}
		if _, ok := types[fam]; !ok {
			t.Fatalf("series %q has no TYPE header", line)
		}
		for _, pair := range strings.Split(lset, ",") {
			if pair == "" {
				continue
			}
			k := pair[:strings.IndexByte(pair, '=')]
			if k != "le" {
				labels[fam][k] = true
			}
		}
	}
	var out []string
	for name, typ := range types {
		var ks []string
		for k := range labels[name] {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		out = append(out, name+"|"+typ+"|"+strings.Join(ks, ","))
	}
	sort.Strings(out)
	return out
}

// TestMetricsGolden drives a query, an ingest, a compaction, and a
// relayout, then pins the full family/type/label-set contract of
// GET /metrics.
func TestMetricsGolden(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Execute(expr.Statement{Filter: bandQuery("g", 100, 150)}, nil); err != nil {
		t.Fatal(err)
	}
	// The same row statement twice: a plan-cache miss then a hit, and a
	// join to move the build/probe counters.
	for i := 0; i < 2; i++ {
		if _, err := s.SelectRowsSQL("SELECT x FROM t WHERE x < 50 ORDER BY x DESC LIMIT 5"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.SelectRowsSQL("SELECT a.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 AND b.x < 2 LIMIT 4"); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert([][]int64{{77}, {78}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Relayout(true); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	s.Metrics().WritePrometheus(&sb)
	got := scrapeFamilies(t, sb.String())
	want := append([]string(nil), metricsGolden...)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("metric families changed:\n got: %v\nwant: %v", got, want)
	}

	// A counter must have moved for the query that ran.
	if !strings.Contains(sb.String(), `qd_queries_total{type="filter"} 1`) {
		t.Errorf("qd_queries_total did not move:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "qd_ingest_rows_total 2") {
		t.Errorf("qd_ingest_rows_total did not move")
	}
	if !strings.Contains(sb.String(), `qd_queries_total{type="rows"} 2`) {
		t.Errorf("qd_queries_total{type=rows} did not move:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `qd_plan_cache_total{outcome="hit"} 1`) ||
		!strings.Contains(sb.String(), `qd_plan_cache_total{outcome="miss"} 2`) {
		t.Errorf("plan-cache counters wrong:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), `qd_queries_total{type="join"} 1`) {
		t.Errorf("qd_queries_total{type=join} did not move")
	}
}

// TestTraceResponseSchema pins the JSON shape "trace": true returns:
// span names covering the pipeline, block_prune naming pruned blocks
// and the SMA column/bound that pruned them.
func TestTraceResponseSchema(t *testing.T) {
	_, ts := newHTTPFixture(t)
	resp := postJSON(t, ts.URL+"/query", QueryRequest{SQL: "x >= 100 AND x < 150", Trace: true})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	var qr struct {
		Trace *struct {
			TraceID string `json:"trace_id"`
			DurNS   int64  `json:"dur_ns"`
			Spans   []struct {
				Name    string         `json:"name"`
				StartNS int64          `json:"start_ns"`
				DurNS   int64          `json:"dur_ns"`
				Attrs   map[string]any `json:"attrs"`
			} `json:"spans"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatalf("no trace in response: %s", raw)
	}
	if len(qr.Trace.TraceID) != 16 || qr.Trace.DurNS <= 0 {
		t.Errorf("trace header = %q/%d", qr.Trace.TraceID, qr.Trace.DurNS)
	}
	byName := map[string]map[string]any{}
	for _, sp := range qr.Trace.Spans {
		byName[sp.Name] = sp.Attrs
	}
	for _, want := range []string{"parse", "block_prune", "scan"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("missing span %q in %s", want, raw)
		}
	}
	pa := byName["block_prune"]
	if pa["blocks_total"] == nil || pa["candidates"] == nil {
		t.Fatalf("block_prune attrs missing totals: %v", pa)
	}
	prunedList, ok := pa["pruned"].([]any)
	if !ok || len(prunedList) == 0 {
		t.Fatalf("block_prune names no pruned blocks: %v", pa)
	}
	first, ok := prunedList[0].(map[string]any)
	if !ok || first["block"] == nil || first["by"] == nil {
		t.Fatalf("pruned entry shape: %v", prunedList[0])
	}
	// At least one pruned block must carry its SMA witness: the column
	// and bound that proved it cannot match.
	withCause := false
	for _, p := range prunedList {
		m := p.(map[string]any)
		if m["column"] == "x" && m["op"] != nil {
			withCause = true
		}
	}
	if !withCause {
		t.Errorf("no pruned block names its SMA column/bound: %v", prunedList)
	}

	// A caller-supplied trace ID must round-trip.
	req, _ := http.NewRequest("POST", ts.URL+"/query",
		strings.NewReader(`{"sql": "x >= 100 AND x < 150", "trace": true}`))
	req.Header.Set(obs.TraceHeader, "deadbeefdeadbeef")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(raw2), `"trace_id":"deadbeefdeadbeef"`) {
		t.Errorf("supplied trace ID not honored: %s", raw2)
	}
}

// TestStageHistogramsReconcile: per-stage histogram sums must equal the
// summed span durations of the traces that fed them — the exposed
// latency breakdown is the trace, aggregated.
func TestStageHistogramsReconcile(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	wantSum := map[string]float64{}
	wantN := map[string]uint64{}
	for i := 0; i < 3; i++ {
		tr := obs.NewTrace("")
		if _, err := s.Execute(expr.Statement{Filter: bandQuery("r", 100, 150)}, tr); err != nil {
			t.Fatal(err)
		}
		for _, sd := range tr.SpanDurations() {
			wantSum[sd.Name] += float64(sd.DurNS) / 1e9
			wantN[sd.Name]++
		}
	}
	for stage, want := range wantSum {
		h := s.metrics.stageDur.With(stage)
		if h.Count() != wantN[stage] {
			t.Errorf("stage %q count = %d, want %d", stage, h.Count(), wantN[stage])
		}
		if diff := math.Abs(h.Sum() - want); diff > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("stage %q sum = %v, want %v (traces)", stage, h.Sum(), want)
		}
	}
	if len(wantSum) == 0 {
		t.Fatal("traced queries recorded no spans")
	}
}

// TestSlowQueryAccounting: a zero-duration threshold is impossible to
// build via config (0 = default), so use a tiny positive one and a
// query that must exceed it... instead, drive the threshold negative
// (disabled) and positive-small, and check Stats/metrics agree.
func TestSlowQueryAccounting(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	cfg := testConfig()
	cfg.SlowQuery = time.Nanosecond // everything is slow
	s, err := New(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 2; i++ {
		if _, err := s.Execute(expr.Statement{Filter: bandQuery("s", 0, 100)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.SlowQueries != 2 {
		t.Errorf("Stats.SlowQueries = %d, want 2", st.SlowQueries)
	}
	if st.SlowThresholdMS <= 0 {
		t.Errorf("Stats.SlowThresholdMS = %v", st.SlowThresholdMS)
	}
	if got := s.metrics.slowQueries.Value(); got != 2 {
		t.Errorf("qd_slow_queries_total = %d, want 2", got)
	}
	snap := s.Traces().Snapshot()
	if snap.SlowTotal != 2 || len(snap.Slow) != 2 {
		t.Errorf("slow trace ring = %d/%d, want 2/2", snap.SlowTotal, len(snap.Slow))
	}

	// Disabled threshold: nothing is slow.
	cfg2 := testConfig()
	cfg2.SlowQuery = -1
	root2 := newTestRoot(t, fixtureTable(2000), workloadA())
	s2, err := New(root2, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Execute(expr.Statement{Filter: bandQuery("s", 0, 100)}, nil); err != nil {
		t.Fatal(err)
	}
	if st2 := s2.Stats(); st2.SlowQueries != 0 || st2.SlowThresholdMS != 0 {
		t.Errorf("disabled threshold: %+v", st2)
	}
}

// TestObsConcurrentStress hammers the observability read endpoints while
// queries, inserts, forced relayouts, and compactions run — the torn-read
// audit's regression test; -race makes any unsynchronized access fail.
func TestObsConcurrentStress(t *testing.T) {
	tbl := fixtureTable(4000)
	root := newTestRoot(t, tbl, workloadA())
	s, err := New(root, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := Handler(s)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	get := func(path string) {
		req, _ := http.NewRequest("GET", path, nil)
		rr := &respSink{}
		h.ServeHTTP(rr, req)
	}
	for _, path := range []string{"/stats", "/metrics", "/debug/traces"} {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					get(p)
				}
			}
		}(path)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := s.Execute(expr.Statement{Filter: workloadB()[i%4]}, nil); err != nil {
					t.Error(err)
					return
				}
				_ = s.Insert([][]int64{{int64(i % 1000)}})
				i++
			}
		}
	}()
	for i := 0; i < 4; i++ {
		if _, err := s.Relayout(true); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// respSink is a no-alloc ResponseWriter for the stress loop.
type respSink struct{ h http.Header }

func (r *respSink) Header() http.Header {
	if r.h == nil {
		r.h = make(http.Header)
	}
	return r.h
}
func (r *respSink) Write(b []byte) (int, error) { return len(b), nil }
func (r *respSink) WriteHeader(int)             {}
