package main

// Multi-process cluster smoke: builds the qdserve binary, starts three
// demo shard processes and one front door on ephemeral ports, and drives
// the distributed serving loop end to end — ingest through the front
// door, scattered queries, a forced re-layout on one shard mid-stream,
// and the degradation contract when a shard dies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

const smokeRows = 20000

// buildQdserve compiles the binary once per test run, or returns the
// prebuilt one QDSERVE_BIN names (for runs whose open-file limit is too
// low for the go tool).
func buildQdserve(t *testing.T) string {
	t.Helper()
	if bin := os.Getenv("QDSERVE_BIN"); bin != "" {
		return bin
	}
	bin := filepath.Join(t.TempDir(), "qdserve")
	if runtime.GOOS == "windows" {
		bin += ".exe"
	}
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

type proc struct {
	cmd  *exec.Cmd
	addr string
	logf string
}

// startProc launches qdserve with -addr 127.0.0.1:0 -addr-file and waits
// for the bound address plus a 200 from /healthz.
func startProc(t *testing.T, bin, dir, name string, args ...string) *proc {
	t.Helper()
	addrFile := filepath.Join(dir, name+".addr")
	logf := filepath.Join(dir, name+".log")
	lf, err := os.Create(logf)
	if err != nil {
		t.Fatal(err)
	}
	full := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout = lf
	cmd.Stderr = lf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	p := &proc{cmd: cmd, logf: logf}
	t.Cleanup(func() {
		if p.cmd.Process != nil {
			p.cmd.Process.Kill()
			p.cmd.Wait()
		}
		lf.Close()
	})
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(addrFile); err == nil {
			p.addr = strings.TrimSpace(string(data))
			break
		}
		if time.Now().After(deadline) {
			logs, _ := os.ReadFile(logf)
			t.Fatalf("%s never published its address; log:\n%s", name, logs)
		}
		time.Sleep(50 * time.Millisecond)
	}
	for {
		resp, err := http.Get("http://" + p.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p
			}
		}
		if time.Now().After(deadline) {
			logs, _ := os.ReadFile(p.logf)
			t.Fatalf("%s never became healthy; log:\n%s", name, logs)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decode: %v", url, err)
	}
	return resp.StatusCode, out
}

func queryCount(t *testing.T, addr, sql string) (int64, map[string]any) {
	t.Helper()
	code, out := postJSON(t, "http://"+addr+"/query", map[string]string{"sql": sql})
	if code != http.StatusOK {
		t.Fatalf("query %q: status %d (%v)", sql, code, out)
	}
	matched, ok := out["rows_matched"].(float64)
	if !ok {
		t.Fatalf("query %q: no rows_matched in %v", sql, out)
	}
	return int64(matched), out
}

// scrapeMetric fetches GET /metrics and returns the first sample value
// whose line starts with prefix (-1 when absent).
func scrapeMetric(t *testing.T, addr, prefix string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET /metrics Content-Type %q", ct)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	for _, line := range strings.Split(body.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			var v float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &v); err == nil {
				return v
			}
		}
	}
	return -1
}

// TestStandaloneObsSmoke boots one standalone demo process with -pprof
// and checks the observability surface end to end: /metrics moves with
// traffic, "trace": true returns spans, /debug/traces records them, and
// /debug/pprof answers.
func TestStandaloneObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke")
	}
	bin := buildQdserve(t)
	dir := t.TempDir()
	p := startProc(t, bin, dir, "standalone",
		"-demo", "-store", filepath.Join(dir, "store"),
		"-rows", "5000", "-interval", "0", "-compact-interval", "0",
		"-pprof", "-slow-ms", "1",
	)

	// Labelled series materialize on first use: absent before traffic.
	if got := scrapeMetric(t, p.addr, `qd_queries_total{type="filter"}`); got > 0 {
		t.Fatalf("fresh server qd_queries_total = %v, want absent/0", got)
	}
	code, out := postJSON(t, "http://"+p.addr+"/query",
		map[string]any{"sql": "severity >= 8", "trace": true})
	if code != http.StatusOK {
		t.Fatalf("traced query: status %d (%v)", code, out)
	}
	tr, ok := out["trace"].(map[string]any)
	if !ok {
		t.Fatalf("no trace in response: %v", out)
	}
	spans, _ := tr["spans"].([]any)
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"parse", "block_prune", "scan"} {
		if !names[want] {
			t.Fatalf("trace missing span %q: %v", want, names)
		}
	}
	if got := scrapeMetric(t, p.addr, `qd_queries_total{type="filter"}`); got != 1 {
		t.Fatalf("qd_queries_total = %v, want 1 after one query", got)
	}
	// The slow-query counter is registered (its value depends on actual
	// latency vs -slow-ms; exact accounting is covered in internal/serve).
	if got := scrapeMetric(t, p.addr, "qd_slow_queries_total"); got < 0 {
		t.Fatalf("qd_slow_queries_total missing from /metrics")
	}

	resp, err := http.Get("http://" + p.addr + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	var ring map[string]any
	json.NewDecoder(resp.Body).Decode(&ring)
	resp.Body.Close()
	if total, _ := ring["traces_total"].(float64); total < 1 {
		t.Fatalf("/debug/traces total = %v", ring)
	}

	resp, err = http.Get("http://" + p.addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d with -pprof", resp.StatusCode)
	}
}

func TestClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke")
	}
	bin := buildQdserve(t)
	dir := t.TempDir()
	clusterDir := filepath.Join(dir, "cluster")

	const nshards = 3
	var shards []*proc
	var peerAddrs []string
	for i := 0; i < nshards; i++ {
		p := startProc(t, bin, dir, fmt.Sprintf("shard%d", i),
			"-role", "shard", "-demo",
			"-store", clusterDir,
			"-shards", fmt.Sprint(nshards), "-shard-index", fmt.Sprint(i),
			"-rows", fmt.Sprint(smokeRows),
			"-interval", "0", "-compact-interval", "0", "-min-window", "1",
		)
		shards = append(shards, p)
		peerAddrs = append(peerAddrs, p.addr)
	}
	front := startProc(t, bin, dir, "frontdoor",
		"-role", "frontdoor", "-peers", strings.Join(peerAddrs, ","),
		"-shard-retries", "0", "-shard-timeout", "5s",
	)

	// The scattered count must equal the single-table row count: the
	// shards partition the demo table exactly.
	total, out := queryCount(t, front.addr, "severity >= 0")
	if total != smokeRows {
		t.Fatalf("cluster-wide count %d, want %d (%v)", total, smokeRows, out)
	}
	if part, _ := out["partial"].(bool); part {
		t.Fatalf("clean scatter flagged partial: %v", out)
	}
	if st, _ := out["shards_total"].(float64); int(st) != nshards {
		t.Fatalf("shards_total %v, want %d", out["shards_total"], nshards)
	}

	// Every role serves /metrics, and the query above moved the counters:
	// the front door's gather counter and some shard's serve counter.
	if got := scrapeMetric(t, front.addr, `qd_fd_queries_total{type="filter"}`); got < 1 {
		t.Fatalf("front door qd_fd_queries_total = %v, want >= 1", got)
	}
	var shardQueries float64
	for _, p := range shards {
		if v := scrapeMetric(t, p.addr, `qd_queries_total{type="filter"}`); v > 0 {
			shardQueries += v
		}
	}
	if shardQueries < float64(nshards) {
		t.Fatalf("shard qd_queries_total sum = %v, want >= %d (unpruned scatter hits all shards)", shardQueries, nshards)
	}

	// Aggregation through the front door matches the filter count.
	code, agg := postJSON(t, "http://"+front.addr+"/query",
		map[string]string{"sql": "SELECT COUNT(*), MIN(severity), MAX(severity) FROM logs"})
	if code != http.StatusOK {
		t.Fatalf("aggregate: status %d (%v)", code, agg)
	}
	rows, _ := agg["rows"].([]any)
	if len(rows) != 1 {
		t.Fatalf("aggregate rows: %v", agg)
	}
	aggs := rows[0].(map[string]any)["aggs"].([]any)
	if cnt := aggs[0].(map[string]any)["int"].(float64); int64(cnt) != smokeRows {
		t.Fatalf("COUNT(*) = %v, want %d", cnt, smokeRows)
	}

	// Ingest through the front door: rows land in some shard's delta and
	// are immediately visible cluster-wide.
	code, ing := postJSON(t, "http://"+front.addr+"/ingest", map[string]any{
		"rows": [][]any{{360, 9, "auth"}, {361, 9, "billing"}, {362, 9, "auth"}},
	})
	if code != http.StatusOK {
		t.Fatalf("ingest: status %d (%v)", code, ing)
	}
	if ins, _ := ing["inserted"].(float64); int(ins) != 3 {
		t.Fatalf("ingest inserted %v, want 3", ing)
	}
	total2, _ := queryCount(t, front.addr, "severity >= 0")
	if total2 != smokeRows+3 {
		t.Fatalf("post-ingest count %d, want %d", total2, smokeRows+3)
	}

	// Force a re-layout on shard 0 while a query stream is in flight; the
	// merged counts must stay exact throughout the swap.
	relayoutDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, "http://"+shards[0].addr+"/relayout", strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("relayout status %d", resp.StatusCode)
			}
		}
		relayoutDone <- err
	}()
	for i := 0; i < 20; i++ {
		if got, _ := queryCount(t, front.addr, "severity >= 0"); got != smokeRows+3 {
			t.Fatalf("mid-relayout count %d, want %d", got, smokeRows+3)
		}
	}
	if err := <-relayoutDone; err != nil {
		t.Fatalf("forced relayout: %v", err)
	}
	if got, _ := queryCount(t, front.addr, "severity >= 0"); got != smokeRows+3 {
		t.Fatalf("post-relayout count %d, want %d", got, smokeRows+3)
	}

	// Kill shard 2 → scatters still answer, flagged partial; only when
	// every owning shard is down does the front door return 503.
	shards[2].cmd.Process.Signal(syscall.SIGKILL)
	shards[2].cmd.Wait()
	code, out = postJSON(t, "http://"+front.addr+"/query", map[string]string{"sql": "severity >= 0"})
	if code != http.StatusOK {
		t.Fatalf("degraded scatter: status %d (%v)", code, out)
	}
	if part, _ := out["partial"].(bool); !part {
		t.Fatalf("degraded scatter not flagged partial: %v", out)
	}
	if failed, _ := out["shards_failed"].(float64); int(failed) != 1 {
		t.Fatalf("shards_failed %v, want 1", out["shards_failed"])
	}

	// Kill the remaining shards: every owner down → 503.
	shards[0].cmd.Process.Signal(syscall.SIGKILL)
	shards[0].cmd.Wait()
	shards[1].cmd.Process.Signal(syscall.SIGKILL)
	shards[1].cmd.Wait()
	code, out = postJSON(t, "http://"+front.addr+"/query", map[string]string{"sql": "severity >= 0"})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("all shards down: status %d, want 503 (%v)", code, out)
	}
	if msg, _ := out["error"].(string); msg == "" {
		t.Fatalf("503 body must carry a JSON error: %v", out)
	}
}
