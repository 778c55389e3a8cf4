package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/table"
)

// pruneStatements cover every statement kind and the witness shapes a
// block_prune span carries: interval witnesses, IN and OR witnesses,
// categorical routing prunes (no interval witness), nothing pruned, every
// block pruned, witness lists below and above maxPruneDetail, and a join's
// two sides.
var pruneStatements = []string{
	"x >= 100 AND x < 150",
	"x = 7",
	"x < 0",
	"x IN (3, 500, 999)",
	"x < 10 OR x > 990",
	"svc = 'auth' AND x < 500",
	"svc = 'billing'",
	"x >= 700",
	"x >= 100",
	"y >= 50",
	"SELECT svc, COUNT(*), MAX(x) FROM t WHERE x < 300 GROUP BY svc",
	"SELECT y FROM t WHERE x >= 20 AND x < 40 ORDER BY y DESC LIMIT 5",
	"SELECT a.y, b.svc FROM a JOIN b ON a.x = b.x WHERE a.x < 3 AND b.x >= 600 ORDER BY a.y, b.svc",
}

// TestBlockPruneAttrsPinned pins what the always-on prune recorder feeds:
// the inline "trace": true block_prune attrs of a fixed statement set
// equal testdata/block_prune.golden, written by the block-by-block walk
// that explained every pruned block, and qd_blocks_skipped_total{reason}
// equals the golden's pruned_route and pruned_sma sums. Regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/serve -run TestBlockPruneAttrsPinned
func TestBlockPruneAttrsPinned(t *testing.T) {
	schema := table.MustSchema([]table.Column{
		{Name: "x", Kind: table.Numeric, Min: 0, Max: 999},
		{Name: "y", Kind: table.Numeric, Min: 0, Max: 99},
		{Name: "svc", Kind: table.Categorical, Dom: 3, Dict: []string{"auth", "billing", "search"}},
	})
	const n = 8000
	tbl := table.New(schema, n)
	for i := 0; i < n; i++ {
		tbl.AppendRow([]int64{int64(i % 1000), int64(i*7) % 100, int64(i/1000) % 3})
	}
	var planned []expr.Query
	for lo := int64(0); lo < 1000; lo += 25 {
		planned = append(planned, bandQuery("band", lo, lo+25))
	}
	// Only "billing" is planned for, so blocks holding "auth" and "search"
	// have an svc interval that contains "billing" and a mask that does not.
	for i := 0; i < 20; i++ {
		planned = append(planned, expr.AndQ("svc", expr.Pred{Col: 2, Op: expr.Eq, Literal: 1}))
	}
	s, err := New(newTestRoot(t, tbl, planned), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(s))
	t.Cleanup(func() { ts.Close(); s.Close() })

	// The golden holds, per statement, a "-- sql" line and then each
	// block_prune span's attrs as the reply carried them, one per line.
	var got strings.Builder
	for _, sql := range pruneStatements {
		resp := postJSON(t, ts.URL+"/query", QueryRequest{SQL: sql, Trace: true})
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", sql, resp.StatusCode, raw)
		}
		var qr struct {
			Trace struct {
				Spans []struct {
					Name  string          `json:"name"`
					Attrs json.RawMessage `json:"attrs"`
				} `json:"spans"`
			} `json:"trace"`
		}
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "-- %s\n", sql)
		for _, sp := range qr.Trace.Spans {
			if sp.Name == "block_prune" {
				fmt.Fprintf(&got, "%s\n", sp.Attrs)
			}
		}
	}
	path := filepath.Join("testdata", "block_prune.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got.String() != string(want) {
		t.Fatalf("block_prune attrs differ from %s\ngot:\n%s", path, got.String())
	}

	sums := map[string]int64{}
	truncated := false
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if strings.HasPrefix(line, "-- ") {
			continue
		}
		var attrs struct {
			Route     int64 `json:"pruned_route"`
			SMA       int64 `json:"pruned_sma"`
			Truncated bool  `json:"pruned_truncated"`
		}
		if err := json.Unmarshal([]byte(line), &attrs); err != nil {
			t.Fatal(err)
		}
		sums["route"] += attrs.Route
		sums["sma"] += attrs.SMA
		truncated = truncated || attrs.Truncated
	}
	if !truncated {
		t.Fatal("no statement prunes more blocks than the witness list holds")
	}
	var sb strings.Builder
	s.Metrics().WritePrometheus(&sb)
	for reason, sum := range sums {
		if got := skippedCounter(sb.String(), reason); got != sum {
			t.Errorf("qd_blocks_skipped_total{reason=%q} = %d, want %d", reason, got, sum)
		}
	}
}

// skippedCounter reads qd_blocks_skipped_total{reason} from a Prometheus
// text scrape; an absent series reads 0.
func skippedCounter(text, reason string) int64 {
	prefix := `qd_blocks_skipped_total{reason="` + reason + `"} `
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, prefix); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}
