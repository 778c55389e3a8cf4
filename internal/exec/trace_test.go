package exec

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
)

// TestScanSpansUniformAcrossKinds pins what the single scan driver
// records, whatever is computed over the surviving rows: block_prune,
// then scan carrying the base blocks' counters, delta_scan carrying the
// delta's, then the kind's merge — with scan + delta_scan adding up to
// the result's own counters. The TopK path scans the delta before the
// first block but inside the scan span, so its spans start in the same
// order; the join runs the driver once per side under its
// build_scan/probe_scan names.
func TestScanSpansUniformAcrossKinds(t *testing.T) {
	st, layout, dv, _, acs := deltaFixture(t, 3)
	filter := expr.Query{Name: "f", Root: expr.NewPred(expr.Pred{Col: 1, Op: expr.Lt, Literal: 5})}
	run := map[string]func(Options) (Header, error){
		"filter": func(opt Options) (Header, error) {
			r, err := RunDelta(st, layout, filter, acs, EngineDBMS, RouteQdTree, opt, dv)
			return r.Header, err
		},
		"aggregate": func(opt Options) (Header, error) {
			aq := expr.AggQuery{Aggs: []expr.Agg{{Func: expr.AggCountStar}, {Func: expr.AggSum, Col: 2}}, Filter: filter}
			r, err := RunAggDelta(st, layout, aq, acs, EngineDBMS, RouteQdTree, opt, dv)
			return r.Header, err
		},
		"rows": func(opt Options) (Header, error) {
			rq := expr.RowQuery{Cols: []int{0, 1}, Filter: filter}
			r, err := RunRowsDelta(st, layout, rq, acs, EngineDBMS, RouteQdTree, opt, dv)
			return r.Header, err
		},
		"topk": func(opt Options) (Header, error) {
			rq := expr.RowQuery{Cols: []int{0, 1}, Filter: filter, OrderBy: []expr.OrderKey{{Pos: 0}}, Limit: 5}
			r, err := RunRowsDelta(st, layout, rq, acs, EngineDBMS, RouteQdTree, opt, dv)
			return r.Header, err
		},
	}
	for kind, fn := range run {
		tr := obs.NewTrace("")
		h, err := fn(Options{Parallelism: 2, Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		spans := tr.SpanDurations()
		var names []string
		byName := map[string]obs.SpanDur{}
		for _, sp := range spans {
			names = append(names, sp.Name)
			byName[sp.Name] = sp
		}
		want := "block_prune scan delta_scan"
		if kind != "filter" {
			want += " merge"
		}
		if got := strings.Join(names, " "); got != want {
			t.Errorf("%s: spans %q, want %q", kind, got, want)
			continue
		}
		scan, delta := byName["scan"], byName["delta_scan"]
		for _, key := range []string{"blocks_scanned", "rows_scanned", "rows_matched", "bytes_read"} {
			if _, ok := scan.Attrs[key]; !ok {
				t.Errorf("%s: scan span has no %s: %v", kind, key, scan.Attrs)
			}
		}
		if delta.IntAttr("delta_tables") != 2 || delta.IntAttr("delta_rows") != h.DeltaRows || h.DeltaRows != 600 {
			t.Errorf("%s: delta_scan attrs %v, result delta rows %d, want 2 tables / 600 rows", kind, delta.Attrs, h.DeltaRows)
		}
		if got := scan.IntAttr("blocks_scanned") + delta.IntAttr("delta_tables"); got != int64(h.BlocksScanned) {
			t.Errorf("%s: scan+delta_scan count %d units, result %d", kind, got, h.BlocksScanned)
		}
		if got := scan.IntAttr("rows_scanned") + delta.IntAttr("delta_rows"); got != h.RowsScanned {
			t.Errorf("%s: scan+delta_scan count %d rows, result %d", kind, got, h.RowsScanned)
		}
	}

	tr := obs.NewTrace("")
	jq := expr.JoinQuery{LeftTable: "a", RightTable: "b", LeftKey: 1, RightKey: 1,
		Cols: []expr.ColRef{{Side: 0, Col: 0}, {Side: 1, Col: 0}}, LeftFilter: filter, RightFilter: filter, Limit: 3}
	if _, err := RunJoinDelta(st, layout, jq, acs, EngineDBMS, RouteQdTree, Options{Parallelism: 2, Trace: tr}, dv); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range tr.SpanDurations() {
		names = append(names, sp.Name)
	}
	want := "block_prune build_scan delta_scan block_prune probe_scan delta_scan merge"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("join: spans %q, want %q", got, want)
	}
}
