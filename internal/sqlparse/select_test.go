package sqlparse

import (
	"testing"

	"repro/internal/expr"
)

func mustParseSelect(t *testing.T, sql string) (expr.AggQuery, *Parser) {
	t.Helper()
	p := NewParser(testSchema())
	aq, err := p.ParseSelect(sql)
	if err != nil {
		t.Fatalf("ParseSelect %q: %v", sql, err)
	}
	return aq, p
}

func TestParseSelectCountStar(t *testing.T) {
	aq, _ := mustParseSelect(t, "SELECT COUNT(*) FROM t WHERE a < 10")
	if len(aq.Aggs) != 1 || aq.Aggs[0].Func != expr.AggCountStar {
		t.Fatalf("aggs = %+v", aq.Aggs)
	}
	if len(aq.GroupBy) != 0 {
		t.Fatalf("group by = %v", aq.GroupBy)
	}
	if aq.Filter.Root == nil {
		t.Fatal("filter missing")
	}
	if !aq.Filter.Eval([]int64{5, 0, 0, 0, 0}, nil) {
		t.Error("a=5 must pass the filter")
	}
}

func TestParseSelectFullGrammar(t *testing.T) {
	aq, _ := mustParseSelect(t,
		"SELECT mode, COUNT(*), SUM(a), MIN(b), MAX(b), AVG(ship), COUNT(a) FROM logs WHERE a >= 3 AND mode IN ('AIR', 'RAIL') GROUP BY mode")
	wantFuncs := []expr.AggFunc{expr.AggCountStar, expr.AggSum, expr.AggMin, expr.AggMax, expr.AggAvg, expr.AggCount}
	if len(aq.Aggs) != len(wantFuncs) {
		t.Fatalf("aggs = %+v", aq.Aggs)
	}
	for i, f := range wantFuncs {
		if aq.Aggs[i].Func != f {
			t.Errorf("agg %d func = %v, want %v", i, aq.Aggs[i].Func, f)
		}
	}
	if aq.Aggs[1].Col != 0 || aq.Aggs[2].Col != 1 || aq.Aggs[4].Col != 2 {
		t.Errorf("agg columns wrong: %+v", aq.Aggs)
	}
	if len(aq.GroupBy) != 1 || aq.GroupBy[0] != 4 {
		t.Errorf("group by = %v, want [4]", aq.GroupBy)
	}
}

func TestParseSelectNoWhere(t *testing.T) {
	aq, _ := mustParseSelect(t, "SELECT SUM(a) FROM t")
	if aq.Filter.Root != nil {
		t.Error("no WHERE must leave a nil filter root (full scan)")
	}
	aq2, _ := mustParseSelect(t, "SELECT mode, COUNT(*) FROM t GROUP BY mode")
	if aq2.Filter.Root != nil || len(aq2.GroupBy) != 1 {
		t.Errorf("parsed %+v", aq2)
	}
}

func TestParseSelectMultiGroup(t *testing.T) {
	aq, _ := mustParseSelect(t, "SELECT mode, a, COUNT(*) FROM t GROUP BY mode, a")
	if len(aq.GroupBy) != 2 || aq.GroupBy[0] != 4 || aq.GroupBy[1] != 0 {
		t.Errorf("group by = %v", aq.GroupBy)
	}
	// Duplicate GROUP BY columns collapse.
	aq2, _ := mustParseSelect(t, "SELECT COUNT(*) FROM t GROUP BY mode, mode")
	if len(aq2.GroupBy) != 1 {
		t.Errorf("duplicate group cols must collapse: %v", aq2.GroupBy)
	}
}

func TestParseSelectCaseInsensitive(t *testing.T) {
	aq, _ := mustParseSelect(t, "select count(*), sum(a) from t where b > 1 group by mode")
	if len(aq.Aggs) != 2 || len(aq.GroupBy) != 1 {
		t.Fatalf("parsed %+v", aq)
	}
}

func TestParseSelectRendersAsFixpoint(t *testing.T) {
	sqls := []string{
		"SELECT COUNT(*) FROM t WHERE a < 10",
		"SELECT mode, SUM(a), AVG(b) FROM t WHERE ship < commit_d GROUP BY mode",
		"SELECT SUM(a) FROM t",
		"SELECT mode, a, COUNT(*), MIN(ship) FROM t WHERE mode IN ('AIR', 'RAIL') GROUP BY mode, a",
	}
	for _, sql := range sqls {
		p := NewParser(testSchema())
		aq, err := p.ParseSelect(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		names := p.Schema.Names()
		rendered := aq.StringWith(names, p.ACs)
		p2 := NewParser(testSchema())
		aq2, err := p2.ParseSelect(rendered)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", rendered, sql, err)
		}
		if got := aq2.StringWith(names, p2.ACs); got != rendered {
			t.Errorf("%q: fixpoint broken: %q -> %q", sql, rendered, got)
		}
	}
}

func TestParseSelectErrors(t *testing.T) {
	bad := []string{
		"SELECT FROM t",                            // empty select list
		"SELECT COUNT(*) WHERE a < 1",              // missing FROM
		"SELECT COUNT(*) FROM",                     // missing table
		"SELECT a FROM t",                          // bare column without GROUP BY
		"SELECT a, COUNT(*) FROM t GROUP BY mode",  // bare column not in GROUP BY
		"SELECT MEDIAN(a) FROM t",                  // unknown aggregate
		"SELECT SUM(*) FROM t",                     // * only valid in COUNT
		"SELECT SUM(zzz) FROM t",                   // unknown aggregate column
		"SELECT COUNT(*) FROM t GROUP BY zzz",      // unknown group column
		"SELECT COUNT(*) FROM t GROUP mode",        // GROUP without BY
		"SELECT COUNT(*) FROM t WHERE",             // empty filter
		"SELECT COUNT(*) FROM t GROUP BY mode foo", // trailing input
		"SELECT COUNT(*), FROM t",                  // dangling comma
		"COUNT(*) FROM t",                          // missing SELECT
		"SELECT * FROM t",                          // bare * is not an item
	}
	for _, sql := range bad {
		p := NewParser(testSchema())
		if _, err := p.ParseSelect(sql); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}

func TestParseSelectAdvancedCutShared(t *testing.T) {
	p := NewParser(testSchema())
	if _, err := p.ParseSelect("SELECT COUNT(*) FROM t WHERE ship < commit_d"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ParseSelect("SELECT SUM(a) FROM t WHERE ship < commit_d AND a < 5"); err != nil {
		t.Fatal(err)
	}
	if len(p.ACs) != 1 {
		t.Fatalf("ACs = %d, want 1 (interned across statements)", len(p.ACs))
	}
}

func TestParseSelectNeedsColumn(t *testing.T) {
	aq, _ := mustParseSelect(t, "SELECT COUNT(*), COUNT(b), SUM(a) FROM t")
	// COUNT(*) and COUNT(col) only count selected rows; SUM reads data.
	if aq.Aggs[0].NeedsColumn() || aq.Aggs[1].NeedsColumn() || !aq.Aggs[2].NeedsColumn() {
		t.Fatalf("NeedsColumn flags wrong: %+v", aq.Aggs)
	}
}
