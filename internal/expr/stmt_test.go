package expr

import "testing"

// TestStatementKinds pins what derives from a Statement's payload: its
// kind, its metric label, the filters it scans with, its name and its
// canonical rendering.
func TestStatementKinds(t *testing.T) {
	names := []string{"t", "cat"}
	f := AndQ("f", Pred{Col: 0, Op: Lt, Literal: 10})
	g := AndQ("g", Pred{Col: 1, Op: Eq, Literal: 2})
	cases := []struct {
		stmt    Statement
		kind    StmtKind
		typ     string
		filters int
		sql     string
	}{
		{Statement{Filter: f}, StmtFilter, "filter", 1, "t < 10"},
		{Statement{Agg: &AggQuery{Aggs: []Agg{{Func: AggCountStar}}, Filter: f}}, StmtAgg, "select", 1,
			"SELECT COUNT(*) FROM t WHERE t < 10"},
		{Statement{Agg: &AggQuery{Aggs: []Agg{{Func: AggCountStar}}, Filter: f}, Partial: true}, StmtAgg, "select_partial", 1,
			"SELECT COUNT(*) FROM t WHERE t < 10"},
		{Statement{Row: &RowQuery{Cols: []int{0}, Filter: f, Limit: 3}}, StmtRows, "rows", 1,
			"SELECT t FROM t WHERE t < 10 LIMIT 3"},
		{Statement{Join: &JoinQuery{LeftTable: "a", RightTable: "b", Cols: []ColRef{{Side: 1, Col: 1}}, LeftFilter: f, RightFilter: g}}, StmtJoin, "join", 2,
			"SELECT b.cat FROM a JOIN b ON a.t = b.t WHERE a.t < 10 AND b.cat = 2"},
	}
	for _, c := range cases {
		if c.stmt.Kind() != c.kind || c.stmt.Type() != c.typ {
			t.Errorf("%s: kind %d type %q, want %d %q", c.sql, c.stmt.Kind(), c.stmt.Type(), c.kind, c.typ)
		}
		if got := c.stmt.Filters(); len(got) != c.filters || got[0].Root != f.Root {
			t.Errorf("%s: filters %v", c.sql, got)
		}
		if got := c.stmt.StringWith(names, nil); got != c.sql {
			t.Errorf("StringWith = %q, want %q", got, c.sql)
		}
		c.stmt.SetName("named")
		if c.stmt.Name() != "named" {
			t.Errorf("%s: name %q after SetName", c.sql, c.stmt.Name())
		}
	}
	if (Statement{}).Kind() != StmtFilter || (Statement{}).Filters()[0].Root != nil {
		t.Error("the zero Statement must be the match-all filter")
	}
}
