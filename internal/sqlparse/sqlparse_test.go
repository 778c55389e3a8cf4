package sqlparse

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/table"
)

func testSchema() *table.Schema {
	return table.MustSchema([]table.Column{
		{Name: "a", Kind: table.Numeric, Min: 0, Max: 999},
		{Name: "b", Kind: table.Numeric, Min: 0, Max: 999},
		{Name: "ship", Kind: table.Numeric, Min: 0, Max: 3000},
		{Name: "commit_d", Kind: table.Numeric, Min: 0, Max: 3000},
		{Name: "mode", Kind: table.Categorical, Dom: 4, Dict: []string{"AIR", "AIR REG", "RAIL", "TRUCK"}},
	})
}

func mustParse(t *testing.T, sql string) (expr.Query, *Parser) {
	t.Helper()
	p := NewParser(testSchema())
	q, err := p.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	return q, p
}

func TestParsePaperExample(t *testing.T) {
	// The Sec. 3.4 example: three cuts extracted.
	q, _ := mustParse(t, "SELECT x FROM R WHERE (R.a < 10 OR R.b > 90) AND (mode IN ('AIR', 'RAIL'))")
	preds := q.Preds()
	if len(preds) != 3 {
		t.Fatalf("extracted %d cuts, paper says 3", len(preds))
	}
	if !q.Eval([]int64{5, 0, 0, 0, 0}, nil) {
		t.Error("a=5, mode=AIR must match")
	}
	if q.Eval([]int64{5, 0, 0, 0, 3}, nil) {
		t.Error("mode=TRUCK must not match")
	}
	if q.Eval([]int64{50, 50, 0, 0, 0}, nil) {
		t.Error("neither disjunct holds: must not match")
	}
}

func TestParseBareExpression(t *testing.T) {
	q, _ := mustParse(t, "a >= 10 AND a <= 20")
	if !q.Eval([]int64{15, 0, 0, 0, 0}, nil) || q.Eval([]int64{25, 0, 0, 0, 0}, nil) {
		t.Error("range semantics wrong")
	}
}

func TestParseBetween(t *testing.T) {
	q, _ := mustParse(t, "b BETWEEN 5 AND 9")
	for v, want := range map[int64]bool{4: false, 5: true, 9: true, 10: false} {
		if got := q.Eval([]int64{0, v, 0, 0, 0}, nil); got != want {
			t.Errorf("b=%d: got %v", v, got)
		}
	}
}

func TestParseAdvancedCut(t *testing.T) {
	q, p := mustParse(t, "ship < commit_d AND a < 100")
	refs := q.AdvRefs()
	if len(refs) != 1 || len(p.ACs) != 1 {
		t.Fatalf("advanced cuts: refs=%v table=%v", refs, p.ACs)
	}
	ac := p.ACs[0]
	if ac.Left != 2 || ac.Op != expr.Lt || ac.Right != 3 {
		t.Fatalf("AC = %+v", ac)
	}
	if !q.Eval([]int64{5, 0, 10, 20, 0}, p.ACs) {
		t.Error("ship<commit must match")
	}
	if q.Eval([]int64{5, 0, 30, 20, 0}, p.ACs) {
		t.Error("ship>commit must not match")
	}
}

func TestAdvancedCutInterned(t *testing.T) {
	p := NewParser(testSchema())
	if _, err := p.Parse("ship < commit_d"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Parse("ship < commit_d AND a < 5"); err != nil {
		t.Fatal(err)
	}
	if len(p.ACs) != 1 {
		t.Fatalf("ACs = %d, want 1 (interned)", len(p.ACs))
	}
	if _, err := p.Parse("commit_d < ship"); err != nil {
		t.Fatal(err)
	}
	if len(p.ACs) != 2 {
		t.Fatalf("ACs = %d, want 2 (different direction)", len(p.ACs))
	}
}

func TestParseDateLiteral(t *testing.T) {
	q, _ := mustParse(t, "ship >= '1992-01-03'")
	if !q.Eval([]int64{0, 0, 2, 0, 0}, nil) || q.Eval([]int64{0, 0, 1, 0, 0}, nil) {
		t.Error("date literal must convert to day number 2")
	}
	// Leap-year handling: 1992-03-01 is day 60.
	q2, _ := mustParse(t, "ship = '1992-03-01'")
	if !q2.Eval([]int64{0, 0, 60, 0, 0}, nil) {
		t.Error("1992-03-01 must be day 60")
	}
	// 1992 is a leap year, so Feb 29 exists and is the day before.
	q3, _ := mustParse(t, "ship = '1992-02-29'")
	if !q3.Eval([]int64{0, 0, 59, 0, 0}, nil) {
		t.Error("1992-02-29 must be day 59")
	}
}

func TestParseStringDictionary(t *testing.T) {
	q, _ := mustParse(t, "mode = 'AIR REG'")
	if !q.Eval([]int64{0, 0, 0, 0, 1}, nil) {
		t.Error("dictionary code 1 must match 'AIR REG'")
	}
	p := NewParser(testSchema())
	if _, err := p.Parse("mode = 'BOAT'"); err == nil {
		t.Error("unknown dictionary value must error")
	}
}

func TestParseLike(t *testing.T) {
	q, _ := mustParse(t, "mode LIKE 'AIR%'")
	// Matches AIR (0) and AIR REG (1).
	if !q.Eval([]int64{0, 0, 0, 0, 0}, nil) || !q.Eval([]int64{0, 0, 0, 0, 1}, nil) {
		t.Error("prefix LIKE must match both AIR modes")
	}
	if q.Eval([]int64{0, 0, 0, 0, 2}, nil) {
		t.Error("RAIL must not match AIR%")
	}
	// No match: empty IN never matches.
	q2, _ := mustParse(t, "mode LIKE 'ZZZ%'")
	for v := int64(0); v < 4; v++ {
		if q2.Eval([]int64{0, 0, 0, 0, v}, nil) {
			t.Error("unmatched LIKE must select nothing")
		}
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"AIR%", "AIR REG", true},
		{"%REG", "AIR REG", true},
		{"%IR R%", "AIR REG", true},
		{"A_R", "AIR", true},
		{"A_R", "AAIR", false},
		{"", "", true},
		{"%", "anything", true},
		{"abc", "abc", true},
		{"abc", "abd", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pat, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestParseDecimalScaling(t *testing.T) {
	// 0.05 with two fractional digits scales to 5 (fixed-point encoding).
	q, _ := mustParse(t, "a >= 0.05")
	if !q.Eval([]int64{5, 0, 0, 0, 0}, nil) || q.Eval([]int64{4, 0, 0, 0, 0}, nil) {
		t.Error("decimal scaling wrong")
	}
	// Negative decimals scale exactly too: no rounding toward zero.
	for sql, want := range map[string]string{"a >= -0.05": "a >= -5", "a = -1.5": "a = -15", "a = 2.": "a = 2"} {
		q, p := mustParse(t, sql)
		if got := q.StringWith(p.Schema.Names(), p.ACs); got != want {
			t.Errorf("%q parsed to %q, want %q", sql, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	p := NewParser(testSchema())
	bad := []string{
		"nope < 5",
		"a << 5",
		"a <> 5",
		"a < ",
		"(a < 5",
		"a IN (1, 2",
		"a BETWEEN 1 OR 2",
		"SELECT x FROM t",
		"a < 5 extra",
		"a LIKE 'x%'", // numeric column without dictionary
		"mode LIKE missing_quote",
		"a = 'not-in-dict'",
		"a = 1.2.3",
		// Days past the month's end are not dates.
		"ship = '1998-02-30'",
		"ship = '1998-04-31'",
		"ship = '1993-02-29'",
		"ship = '1900-02-29'",
	}
	for _, sql := range bad {
		if _, err := p.Parse(sql); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}
