package sqlparse

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/table"
)

// FuzzParse hardens the SQL parser with two properties:
//
//  1. The parser never panics, whatever bytes arrive — malformed input
//     must surface as an error (the HTTP serving layer feeds it raw
//     client strings and maps errors to 400s).
//  2. Formatting is a fixpoint: any successfully parsed query, rendered
//     back to SQL with the schema's column names, must re-parse to a
//     query that renders identically. This pins the parser and
//     expr.Query.StringWith to one grammar, so logged/round-tripped query
//     text stays executable.
//
// Seeds come from the existing test-suite queries plus grammar corners
// (IN lists, BETWEEN, LIKE lowering, advanced cuts, dates, decimals,
// deep nesting).
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT x FROM R WHERE (R.a < 10 OR R.b > 90) AND (mode IN ('AIR', 'RAIL'))",
		"a < 10",
		"a <= 10 AND b >= 5",
		"ship < commit_d",
		"a BETWEEN 5 AND 15",
		"mode = 'AIR REG'",
		"mode IN ('AIR', 'TRUCK', 'RAIL')",
		"mode LIKE 'AIR%'",
		"mode LIKE 'Z%'",
		"ship >= '1994-01-01' AND ship < '1995-01-01'",
		"a = 0.05",
		"a <> 3",
		"((((a < 1))))",
		"a in (1,2,3) or b in (4,5)",
		"SELECT * FROM t",
		"WHERE",
		"a <",
		"'unterminated",
		"a ! b",
		"mode = 'MISSING'",
		"b > -42",
		"a = 99999999999999999999999",
		strings.Repeat("(", 300) + "a<1" + strings.Repeat(")", 300),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		p := NewParser(testSchema())
		q, err := p.Parse(sql) // must not panic
		if err != nil {
			return
		}
		names := p.Schema.Names()
		rendered := q.StringWith(names, p.ACs)
		// LIKE patterns matching nothing lower to an empty IN set, which
		// has no SQL spelling; skip the fixpoint check for those.
		if strings.Contains(rendered, "IN ()") {
			return
		}
		p2 := NewParser(testSchema())
		q2, err := p2.Parse(rendered)
		if err != nil {
			t.Fatalf("round-trip parse failed\n  input:    %q\n  rendered: %q\n  error:    %v", sql, rendered, err)
		}
		if got := q2.StringWith(names, p2.ACs); got != rendered {
			t.Fatalf("format not a fixpoint\n  input:  %q\n  first:  %q\n  second: %q", sql, rendered, got)
		}
	})
}

// FuzzParseSelect extends the parser hardening to the full SELECT
// grammar:
//
//  1. ParseSelect never panics, whatever bytes arrive.
//  2. Formatting is a fixpoint: any successfully parsed statement,
//     rendered back to canonical SQL (group columns, then aggregates,
//     then WHERE, then GROUP BY), must re-parse to a statement that
//     renders identically.
//
// The maxNestingDepth guard covers the WHERE clause here exactly as it
// does in FuzzParse — the deep-paren seed pins that.
func FuzzParseSelect(f *testing.F) {
	seeds := []string{
		"SELECT COUNT(*) FROM t",
		"SELECT COUNT(*) FROM t WHERE a < 10",
		"SELECT mode, COUNT(*), SUM(a) FROM t GROUP BY mode",
		"SELECT mode, a, SUM(b), AVG(ship), MIN(b), MAX(b), COUNT(commit_d) FROM logs WHERE (a < 10 OR b > 90) AND mode IN ('AIR', 'RAIL') GROUP BY mode, a",
		"SELECT SUM(a) FROM t WHERE ship < commit_d",
		"SELECT AVG(a) FROM t WHERE mode LIKE 'AIR%'",
		"SELECT COUNT(*) FROM t WHERE ship >= '1994-01-01' AND ship < '1995-01-01'",
		"SELECT SUM(a) FROM t WHERE a BETWEEN 0.05 AND 0.07",
		"select min(b) from t group by mode, mode",
		"SELECT * FROM t",
		"SELECT a FROM t",
		"SELECT FROM t",
		"SELECT COUNT( FROM t",
		"SELECT COUNT(*) FROM t GROUP BY",
		"SELECT COUNT(*) FROM t WHERE " + strings.Repeat("(", 300) + "a<1" + strings.Repeat(")", 300),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		p := NewParser(testSchema())
		aq, err := p.ParseSelect(sql) // must not panic
		if err != nil {
			return
		}
		names := p.Schema.Names()
		rendered := aq.StringWith(names, p.ACs)
		// LIKE patterns matching nothing lower to an empty IN set, which
		// has no SQL spelling; skip the fixpoint check for those.
		if strings.Contains(rendered, "IN ()") {
			return
		}
		p2 := NewParser(testSchema())
		aq2, err := p2.ParseSelect(rendered)
		if err != nil {
			t.Fatalf("round-trip parse failed\n  input:    %q\n  rendered: %q\n  error:    %v", sql, rendered, err)
		}
		if got := aq2.StringWith(names, p2.ACs); got != rendered {
			t.Fatalf("format not a fixpoint\n  input:  %q\n  first:  %q\n  second: %q", sql, rendered, got)
		}
	})
}

// TestParseSelectDepthLimit pins the nesting guard on the SELECT path.
func TestParseSelectDepthLimit(t *testing.T) {
	p := NewParser(testSchema())
	deep := "SELECT COUNT(*) FROM t WHERE " + strings.Repeat("(", 5000) + "a < 1" + strings.Repeat(")", 5000)
	if _, err := p.ParseSelect(deep); err == nil {
		t.Fatal("5000-deep nesting must be rejected")
	}
	ok := "SELECT COUNT(*) FROM t WHERE " + strings.Repeat("(", 50) + "a < 1" + strings.Repeat(")", 50)
	if _, err := p.ParseSelect(ok); err != nil {
		t.Fatalf("50-deep nesting must parse: %v", err)
	}
}

// TestParseDepthLimit pins the anti-stack-overflow guard the fuzzer
// motivated: pathological nesting errors out instead of crashing.
func TestParseDepthLimit(t *testing.T) {
	p := NewParser(testSchema())
	deep := strings.Repeat("(", 5000) + "a < 1" + strings.Repeat(")", 5000)
	if _, err := p.Parse(deep); err == nil {
		t.Fatal("5000-deep nesting must be rejected")
	}
	ok := strings.Repeat("(", 50) + "a < 1" + strings.Repeat(")", 50)
	if _, err := p.Parse(ok); err != nil {
		t.Fatalf("50-deep nesting must parse: %v", err)
	}
}

// TestRoundTripNamedQueries spot-checks the formatting fixpoint on
// realistic workload queries deterministically (the fuzz target checks it
// on arbitrary input).
func TestRoundTripNamedQueries(t *testing.T) {
	sqls := []string{
		"a < 10 AND b >= 3",
		"(a < 10 OR b > 90) AND mode IN ('AIR', 'RAIL')",
		"ship < commit_d AND mode = 'TRUCK'",
		"a BETWEEN 2 AND 8",
		"mode LIKE 'AIR%'",
	}
	for _, sql := range sqls {
		p := NewParser(testSchema())
		q, err := p.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		names := p.Schema.Names()
		rendered := q.StringWith(names, p.ACs)
		p2 := NewParser(testSchema())
		q2, err := p2.Parse(rendered)
		if err != nil {
			t.Fatalf("reparse %q (from %q): %v", rendered, sql, err)
		}
		if got := q2.StringWith(names, p2.ACs); got != rendered {
			t.Errorf("%q: fixpoint broken: %q -> %q", sql, rendered, got)
		}
		if len(p2.ACs) != len(p.ACs) {
			t.Errorf("%q: advanced cuts changed across round-trip: %d -> %d", sql, len(p.ACs), len(p2.ACs))
		}
	}
}

// FuzzParseStatement hardens the serving entry point, which every tier
// feeds raw client text, with three properties:
//
//  1. ParseStatement never panics, whatever bytes arrive.
//  2. A failed parse leaves p.ACs as it was: a server reads growth of the
//     cut table as "this statement introduces a cut".
//  3. A parsed statement's canonical rendering — the text a front door
//     scatters and a plan cache keys on — re-parses to a statement of
//     the same kind that renders identically.
//
// Seeds are the routing-table texts of TestParseStatementRouting and the
// statement shapes the serving benchmark sends, over a schema that has
// the columns of both.
func FuzzParseStatement(f *testing.F) {
	seeds := []string{
		"x >= 10 AND x < 20",
		"SELECT COUNT(*), MAX(x) FROM t WHERE x < 50",
		"SELECT x FROM t WHERE x < 5 ORDER BY x LIMIT 3",
		"SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 AND b.x < 2",
		"SELECT * FROM t WHERE x < 10",
		"selector >= 5",
		"SELECT NOPE(x) FROM t WHERE x < 5",
		"SELECT x FROM t ORDER BY nope",
		"SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 OR b.x < 2",
		"SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < b.x",
		"SELECT a.x, b.x FROM a JOIN b ON a.x < b.x WHERE a.x < 2",
		"SELECT a.x FROM a JOIN a ON a.x = a.x WHERE a.x < 2",
		"SELECT mode, COUNT(*), MAX(b) FROM logs WHERE (a < 10 OR b > 90) AND mode IN ('AIR', 'RAIL') GROUP BY mode",
		"SELECT ship, mode, b FROM logs WHERE a >= 10 AND a < 20 ORDER BY ship DESC, b LIMIT 20",
		"SELECT mode, a, COUNT(*), SUM(b), SUM(ship), AVG(b), AVG(a) FROM lineitem WHERE ship <= 2400 GROUP BY mode, a",
		"SELECT SUM(b), COUNT(*) FROM lineitem WHERE ship >= '1994-01-01' AND ship < '1995-01-01' AND a BETWEEN 0.05 AND 0.07 AND b < 24",
		"SELECT a, b, ship FROM lineitem WHERE ship >= 1096 AND a BETWEEN 1 AND 3 ORDER BY b DESC, a LIMIT 5",
		"SELECT a, b, commit_d FROM lineitem WHERE b >= 500 AND ship < commit_d",
		"SELECT a.a, b.a, a.mode FROM a JOIN b ON a.mode = b.mode WHERE a.b >= 900 AND b.b >= 950 ORDER BY a.a, b.a LIMIT 8",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := table.MustSchema(append(testSchema().Cols,
		table.Column{Name: "x", Kind: table.Numeric, Min: 0, Max: 999},
		table.Column{Name: "selector", Kind: table.Numeric, Min: 0, Max: 9}))
	names := schema.Names()
	seeded := []expr.AdvCut{{Left: 2, Op: expr.Lt, Right: 3}}
	f.Fuzz(func(t *testing.T, sql string) {
		p := NewParser(schema)
		p.ACs = append([]expr.AdvCut(nil), seeded...)
		stmt, err := p.ParseStatement(sql) // must not panic
		if err != nil {
			if !slices.Equal(p.ACs, seeded) {
				t.Fatalf("failed parse of %q changed the cut table to %v", sql, p.ACs)
			}
			return
		}
		rendered := stmt.StringWith(names, p.ACs)
		// LIKE patterns matching nothing lower to an empty IN set, which
		// has no SQL spelling; skip the fixpoint check for those.
		if strings.Contains(rendered, "IN ()") {
			return
		}
		p2 := NewParser(schema)
		stmt2, err := p2.ParseStatement(rendered)
		if err != nil {
			t.Fatalf("round-trip parse failed\n  input:    %q\n  rendered: %q\n  error:    %v", sql, rendered, err)
		}
		if stmt2.Kind() != stmt.Kind() {
			t.Fatalf("round trip changed the kind from %s to %s\n  input:    %q\n  rendered: %q", stmt.Type(), stmt2.Type(), sql, rendered)
		}
		if got := stmt2.StringWith(names, p2.ACs); got != rendered {
			t.Fatalf("format not a fixpoint\n  input:  %q\n  first:  %q\n  second: %q", sql, rendered, got)
		}
	})
}
