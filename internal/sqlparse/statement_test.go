package sqlparse

import (
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/table"
)

// TestParseStatementRouting pins which grammar owns a text and, when
// none does, which grammar's error surfaces. The same texts are sent to
// a standalone server and a front door in
// cluster.TestStatementRoutingParity, which pins that both tiers answer
// them alike.
func TestParseStatementRouting(t *testing.T) {
	schema := table.MustSchema([]table.Column{
		{Name: "x", Kind: table.Numeric, Min: 0, Max: 999},
		{Name: "selector", Kind: table.Numeric, Min: 0, Max: 9},
	})
	cases := []struct {
		name    string
		sql     string
		kind    expr.StmtKind
		errPart string // non-empty: the parse must fail with this text
	}{
		{"bare filter", "x >= 10 AND x < 20", expr.StmtFilter, ""},
		{"aggregate SELECT", "SELECT COUNT(*), MAX(x) FROM t WHERE x < 50", expr.StmtAgg, ""},
		{"row SELECT", "SELECT x FROM t WHERE x < 5 ORDER BY x LIMIT 3", expr.StmtRows, ""},
		{"join", "SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 AND b.x < 2", expr.StmtJoin, ""},
		{"legacy SELECT * is a filter", "SELECT * FROM t WHERE x < 10", expr.StmtFilter, ""},
		{"column named selector is a filter", "selector >= 5", expr.StmtFilter, ""},
		// A function call in the select list expressed aggregation intent:
		// the aggregate grammar's error, not the row grammar's
		// (`aggregate "NOPE" in row SELECT`).
		{"malformed function call", "SELECT NOPE(x) FROM t WHERE x < 5", 0, `unknown aggregate function "NOPE"`},
		// A parenthesis-free list is the row shape: the row grammar's
		// error, not the aggregate grammar's (`trailing input ... "ORDER"`).
		{"parenthesis-free list, unknown column", "SELECT x FROM t ORDER BY nope", 0, `unknown column "nope"`},
		// A malformed join is an error, not a legacy match count over its
		// WHERE clause.
		{"join, OR across sides", "SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < 2 OR b.x < 2", 0, "OR across join sides"},
		{"join, column-vs-column WHERE", "SELECT a.x, b.x FROM a JOIN b ON a.x = b.x WHERE a.x < b.x", 0, "column-to-column predicates are not supported in join filters"},
		{"join, non-equality ON", "SELECT a.x, b.x FROM a JOIN b ON a.x < b.x WHERE a.x < 2", 0, "join ON supports equality only"},
		{"self-join without aliases", "SELECT a.x FROM a JOIN a ON a.x = a.x WHERE a.x < 2", 0, "join sides need distinct names"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := NewParser(schema)
			stmt, err := p.ParseStatement(c.sql)
			if c.errPart != "" {
				if err == nil || !strings.Contains(err.Error(), c.errPart) {
					t.Fatalf("ParseStatement(%q) error = %v, want one containing %q", c.sql, err, c.errPart)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseStatement(%q): %v", c.sql, err)
			}
			if stmt.Kind() != c.kind {
				t.Fatalf("ParseStatement(%q) kind = %s, want kind %d", c.sql, stmt.Type(), c.kind)
			}
			if len(stmt.Filters()) == 0 || stmt.Filters()[0].Root == nil {
				t.Errorf("ParseStatement(%q) lost its filter", c.sql)
			}
		})
	}
}

// TestParseStatementDropsCutsOfFailedGrammars: a grammar that interned an
// advanced cut and then failed must not leave it in the parser's table —
// a server reads growth of p.ACs as "this statement introduces a cut".
func TestParseStatementDropsCutsOfFailedGrammars(t *testing.T) {
	p := NewParser(testSchema())
	if _, err := p.ParseStatement("SELECT a FROM t WHERE a < b ORDER BY nope"); err == nil {
		t.Fatal("unknown ORDER BY column parsed")
	}
	if len(p.ACs) != 0 {
		t.Errorf("failed parse left %d advanced cuts behind: %v", len(p.ACs), p.ACs)
	}
	stmt, err := p.ParseStatement("SELECT a FROM t WHERE a < b ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Kind() != expr.StmtRows || len(p.ACs) != 1 {
		t.Errorf("kind %s with %d cuts, want a row statement with 1", stmt.Type(), len(p.ACs))
	}
}

// TestParseStatementParsesOnce pins that a statement's text is read
// once, whatever its kind and whether it parses. Each text carries one
// date literal before its first fault, and Parser.DateEpoch — which the
// parser calls once per date literal it reads — counts the passes, so
// the check costs the serving path nothing.
func TestParseStatementParsesOnce(t *testing.T) {
	texts := []string{
		"ship >= '1994-01-01' AND a < 5",
		"SELECT mode, COUNT(*) FROM t WHERE ship >= '1994-01-01' GROUP BY mode",
		"SELECT ship, a FROM t WHERE ship >= '1994-01-01' ORDER BY a DESC LIMIT 3",
		"SELECT x.a, y.a FROM x JOIN y ON x.b = y.b WHERE x.ship >= '1994-01-01' AND y.a < 5",
		"SELECT * FROM t WHERE ship >= '1994-01-01'",
		"SELECT a FROM t WHERE ship >= '1994-01-01' ORDER BY nope",
		"SELECT x.a FROM x JOIN y ON x.b = y.b WHERE x.ship >= '1994-01-01' OR y.a < 2",
	}
	for _, sql := range texts {
		p := NewParser(testSchema())
		reads := 0
		p.DateEpoch = func(y, m, d int) int64 { reads++; return defaultEpoch(y, m, d) }
		p.ParseStatement(sql)
		if reads != 1 {
			t.Errorf("ParseStatement(%q) read its date literal %d times, want 1", sql, reads)
		}
	}
}

// BenchmarkParseStatement parses one text of each kind, the shapes the
// serving benchmark sends.
func BenchmarkParseStatement(b *testing.B) {
	texts := []struct{ kind, sql string }{
		{"filter", "a >= 10 AND a < 20 AND mode IN ('AIR', 'RAIL')"},
		{"agg", "SELECT mode, COUNT(*), MAX(b) FROM logs WHERE a >= 10 AND a < 20 GROUP BY mode"},
		{"rows", "SELECT ship, mode, b FROM logs WHERE a >= 10 AND a < 20 ORDER BY ship DESC, b LIMIT 20"},
		{"join", "SELECT x.a, y.a, x.mode FROM x JOIN y ON x.mode = y.mode WHERE x.b >= 900 AND y.b >= 950 ORDER BY x.a, y.a LIMIT 8"},
	}
	for _, c := range texts {
		b.Run(c.kind, func(b *testing.B) {
			p := NewParser(testSchema())
			b.ReportAllocs()
			for b.Loop() {
				if _, err := p.ParseStatement(c.sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
