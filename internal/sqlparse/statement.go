package sqlparse

import (
	"strings"

	"repro/internal/expr"
)

// ParseStatement routes one SQL text to the grammar that owns it and
// returns the tagged statement — the single entry point servers and
// front doors parse with, so every tier routes (and rejects) a text the
// same way:
//
//   - Text that does not start with the SELECT keyword is a bare filter.
//   - A SELECT is tried as an aggregation statement, then as a row
//     statement (projection lists, ORDER BY/LIMIT, two-table joins).
//   - Legacy clients send "SELECT x FROM t WHERE <filter>" or "SELECT *
//     FROM ..." expecting a match count (Parse skips everything up to
//     WHERE), so a select list that is plain identifiers or * falls back
//     to the filter grammar last.
//
// When nothing parses, the error is the one that names the actual
// problem: a select list that contains a function call expressed
// aggregation intent, so the aggregate grammar's error surfaces;
// a parenthesis-free list is the row shape, and the row grammar's error
// (unknown column, bad ORDER BY, ...) does.
//
// Advanced cuts interned by a grammar that went on to fail are dropped
// again, so p.ACs grows only by the cuts of the statement returned.
func (p *Parser) ParseStatement(sql string) (expr.Statement, error) {
	if !isSelect(sql) {
		q, err := p.Parse(sql)
		return expr.Statement{Filter: q}, err
	}
	base := len(p.ACs)
	aq, aggErr := p.ParseSelect(sql)
	if aggErr == nil {
		return expr.Statement{Agg: &aq}, nil
	}
	p.ACs = p.ACs[:base]
	rs, rowErr := p.ParseRowSelect(sql)
	if rowErr == nil {
		return expr.Statement{Row: rs.Row, Join: rs.Join}, nil
	}
	p.ACs = p.ACs[:base]
	if !legacySelectShape(sql) {
		return expr.Statement{}, aggErr
	}
	q, err := p.Parse(sql)
	if err != nil {
		p.ACs = p.ACs[:base]
		return expr.Statement{}, rowErr
	}
	return expr.Statement{Filter: q}, nil
}

// isSelect reports whether the SQL text starts with the SELECT keyword
// (as opposed to a bare filter expression). The keyword must end at a
// word boundary so a filter on a column named e.g. "selector" is not
// misrouted to the aggregation parser.
func isSelect(sql string) bool {
	trimmed := strings.TrimSpace(sql)
	if len(trimmed) < 6 || !strings.EqualFold(trimmed[:6], "SELECT") {
		return false
	}
	if len(trimmed) == 6 {
		return true
	}
	c := trimmed[6]
	return !(c == '_' || c >= '0' && c <= '9' ||
		c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z')
}

// legacySelectShape reports whether the statement's select list (the text
// between SELECT and the first FROM) is the pre-aggregation shape — plain
// identifiers or * with no function calls — and therefore eligible for
// the skip-to-WHERE filter fallback.
func legacySelectShape(sql string) bool {
	rest := strings.TrimSpace(sql)[6:]
	upper := strings.ToUpper(rest)
	from := strings.Index(upper, " FROM ")
	if from < 0 {
		return false
	}
	return !strings.ContainsAny(rest[:from], "()")
}
