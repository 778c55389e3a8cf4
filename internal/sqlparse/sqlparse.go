// Package sqlparse is a small SQL parser used to feed real query text
// into the qd-tree pipeline (Sec. 3.4: "we simply parse [queries] through
// a standard SQL planner and take all pushed-down unary predicates as
// allowed cuts"). It supports the predicate language of the paper:
// comparisons {<, <=, >, >=, =}, IN lists, BETWEEN, LIKE with a literal
// prefix (resolved against the column dictionary), arbitrary AND/OR
// nesting, and column-vs-column comparisons, which become advanced cuts
// (Sec. 6.1).
//
// One grammar covers every query surface. Parser.ParseStatement lexes
// and parses a text once: a bare boolean filter, or a SELECT whose shape
// makes it an aggregation, a row statement, a two-table join or a legacy
// match count (see ParseStatement). Every WHERE clause, join sides
// included, goes through the same predicate parser, so every pushed-down
// predicate stays a qd-tree cut candidate. Parse, ParseSelect and
// ParseRowSelect are ParseStatement plus a check of the parsed kind.
package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/expr"
	"repro/internal/table"
)

// Parser converts SQL text to expr.Query values against a schema. Advanced
// cuts discovered during parsing are appended to ACs and de-duplicated, so
// a workload parsed with one Parser shares one advanced-cut table.
type Parser struct {
	Schema *table.Schema
	ACs    []expr.AdvCut
	// Tables optionally maps FROM-clause table names to schemas for
	// two-table joins. When nil, every table name binds Schema and a
	// join is a self-join with positional aliases.
	Tables map[string]*table.Schema
	// DateEpoch converts 'YYYY-MM-DD' literals to day numbers. The
	// default counts days since 1992-01-01 (the TPC-H origin).
	DateEpoch func(y, m, d int) int64
}

// NewParser builds a parser over the schema.
func NewParser(s *table.Schema) *Parser {
	return &Parser{Schema: s, DateEpoch: defaultEpoch}
}

func defaultEpoch(y, m, d int) int64 {
	days := int64(0)
	for yy := 1992; yy < y; yy++ {
		days += 365
		if isLeap(yy) {
			days++
		}
	}
	for mm := 1; mm < m; mm++ {
		days += int64(daysIn(y, mm))
	}
	return days + int64(d-1)
}

func isLeap(y int) bool { return y%4 == 0 && (y%100 != 0 || y%400 == 0) }

// daysIn is the length of month m (1-12) of year y.
func daysIn(y, m int) int {
	if m == 2 && isLeap(y) {
		return 29
	}
	return [...]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}[m-1]
}

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // < <= > >= = <>
	tokLParen
	tokRParen
	tokComma
	tokStar
)

type token struct {
	kind tokKind
	text string
	pos  int
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '(':
			l.emit(tokLParen, "(")
		case c == ')':
			l.emit(tokRParen, ")")
		case c == ',':
			l.emit(tokComma, ",")
		case c == '*':
			l.emit(tokStar, "*")
		case c == '<':
			if l.peek(1) == '=' {
				l.emitN(tokOp, "<=", 2)
			} else if l.peek(1) == '>' {
				l.emitN(tokOp, "<>", 2)
			} else {
				l.emit(tokOp, "<")
			}
		case c == '>':
			if l.peek(1) == '=' {
				l.emitN(tokOp, ">=", 2)
			} else {
				l.emit(tokOp, ">")
			}
		case c == '=':
			l.emit(tokOp, "=")
		case c == '!':
			if l.peek(1) == '=' {
				l.emitN(tokOp, "<>", 2)
			} else {
				return nil, fmt.Errorf("sqlparse: stray '!' at %d", l.pos)
			}
		case c == '\'':
			end := strings.IndexByte(l.src[l.pos+1:], '\'')
			if end < 0 {
				return nil, fmt.Errorf("sqlparse: unterminated string at %d", l.pos)
			}
			l.toks = append(l.toks, token{tokString, l.src[l.pos+1 : l.pos+1+end], l.pos})
			l.pos += end + 2
		case c == '-' || c >= '0' && c <= '9':
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
				l.pos++
			}
			l.toks = append(l.toks, token{tokNumber, l.src[start:l.pos], start})
		case unicode.IsLetter(rune(c)) || c == '_':
			start := l.pos
			for l.pos < len(l.src) && (unicode.IsLetter(rune(l.src[l.pos])) || unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '_' || l.src[l.pos] == '.') {
				l.pos++
			}
			l.toks = append(l.toks, token{tokIdent, l.src[start:l.pos], start})
		default:
			return nil, fmt.Errorf("sqlparse: unexpected character %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{tokEOF, "", l.pos})
	return l.toks, nil
}

func (l *lexer) peek(ahead int) byte {
	if l.pos+ahead < len(l.src) {
		return l.src[l.pos+ahead]
	}
	return 0
}

func (l *lexer) emit(k tokKind, s string) { l.emitN(k, s, len(s)) }
func (l *lexer) emitN(k tokKind, s string, n int) {
	l.toks = append(l.toks, token{k, s, l.pos})
	l.pos += n
}

// maxNestingDepth bounds parenthesis recursion so adversarial input (for
// instance from the fuzzer) returns an error instead of exhausting the
// goroutine stack.
const maxNestingDepth = 200

type parseState struct {
	p     *Parser
	toks  []token
	i     int
	depth int
	// A join binds two tables; outside a join only the single Schema.
	join    bool
	tables  [2]string
	schemas [2]*table.Schema
	// sides is the set of join sides (bit 1<<side) the subtree just
	// parsed reads; conj holds it for each top-level conjunct of a
	// join's WHERE, which is where the clause splits by side.
	sides uint8
	conj  []uint8
}

const bothSides = 0b11

func (ps *parseState) cur() token  { return ps.toks[ps.i] }
func (ps *parseState) next() token { t := ps.toks[ps.i]; ps.i++; return t }

func (ps *parseState) expect(k tokKind, what string) (token, error) {
	t := ps.next()
	if t.kind != k {
		return t, fmt.Errorf("sqlparse: expected %s at %d, got %q", what, t.pos, t.text)
	}
	return t, nil
}

func isKeyword(t token, kw string) bool {
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (ps *parseState) parseOr() (*expr.Node, error) {
	left, err := ps.parseAnd()
	if err != nil {
		return nil, err
	}
	sides := ps.sides
	children := []*expr.Node{left}
	for isKeyword(ps.cur(), "OR") {
		at := ps.next().pos
		right, err := ps.parseAnd()
		if err != nil {
			return nil, err
		}
		if sides |= ps.sides; sides == bothSides {
			return nil, fmt.Errorf("sqlparse: OR across join sides at %d (filters push down one side at a time)", at)
		}
		children = append(children, right)
	}
	ps.sides = sides
	return expr.Or(children...), nil
}

func (ps *parseState) parseAnd() (*expr.Node, error) {
	children := make([]*expr.Node, 0, 2)
	var sides uint8
	for {
		n, err := ps.parsePrimary()
		if err != nil {
			return nil, err
		}
		children = append(children, n)
		sides |= ps.sides
		if ps.join && ps.depth == 0 {
			ps.conj = append(ps.conj, ps.sides)
		}
		if !isKeyword(ps.cur(), "AND") {
			break
		}
		ps.next()
	}
	ps.sides = sides
	return expr.And(children...), nil
}

// parsePrimary parses a parenthesized group or a predicate. In a join a
// group is one conjunct, so it must read one side only.
func (ps *parseState) parsePrimary() (*expr.Node, error) {
	if ps.cur().kind == tokLParen {
		at := ps.cur().pos
		ps.depth++
		if ps.depth > maxNestingDepth {
			return nil, fmt.Errorf("sqlparse: expression nested deeper than %d at %d", maxNestingDepth, at)
		}
		ps.next()
		inner, err := ps.parseOr()
		if err != nil {
			return nil, err
		}
		if ps.sides == bothSides {
			return nil, fmt.Errorf("sqlparse: conjunction mixes join sides inside a group at %d (split into top-level AND terms)", at)
		}
		ps.depth--
		if _, err := ps.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return ps.parsePredicate()
}

func (ps *parseState) parsePredicate() (*expr.Node, error) {
	colTok, err := ps.expect(tokIdent, "column name")
	if err != nil {
		return nil, err
	}
	ref, sc, err := ps.resolve(colTok)
	if err != nil {
		return nil, err
	}
	col := ref.Col
	ps.sides = 1 << ref.Side
	t := ps.next()
	switch {
	case t.kind == tokOp:
		// col op literal | col op column (advanced cut).
		rhs := ps.next()
		if rhs.kind == tokIdent && !looksLikeValueKeyword(rhs.text) {
			if ps.join {
				// The ON clause is a join's only cross-column predicate.
				return nil, fmt.Errorf("sqlparse: column-to-column predicates are not supported in join filters at %d", rhs.pos)
			}
			right, _, err := ps.resolve(rhs)
			if err != nil {
				return nil, err
			}
			op, err := opFromText(t.text)
			if err != nil {
				return nil, err
			}
			return expr.NewAdv(ps.p.internAC(expr.AdvCut{Left: col, Op: op, Right: right.Col})), nil
		}
		lit, err := ps.p.literal(sc, col, rhs)
		if err != nil {
			return nil, err
		}
		if t.text == "<>" {
			// a <> v over a categorical becomes OR of the complement? Too
			// wide; reject with a clear error — the paper's cut language
			// has no negation.
			return nil, fmt.Errorf("sqlparse: <> is not supported (no negated cuts) at %d", t.pos)
		}
		op, err := opFromText(t.text)
		if err != nil {
			return nil, err
		}
		return expr.NewPred(expr.Pred{Col: col, Op: op, Literal: lit}), nil
	case isKeyword(t, "IN"):
		if _, err := ps.expect(tokLParen, "("); err != nil {
			return nil, err
		}
		var vals []int64
		for {
			v := ps.next()
			lit, err := ps.p.literal(sc, col, v)
			if err != nil {
				return nil, err
			}
			vals = append(vals, lit)
			sep := ps.next()
			if sep.kind == tokRParen {
				break
			}
			if sep.kind != tokComma {
				return nil, fmt.Errorf("sqlparse: expected ',' or ')' at %d", sep.pos)
			}
		}
		return expr.NewPred(expr.NewIn(col, vals)), nil
	case isKeyword(t, "BETWEEN"):
		loTok := ps.next()
		lo, err := ps.p.literal(sc, col, loTok)
		if err != nil {
			return nil, err
		}
		andTok := ps.next()
		if !isKeyword(andTok, "AND") {
			return nil, fmt.Errorf("sqlparse: BETWEEN requires AND at %d", andTok.pos)
		}
		hiTok := ps.next()
		hi, err := ps.p.literal(sc, col, hiTok)
		if err != nil {
			return nil, err
		}
		return expr.And(
			expr.NewPred(expr.Pred{Col: col, Op: expr.Ge, Literal: lo}),
			expr.NewPred(expr.Pred{Col: col, Op: expr.Le, Literal: hi}),
		), nil
	case isKeyword(t, "LIKE"):
		pat, err := ps.expect(tokString, "pattern string")
		if err != nil {
			return nil, err
		}
		return likePred(sc, col, pat.text, pat.pos)
	}
	return nil, fmt.Errorf("sqlparse: expected operator after column at %d, got %q", t.pos, t.text)
}

func looksLikeValueKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "TRUE", "FALSE", "NULL":
		return true
	}
	return false
}

func opFromText(s string) (expr.Op, error) {
	switch s {
	case "<":
		return expr.Lt, nil
	case "<=":
		return expr.Le, nil
	case ">":
		return expr.Gt, nil
	case ">=":
		return expr.Ge, nil
	case "=":
		return expr.Eq, nil
	}
	return 0, fmt.Errorf("sqlparse: unsupported operator %q", s)
}

// resolve binds a column name to a join side, its ordinal in that
// side's schema, and the schema. Outside a join every name binds the
// single Schema (side 0), a table qualifier being stripped. In a join a
// qualifier names the side; an unqualified name must belong to exactly
// one side, so on a self-join every shared name needs a qualifier.
func (ps *parseState) resolve(t token) (expr.ColRef, *table.Schema, error) {
	if !ps.join {
		if col := ps.p.resolveCol(t.text); col >= 0 {
			return expr.ColRef{Col: col}, ps.p.Schema, nil
		}
		return expr.ColRef{}, nil, fmt.Errorf("sqlparse: unknown column %q at %d", t.text, t.pos)
	}
	name := t.text
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		qual, base := name[:i], name[i+1:]
		for side, tbl := range ps.tables {
			if qual != tbl {
				continue
			}
			if c := ps.schemas[side].Col(base); c >= 0 {
				return expr.ColRef{Side: side, Col: c}, ps.schemas[side], nil
			}
			return expr.ColRef{}, nil, fmt.Errorf("sqlparse: unknown column %q in table %q at %d", base, tbl, t.pos)
		}
		return expr.ColRef{}, nil, fmt.Errorf("sqlparse: unknown table qualifier %q at %d", qual, t.pos)
	}
	lc, rc := ps.schemas[0].Col(name), ps.schemas[1].Col(name)
	switch {
	case lc >= 0 && rc >= 0:
		return expr.ColRef{}, nil, fmt.Errorf("sqlparse: ambiguous column %q (qualify with %s. or %s.) at %d", name, ps.tables[0], ps.tables[1], t.pos)
	case lc >= 0:
		return expr.ColRef{Side: 0, Col: lc}, ps.schemas[0], nil
	case rc >= 0:
		return expr.ColRef{Side: 1, Col: rc}, ps.schemas[1], nil
	}
	return expr.ColRef{}, nil, fmt.Errorf("sqlparse: unknown column %q at %d", name, t.pos)
}

func (p *Parser) resolveCol(name string) int {
	// Strip a table qualifier ("R.a" -> "a").
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		if c := p.Schema.Col(name[i+1:]); c >= 0 {
			return c
		}
	}
	return p.Schema.Col(name)
}

// internAC de-duplicates advanced cuts across a workload.
func (p *Parser) internAC(ac expr.AdvCut) int {
	for i, e := range p.ACs {
		if e == ac {
			return i
		}
	}
	p.ACs = append(p.ACs, ac)
	return len(p.ACs) - 1
}

// literal resolves a literal token against column col of schema sc:
// numbers parse directly; 'YYYY-MM-DD' strings become day numbers; other
// strings resolve through the column dictionary.
func (p *Parser) literal(sc *table.Schema, col int, t token) (int64, error) {
	switch t.kind {
	case tokNumber:
		v, ok := fixedPoint(t.text)
		if !ok {
			return 0, fmt.Errorf("sqlparse: bad number %q at %d", t.text, t.pos)
		}
		return v, nil
	case tokString:
		if y, m, d, ok := parseDate(t.text); ok {
			if d > daysIn(y, m) {
				return 0, fmt.Errorf("sqlparse: invalid date %q at %d", t.text, t.pos)
			}
			return p.DateEpoch(y, m, d), nil
		}
		code := sc.Code(col, t.text)
		if code < 0 {
			return 0, fmt.Errorf("sqlparse: value %q not in dictionary of column %q", t.text, sc.Cols[col].Name)
		}
		return code, nil
	}
	return 0, fmt.Errorf("sqlparse: expected literal at %d, got %q", t.pos, t.text)
}

// fixedPoint reads a number literal as an integer. A decimal scales by
// its fractional width (0.05 is 5, -1.5 is -15): the digits are read
// as one integer with the point dropped, so the value is exact.
func fixedPoint(s string) (int64, bool) {
	if dot := strings.IndexByte(s, '.'); dot >= 0 {
		if strings.IndexByte(s[dot+1:], '.') >= 0 {
			return 0, false
		}
		s = s[:dot] + s[dot+1:]
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v, err == nil
}

func parseDate(s string) (y, m, d int, ok bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, 0, 0, false
	}
	var err error
	if y, err = strconv.Atoi(s[:4]); err != nil {
		return 0, 0, 0, false
	}
	if m, err = strconv.Atoi(s[5:7]); err != nil {
		return 0, 0, 0, false
	}
	if d, err = strconv.Atoi(s[8:10]); err != nil {
		return 0, 0, 0, false
	}
	return y, m, d, m >= 1 && m <= 12 && d >= 1 && d <= 31
}

// likePred lowers LIKE 'prefix%' (or a pattern with no wildcard) over
// column col of schema sc to an IN predicate over the dictionary codes
// whose strings match — the same dictionary-filtering treatment the
// paper applies to string predicates.
func likePred(sc *table.Schema, col int, pattern string, pos int) (*expr.Node, error) {
	dict := sc.Cols[col].Dict
	if dict == nil {
		return nil, fmt.Errorf("sqlparse: LIKE on column %q without dictionary at %d", sc.Cols[col].Name, pos)
	}
	var vals []int64
	for code, s := range dict {
		if likeMatch(pattern, s) {
			vals = append(vals, int64(code))
		}
	}
	if len(vals) == 0 {
		// No dictionary entry matches: predicate selects nothing; encode
		// as an empty IN which never matches.
		return expr.NewPred(expr.Pred{Col: col, Op: expr.In, Set: nil}), nil
	}
	return expr.NewPred(expr.NewIn(col, vals)), nil
}

// likeMatch evaluates a SQL LIKE pattern (% and _ wildcards).
func likeMatch(pattern, s string) bool {
	// Dynamic programming over pattern/string positions.
	pn, sn := len(pattern), len(s)
	prev := make([]bool, sn+1)
	curr := make([]bool, sn+1)
	prev[0] = true
	for pi := 1; pi <= pn; pi++ {
		pc := pattern[pi-1]
		curr[0] = prev[0] && pc == '%'
		for si := 1; si <= sn; si++ {
			switch pc {
			case '%':
				curr[si] = curr[si-1] || prev[si]
			case '_':
				curr[si] = prev[si-1]
			default:
				curr[si] = prev[si-1] && s[si-1] == pc
			}
		}
		prev, curr = curr, prev
	}
	return prev[sn]
}
