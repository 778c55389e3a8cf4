package sqlparse

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/table"
)

// ParseStatement lexes and parses one SQL text, once, and returns the
// tagged statement — the single entry point servers and front doors
// parse with, so every tier accepts and rejects a text the same way.
//
// A text that does not start with the SELECT keyword is a bare filter
// (after an optional WHERE). A SELECT is
//
//	SELECT <item> [, <item>]... FROM <t> [JOIN <t2> ON <col> = <col>]
//	    [WHERE <filter>] [GROUP BY <col> [, <col>]...]
//	    [ORDER BY <col> [ASC|DESC] [, ...]] [LIMIT <k>]
//
// where an item is a column, * or an aggregate call — COUNT(*), or
// COUNT, SUM, MIN, MAX or AVG of a column. Its kind follows from its
// shape:
//
//   - a call in the list, or a GROUP BY, makes an aggregation over one
//     table (no ORDER BY or LIMIT); a bare list column must be grouped;
//   - a JOIN makes a two-table equi-join;
//   - one table, a WHERE and no GROUP BY, ORDER BY or LIMIT, with a list
//     that holds * or a name that is no column, is the legacy
//     "SELECT * FROM t WHERE <filter>" a client sends for a match count:
//     a filter statement;
//   - anything else is a row statement. ORDER BY columns must be in the
//     SELECT list (the executor's sort comparator is a pure function of
//     the output tuple) and LIMIT takes a positive integer.
//
// A join binds two tables: through the parser's Tables map when set,
// else both bind Schema and the FROM names are positional aliases that
// must differ. Its WHERE clause splits into top-level AND terms that
// each read one side; OR across sides, a group mixing sides and
// column-vs-column predicates are rejected (the ON clause is the only
// cross-table comparison).
//
// On error p.ACs is left as it was: the advanced cuts a statement
// interned are kept only when it parses.
func (p *Parser) ParseStatement(sql string) (expr.Statement, error) {
	toks, err := lex(sql)
	if err != nil {
		return expr.Statement{}, err
	}
	base := len(p.ACs)
	ps := &parseState{p: p, toks: toks}
	var stmt expr.Statement
	if isKeyword(ps.cur(), "SELECT") {
		stmt, err = ps.selectStmt()
	} else {
		if isKeyword(ps.cur(), "WHERE") {
			ps.next()
		}
		stmt.Filter.Root, err = ps.parseOr()
		if err == nil {
			err = ps.end()
		}
	}
	if err != nil {
		p.ACs = p.ACs[:base]
		return expr.Statement{}, err
	}
	return stmt, nil
}

// Parse returns the filter of a single-table statement: a bare filter,
// or the WHERE clause of any single-table SELECT.
func (p *Parser) Parse(sql string) (expr.Query, error) {
	stmt, err := p.parseAs(sql, "a single-table statement", expr.StmtFilter, expr.StmtAgg, expr.StmtRows)
	if err != nil {
		return expr.Query{}, err
	}
	if q := stmt.Filters()[0]; q.Root != nil {
		return q, nil
	}
	return expr.Query{}, fmt.Errorf("sqlparse: SELECT without WHERE has no filter")
}

// ParseSelect parses an aggregation statement:
//
//	SELECT <item> [, <item>]... FROM <table>
//	    [WHERE <filter>] [GROUP BY <col> [, <col>]...]
func (p *Parser) ParseSelect(sql string) (expr.AggQuery, error) {
	stmt, err := p.parseAs(sql, "an aggregation statement", expr.StmtAgg)
	if err != nil {
		return expr.AggQuery{}, err
	}
	return *stmt.Agg, nil
}

// ParseRowSelect parses a row statement or a two-table join.
func (p *Parser) ParseRowSelect(sql string) (expr.RowStmt, error) {
	stmt, err := p.parseAs(sql, "a row statement", expr.StmtRows, expr.StmtJoin)
	if err != nil {
		return expr.RowStmt{}, err
	}
	return expr.RowStmt{Row: stmt.Row, Join: stmt.Join}, nil
}

// parseAs is ParseStatement for a caller that takes only some kinds; a
// statement of another kind is an error and keeps none of its cuts.
func (p *Parser) parseAs(sql, want string, kinds ...expr.StmtKind) (expr.Statement, error) {
	base := len(p.ACs)
	stmt, err := p.ParseStatement(sql)
	if err != nil {
		return expr.Statement{}, err
	}
	if !slices.Contains(kinds, stmt.Kind()) {
		p.ACs = p.ACs[:base]
		return expr.Statement{}, fmt.Errorf("sqlparse: %s statement where %s was expected", stmt.Type(), want)
	}
	return stmt, nil
}

// selectItem is one select-list entry as written: a name or *, or a
// call name(arg) whose arg is a column name or *.
type selectItem struct {
	name, arg token
	call      bool
}

// selectStmt parses a SELECT. Which clauses may follow FROM depends on
// what the statement has shown so far: an aggregation takes no JOIN,
// ORDER BY or LIMIT, and a join no GROUP BY; the first clause out of
// place is trailing input.
func (ps *parseState) selectStmt() (expr.Statement, error) {
	ps.next()
	var buf [8]selectItem
	items, calls, err := ps.selectList(buf[:0])
	if err != nil {
		return expr.Statement{}, err
	}
	var aq *expr.AggQuery
	var bare []int // bare list columns of an aggregation; must be grouped
	if calls {
		if aq, bare, err = ps.aggList(items); err != nil {
			return expr.Statement{}, err
		}
	}
	if !isKeyword(ps.cur(), "FROM") {
		return expr.Statement{}, fmt.Errorf("sqlparse: expected FROM at %d, got %q", ps.cur().pos, ps.cur().text)
	}
	ps.next()
	from, err := ps.expect(tokIdent, "table name")
	if err != nil {
		return expr.Statement{}, err
	}
	if !calls && isKeyword(ps.cur(), "JOIN") {
		return ps.joinStmt(items, from)
	}
	// Without calls, a list name that is no column (or a *) is an error
	// only if this turns out not to be a legacy count; as the first fault
	// in the text it wins over any later one.
	var cols []expr.ColRef
	var listErr error
	if !calls {
		cols, listErr = ps.listCols(items)
	}
	fail := func(err error) (expr.Statement, error) {
		if listErr != nil {
			err = listErr
		}
		return expr.Statement{}, err
	}
	where, err := ps.where()
	if err != nil {
		return fail(err)
	}
	if listErr != nil && (where == nil || isKeyword(ps.cur(), "GROUP") || isKeyword(ps.cur(), "ORDER") || isKeyword(ps.cur(), "LIMIT")) {
		return fail(nil) // not a legacy count
	}
	if isKeyword(ps.cur(), "GROUP") {
		if aq == nil {
			aq = &expr.AggQuery{}
			for _, c := range cols {
				bare = append(bare, c.Col)
			}
		}
		if aq.GroupBy, err = ps.groupBy(); err != nil {
			return fail(err)
		}
	}
	if aq != nil {
		if err := ps.end(); err != nil {
			return fail(err)
		}
		for _, c := range bare {
			if !slices.Contains(aq.GroupBy, c) {
				return fail(fmt.Errorf("sqlparse: select column %q is not aggregated and not in GROUP BY", ps.p.Schema.Cols[c].Name))
			}
		}
		aq.Filter.Root = where
		return expr.Statement{Agg: aq}, nil
	}
	order, limit, err := ps.orderLimit(cols)
	if err == nil {
		err = ps.end()
	}
	if err != nil {
		return fail(err)
	}
	if listErr != nil {
		return expr.Statement{Filter: expr.Query{Root: where}}, nil
	}
	rq := &expr.RowQuery{Cols: make([]int, len(cols)), Filter: expr.Query{Root: where}, OrderBy: order, Limit: limit}
	for i, c := range cols {
		rq.Cols[i] = c.Col
	}
	return expr.Statement{Row: rq}, nil
}

// selectList appends the select list as written to items; calls
// reports whether it holds an aggregate call.
func (ps *parseState) selectList(items []selectItem) (_ []selectItem, calls bool, err error) {
	for {
		t := ps.next()
		if isKeyword(t, "FROM") && len(items) == 0 {
			return nil, false, fmt.Errorf("sqlparse: empty SELECT list at %d", t.pos)
		}
		if isKeyword(t, "FROM") || t.kind != tokIdent && t.kind != tokStar {
			return nil, false, fmt.Errorf("sqlparse: expected aggregate function or column at %d, got %q", t.pos, t.text)
		}
		it := selectItem{name: t}
		if t.kind == tokIdent && ps.cur().kind == tokLParen {
			ps.next()
			it.call, it.arg, calls = true, ps.next(), true
			if it.arg.kind != tokIdent && it.arg.kind != tokStar {
				return nil, false, fmt.Errorf("sqlparse: expected column name at %d, got %q", it.arg.pos, it.arg.text)
			}
			if _, err := ps.expect(tokRParen, ")"); err != nil {
				return nil, false, err
			}
		}
		items = append(items, it)
		if ps.cur().kind != tokComma {
			return items, calls, nil
		}
		ps.next()
	}
}

// aggList resolves the select list of an aggregation: its aggregates,
// and the bare columns that GROUP BY must name.
func (ps *parseState) aggList(items []selectItem) (*expr.AggQuery, []int, error) {
	aq := &expr.AggQuery{Aggs: make([]expr.Agg, 0, len(items))}
	var bare []int
	for _, it := range items {
		if it.name.kind == tokStar {
			return nil, nil, fmt.Errorf("sqlparse: expected aggregate function or column at %d, got %q", it.name.pos, it.name.text)
		}
		if !it.call {
			ref, _, err := ps.resolve(it.name)
			if err != nil {
				return nil, nil, err
			}
			bare = append(bare, ref.Col)
			continue
		}
		fn, ok := aggFunc(it.name.text)
		if !ok {
			return nil, nil, fmt.Errorf("sqlparse: unknown aggregate function %q at %d", it.name.text, it.name.pos)
		}
		if it.arg.kind == tokStar {
			if fn != expr.AggCount {
				return nil, nil, fmt.Errorf("sqlparse: expected column name at %d, got %q", it.arg.pos, it.arg.text)
			}
			aq.Aggs = append(aq.Aggs, expr.Agg{Func: expr.AggCountStar})
			continue
		}
		ref, _, err := ps.resolve(it.arg)
		if err != nil {
			return nil, nil, err
		}
		aq.Aggs = append(aq.Aggs, expr.Agg{Func: fn, Col: ref.Col})
	}
	return aq, bare, nil
}

// aggFunc looks up an aggregate by its SQL name, case-insensitively.
func aggFunc(name string) (expr.AggFunc, bool) {
	for fn := expr.AggCount; fn <= expr.AggAvg; fn++ {
		if strings.EqualFold(name, fn.String()) {
			return fn, true
		}
	}
	return 0, false
}

// listCols resolves a call-free select list to columns.
func (ps *parseState) listCols(items []selectItem) ([]expr.ColRef, error) {
	cols := make([]expr.ColRef, 0, len(items))
	for _, it := range items {
		if it.name.kind == tokStar {
			return nil, fmt.Errorf("sqlparse: SELECT * is not a row query (use the filter surface) at %d", it.name.pos)
		}
		ref, _, err := ps.resolve(it.name)
		if err != nil {
			return nil, err
		}
		cols = append(cols, ref)
	}
	return cols, nil
}

// where parses an optional WHERE clause (nil when there is none).
func (ps *parseState) where() (*expr.Node, error) {
	if !isKeyword(ps.cur(), "WHERE") {
		return nil, nil
	}
	ps.next()
	return ps.parseOr()
}

// groupBy parses "GROUP BY <col> [, <col>]...". Repeated columns
// de-duplicate (keeping the first) so rendering is a fixpoint.
func (ps *parseState) groupBy() ([]int, error) {
	ps.next()
	if !isKeyword(ps.cur(), "BY") {
		return nil, fmt.Errorf("sqlparse: GROUP must be followed by BY at %d", ps.cur().pos)
	}
	ps.next()
	var cols []int
	for {
		t, err := ps.expect(tokIdent, "grouping column")
		if err != nil {
			return nil, err
		}
		ref, _, err := ps.resolve(t)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(cols, ref.Col) {
			cols = append(cols, ref.Col)
		}
		if ps.cur().kind != tokComma {
			return cols, nil
		}
		ps.next()
	}
}

// orderLimit parses the optional ORDER BY and LIMIT tail. An ORDER BY
// column must be one of cols, the select list; repeated keys
// de-duplicate (keeping the first) so rendering is a fixpoint.
func (ps *parseState) orderLimit(cols []expr.ColRef) ([]expr.OrderKey, int, error) {
	var order []expr.OrderKey
	if isKeyword(ps.cur(), "ORDER") {
		ps.next()
		if !isKeyword(ps.cur(), "BY") {
			return nil, 0, fmt.Errorf("sqlparse: ORDER must be followed by BY at %d", ps.cur().pos)
		}
		ps.next()
		for {
			t, err := ps.expect(tokIdent, "ORDER BY column")
			if err != nil {
				return nil, 0, err
			}
			ref, _, err := ps.resolve(t)
			if err != nil {
				return nil, 0, err
			}
			pos := slices.Index(cols, ref)
			if pos < 0 {
				return nil, 0, fmt.Errorf("sqlparse: ORDER BY column %q is not in the SELECT list at %d", t.text, t.pos)
			}
			desc := false
			if isKeyword(ps.cur(), "ASC") {
				ps.next()
			} else if isKeyword(ps.cur(), "DESC") {
				ps.next()
				desc = true
			}
			if !slices.ContainsFunc(order, func(k expr.OrderKey) bool { return k.Pos == pos }) {
				order = append(order, expr.OrderKey{Pos: pos, Desc: desc})
			}
			if ps.cur().kind != tokComma {
				break
			}
			ps.next()
		}
	}
	limit := 0
	if isKeyword(ps.cur(), "LIMIT") {
		ps.next()
		t, err := ps.expect(tokNumber, "LIMIT count")
		if err != nil {
			return nil, 0, err
		}
		v, err := strconv.ParseInt(t.text, 10, 32)
		if err != nil || v <= 0 {
			return nil, 0, fmt.Errorf("sqlparse: LIMIT needs a positive integer, got %q at %d", t.text, t.pos)
		}
		limit = int(v)
	}
	return order, limit, nil
}

// end reports input left after a complete statement.
func (ps *parseState) end() error {
	if t := ps.cur(); t.kind != tokEOF {
		return fmt.Errorf("sqlparse: trailing input at %d: %q", t.pos, t.text)
	}
	return nil
}

// joinStmt parses the rest of "... FROM left JOIN right ON a = b
// [WHERE ...] [ORDER BY ...] [LIMIT k]".
func (ps *parseState) joinStmt(items []selectItem, left token) (expr.Statement, error) {
	ps.next()
	right, err := ps.expect(tokIdent, "join table name")
	if err != nil {
		return expr.Statement{}, err
	}
	if left.text == right.text {
		return expr.Statement{}, fmt.Errorf("sqlparse: join sides need distinct names (got %q twice) at %d", right.text, right.pos)
	}
	for side, t := range [2]token{left, right} {
		if ps.schemas[side], err = ps.p.schemaFor(t); err != nil {
			return expr.Statement{}, err
		}
		ps.tables[side] = t.text
	}
	ps.join = true
	jq := &expr.JoinQuery{LeftTable: left.text, RightTable: right.text}
	if jq.Cols, err = ps.listCols(items); err != nil {
		return expr.Statement{}, err
	}
	if !isKeyword(ps.cur(), "ON") {
		return expr.Statement{}, fmt.Errorf("sqlparse: expected ON at %d, got %q", ps.cur().pos, ps.cur().text)
	}
	ps.next()
	var keys [2]expr.ColRef
	var first token
	for i := range keys {
		if i == 1 {
			if eq := ps.next(); eq.kind != tokOp || eq.text != "=" {
				return expr.Statement{}, fmt.Errorf("sqlparse: join ON supports equality only, got %q at %d", eq.text, eq.pos)
			}
		}
		t, err := ps.expect(tokIdent, "join key")
		if err != nil {
			return expr.Statement{}, err
		}
		if i == 0 {
			first = t
		}
		if keys[i], _, err = ps.resolve(t); err != nil {
			return expr.Statement{}, err
		}
	}
	if keys[0].Side == keys[1].Side {
		return expr.Statement{}, fmt.Errorf("sqlparse: join ON must compare one column from each side at %d", first.pos)
	}
	if keys[0].Side == 1 {
		keys[0], keys[1] = keys[1], keys[0]
	}
	jq.LeftKey, jq.RightKey = keys[0].Col, keys[1].Col
	where, err := ps.where()
	if err != nil {
		return expr.Statement{}, err
	}
	if where != nil {
		jq.LeftFilter, jq.RightFilter = ps.splitSides(where)
	}
	if jq.OrderBy, jq.Limit, err = ps.orderLimit(jq.Cols); err != nil {
		return expr.Statement{}, err
	}
	if err := ps.end(); err != nil {
		return expr.Statement{}, err
	}
	return expr.Statement{Join: jq}, nil
}

// splitSides routes the top-level AND terms of a join's WHERE clause to
// the side each reads. Parsing kept every OR and every group to one
// side, so only the top-level AND can mix them.
func (ps *parseState) splitSides(root *expr.Node) (left, right expr.Query) {
	terms, sides := []*expr.Node{root}, []uint8{ps.sides}
	if ps.sides == bothSides {
		terms, sides = root.Children, ps.conj
	}
	var bySide [2][]*expr.Node
	for i, n := range terms {
		side := sides[i] >> 1 // 0b01 → left, 0b10 → right
		bySide[side] = append(bySide[side], n)
	}
	if len(bySide[0]) > 0 {
		left.Root = expr.And(bySide[0]...)
	}
	if len(bySide[1]) > 0 {
		right.Root = expr.And(bySide[1]...)
	}
	return left, right
}

// schemaFor binds a FROM-clause table name to a schema: through the
// Tables map when set, else the parser's single Schema.
func (p *Parser) schemaFor(t token) (*table.Schema, error) {
	if p.Tables == nil {
		return p.Schema, nil
	}
	if s, ok := p.Tables[t.text]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("sqlparse: unknown table %q at %d", t.text, t.pos)
}
