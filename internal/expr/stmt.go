package expr

// StmtKind tags what a Statement computes over the rows its filter lets
// through. The query side of the layout — route the filter, scan the
// surviving blocks — is the same for every kind.
type StmtKind int

const (
	StmtFilter StmtKind = iota // bare filter, answered as a match count
	StmtAgg                    // SELECT <aggs> ... [GROUP BY ...]
	StmtRows                   // SELECT <cols> ... [ORDER BY ...] [LIMIT k]
	StmtJoin                   // two-table equi-join
)

// Statement is one parsed SQL statement of any kind — what
// sqlparse.Parser.ParseStatement returns and what a server executes.
// Exactly one payload is meaningful, and Kind derives from which:
// Join, else Row, else Agg, else the bare Filter (whose nil Root
// matches every row).
type Statement struct {
	Filter Query
	Agg    *AggQuery
	Row    *RowQuery
	Join   *JoinQuery
	// Partial asks an aggregate statement for its unfinalized, mergeable
	// per-group state instead of finished rows — the shard half of a
	// scattered aggregation. Ignored by the other kinds.
	Partial bool
}

// Kind reports which payload the statement carries.
func (s Statement) Kind() StmtKind {
	switch {
	case s.Join != nil:
		return StmtJoin
	case s.Row != nil:
		return StmtRows
	case s.Agg != nil:
		return StmtAgg
	}
	return StmtFilter
}

// Type is the statement's label in metrics and logs: filter, select,
// select_partial, rows or join.
func (s Statement) Type() string {
	switch s.Kind() {
	case StmtJoin:
		return "join"
	case StmtRows:
		return "rows"
	case StmtAgg:
		if s.Partial {
			return "select_partial"
		}
		return "select"
	}
	return "filter"
}

// Filters returns the filter of every scan the statement runs: one, or
// the build and probe side's for a join. These are what the layout
// prunes with and what a workload log replans from.
func (s Statement) Filters() []Query {
	switch s.Kind() {
	case StmtJoin:
		return []Query{s.Join.LeftFilter, s.Join.RightFilter}
	case StmtRows:
		return []Query{s.Row.Filter}
	case StmtAgg:
		return []Query{s.Agg.Filter}
	}
	return []Query{s.Filter}
}

// name points at the payload's Name field.
func (s *Statement) name() *string {
	switch s.Kind() {
	case StmtJoin:
		return &s.Join.Name
	case StmtRows:
		return &s.Row.Name
	case StmtAgg:
		return &s.Agg.Name
	}
	return &s.Filter.Name
}

// Name returns the statement's label ("" when unnamed).
func (s Statement) Name() string { return *s.name() }

// SetName labels the statement.
func (s *Statement) SetName(name string) { *s.name() = name }

// StringWith renders the statement in its canonical SQL spelling against
// a single schema — the text a front door scatters and a plan cache keys
// on.
func (s Statement) StringWith(names []string, acs []AdvCut) string {
	switch s.Kind() {
	case StmtJoin:
		return s.Join.StringWith(names, names, acs)
	case StmtRows:
		return s.Row.StringWith(names, acs)
	case StmtAgg:
		return s.Agg.StringWith(names, acs)
	}
	return s.Filter.StringWith(names, acs)
}
