// Package table provides the columnar in-memory table substrate used by the
// qd-tree constructors, the block store, and the execution engine.
//
// Every value is stored as an int64. Numeric columns hold their natural
// integer encoding (dates as day numbers, fixed-point decimals as scaled
// integers); string and categorical columns are dictionary-encoded, matching
// the paper's treatment ("literals are dictionary-encoded as integers",
// Sec. 3). A column's domain is [0, Dom) for categoricals and
// [Min, Max] for numerics.
package table

import (
	"fmt"
	"math"
	"math/rand"
)

// MaxValue is the largest value a column may hold. Block descriptions
// keep half-open intervals [lo, hi) with hi one past the largest value,
// which math.MaxInt64 would overflow into an empty interval that prunes
// the block for every predicate on the column.
const MaxValue = math.MaxInt64 - 1

// Kind classifies a column for qd-tree semantics.
type Kind int

const (
	// Numeric columns support range cuts; node descriptions track them as
	// hypercube intervals.
	Numeric Kind = iota
	// Categorical columns support =/IN cuts; node descriptions track them
	// as |Dom|-bit masks (paper Table 1).
	Categorical
)

// String returns the kind name.
func (k Kind) String() string {
	if k == Categorical {
		return "categorical"
	}
	return "numeric"
}

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Kind Kind
	// Dom is the dictionary size for categorical columns (values are in
	// [0, Dom)). Unused for numeric columns.
	Dom int64
	// Min and Max bound a numeric column's domain, inclusive. They define
	// the root hypercube interval [Min, Max+1).
	Min, Max int64
	// Dict maps categorical codes back to human-readable strings; may be
	// nil when codes are opaque.
	Dict []string
}

// Schema is an ordered set of columns with name lookup.
type Schema struct {
	Cols   []Column
	byName map[string]int
}

// NewSchema builds a schema and its name index. Column names must be unique.
func NewSchema(cols []Column) (*Schema, error) {
	s := &Schema{Cols: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("table: column %d has empty name", i)
		}
		if _, dup := s.byName[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column name %q", c.Name)
		}
		if c.Kind == Categorical && c.Dom <= 0 {
			return nil, fmt.Errorf("table: categorical column %q needs Dom > 0", c.Name)
		}
		if c.Kind == Numeric && c.Max > MaxValue {
			return nil, fmt.Errorf("table: column %q has Max %d above MaxValue", c.Name, c.Max)
		}
		s.byName[c.Name] = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for statically known schemas.
func MustSchema(cols []Column) *Schema {
	s, err := NewSchema(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// NumCols returns the number of columns.
func (s *Schema) NumCols() int { return len(s.Cols) }

// Col returns the ordinal of the named column, or -1 if absent.
func (s *Schema) Col(name string) int {
	if i, ok := s.byName[name]; ok {
		return i
	}
	return -1
}

// MustCol returns the ordinal of the named column and panics if absent.
func (s *Schema) MustCol(name string) int {
	i := s.Col(name)
	if i < 0 {
		panic(fmt.Sprintf("table: no column %q", name))
	}
	return i
}

// Names returns the column names in schema order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		out[i] = c.Name
	}
	return out
}

// Code returns the dictionary code of a categorical string value, or -1.
func (s *Schema) Code(col int, val string) int64 {
	for i, v := range s.Cols[col].Dict {
		if v == val {
			return int64(i)
		}
	}
	return -1
}

// Table is a column-major table of int64 values.
type Table struct {
	Schema *Schema
	Cols   [][]int64 // Cols[c][r]
	N      int       // row count
}

// New returns an empty table with capacity hint n.
func New(s *Schema, n int) *Table {
	cols := make([][]int64, s.NumCols())
	for i := range cols {
		cols[i] = make([]int64, 0, n)
	}
	return &Table{Schema: s, Cols: cols}
}

// FromColumns wraps pre-built column slices (not copied). All slices must
// have equal length.
func FromColumns(s *Schema, cols [][]int64) (*Table, error) {
	if len(cols) != s.NumCols() {
		return nil, fmt.Errorf("table: %d column slices for %d-column schema", len(cols), s.NumCols())
	}
	n := 0
	if len(cols) > 0 {
		n = len(cols[0])
	}
	for i, c := range cols {
		if len(c) != n {
			return nil, fmt.Errorf("table: column %d has %d rows, want %d", i, len(c), n)
		}
	}
	return &Table{Schema: s, Cols: cols, N: n}, nil
}

// AppendRow appends one row. The row length must equal the column count.
func (t *Table) AppendRow(row []int64) {
	for c := range t.Cols {
		t.Cols[c] = append(t.Cols[c], row[c])
	}
	t.N++
}

// Row copies row r into dst (allocating if dst is too small) and returns it.
func (t *Table) Row(r int, dst []int64) []int64 {
	if cap(dst) < len(t.Cols) {
		dst = make([]int64, len(t.Cols))
	}
	dst = dst[:len(t.Cols)]
	for c := range t.Cols {
		dst[c] = t.Cols[c][r]
	}
	return dst
}

// Select returns a new table containing the given row indexes.
func (t *Table) Select(rows []int) *Table {
	out := &Table{Schema: t.Schema, Cols: make([][]int64, len(t.Cols)), N: len(rows)}
	for c := range t.Cols {
		col := make([]int64, len(rows))
		src := t.Cols[c]
		for i, r := range rows {
			col[i] = src[r]
		}
		out.Cols[c] = col
	}
	return out
}

// Sample draws a uniform random sample of approximately rate*N rows (at
// least minRows if the table has that many) and returns it as a new table.
// The paper uses a 0.1%–1% sample to test cut legality (Sec. 5.2.1).
func (t *Table) Sample(rate float64, minRows int, rng *rand.Rand) *Table {
	want := int(float64(t.N) * rate)
	if want < minRows {
		want = minRows
	}
	if want >= t.N {
		return t
	}
	// Reservoir sampling keeps memory proportional to the sample.
	rows := make([]int, want)
	for i := 0; i < want; i++ {
		rows[i] = i
	}
	for i := want; i < t.N; i++ {
		j := rng.Intn(i + 1)
		if j < want {
			rows[j] = i
		}
	}
	return t.Select(rows)
}

// CheckValues returns an error naming the first value above MaxValue,
// or nil when every value fits.
func (t *Table) CheckValues() error {
	for c, col := range t.Cols {
		for r, v := range col {
			if v > MaxValue {
				return fmt.Errorf("table: column %s row %d holds %d, above MaxValue", t.Schema.Cols[c].Name, r, v)
			}
		}
	}
	return nil
}

// MinMax returns the observed minimum and maximum of column c over the
// given row subset (all rows when rows is nil). ok is false for an empty set.
func (t *Table) MinMax(c int, rows []int) (lo, hi int64, ok bool) {
	col := t.Cols[c]
	if rows == nil {
		if len(col) == 0 {
			return 0, 0, false
		}
		lo, hi = col[0], col[0]
		for _, v := range col[1:] {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return lo, hi, true
	}
	if len(rows) == 0 {
		return 0, 0, false
	}
	lo, hi = col[rows[0]], col[rows[0]]
	for _, r := range rows[1:] {
		v := col[r]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}

// InferBounds sets each numeric column's Min/Max from the table contents.
// Generators that compute domains analytically may skip this.
func (t *Table) InferBounds() {
	for c := range t.Schema.Cols {
		if t.Schema.Cols[c].Kind != Numeric {
			continue
		}
		if lo, hi, ok := t.MinMax(c, nil); ok {
			t.Schema.Cols[c].Min, t.Schema.Cols[c].Max = lo, hi
		}
	}
}

// Concat appends all rows of other (same schema) to t.
func (t *Table) Concat(other *Table) {
	for c := range t.Cols {
		t.Cols[c] = append(t.Cols[c], other.Cols[c]...)
	}
	t.N += other.N
}
