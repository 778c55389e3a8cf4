package exec

// TopK selection for ORDER BY ... LIMIT k: a bounded binary heap fed
// per batch, so a LIMIT-k query never materializes the full result.
// The heap keeps the k best rows seen with the worst kept row at the
// root; a candidate beats its way in only if it sorts before that
// root. Per-worker heaps merge contention-free after the scan pool
// drains, exactly like aggPartial.
//
// Ordering is total and deterministic: rows compare by the ORDER BY
// keys, and any tie breaks on the full projected tuple ascending.
// Fully-equal tuples are interchangeable, so the emitted rows are
// bit-identical across parallelism, block formats, and pruning modes
// — the property the differential harness pins.

import (
	"cmp"
	"slices"

	"repro/internal/expr"
)

// rowCmp builds the deterministic three-way comparator over output
// tuples: ORDER BY keys first (Pos indexes the tuple), then the whole
// tuple ascending as the tie-break. It is the one definition of the
// output order; the sort and the TopK heap both derive from it.
func rowCmp(order []expr.OrderKey) func(a, b []int64) int {
	return func(a, b []int64) int {
		for _, k := range order {
			if c := cmp.Compare(a[k.Pos], b[k.Pos]); c != 0 {
				if k.Desc {
					return -c
				}
				return c
			}
		}
		return slices.Compare(a, b)
	}
}

// SortRows sorts projected tuples into the deterministic output order
// of a row query: ORDER BY keys, ties broken on the full tuple. The
// front door re-merges per-shard TopK results with this exact order so
// a gathered answer is bit-identical to a single-node execution.
func SortRows(rows [][]int64, order []expr.OrderKey) {
	slices.SortFunc(rows, rowCmp(order))
}

// rowSink collects output tuples: a bounded heap when the query has a
// LIMIT, a plain append otherwise. Each scan worker owns one sink.
type rowSink struct {
	k    int // 0 = unbounded
	cmp  func(a, b []int64) int
	rows [][]int64 // heap layout when k > 0 (worst kept row at [0])
}

func newRowSink(k int, order []expr.OrderKey) *rowSink {
	return &rowSink{k: k, cmp: rowCmp(order)}
}

// add offers one tuple (ownership transfers to the sink).
func (s *rowSink) add(row []int64) {
	if s.k <= 0 {
		s.rows = append(s.rows, row)
		return
	}
	if len(s.rows) < s.k {
		s.rows = append(s.rows, row)
		s.siftUp(len(s.rows) - 1)
		return
	}
	if s.cmp(row, s.rows[0]) < 0 {
		s.rows[0] = row
		s.siftDown(0)
	}
}

// full reports whether the heap holds k rows (always false unbounded).
func (s *rowSink) full() bool { return s.k > 0 && len(s.rows) == s.k }

// worst returns the heap root — the row a candidate must beat.
func (s *rowSink) worst() []int64 { return s.rows[0] }

// after reports a is ordered after b (the heap's "worse" relation).
func (s *rowSink) after(a, b []int64) bool { return s.cmp(a, b) > 0 }

func (s *rowSink) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.after(s.rows[i], s.rows[parent]) {
			return
		}
		s.rows[i], s.rows[parent] = s.rows[parent], s.rows[i]
		i = parent
	}
}

func (s *rowSink) siftDown(i int) {
	n := len(s.rows)
	for {
		worst := i
		if l := 2*i + 1; l < n && s.after(s.rows[l], s.rows[worst]) {
			worst = l
		}
		if r := 2*i + 2; r < n && s.after(s.rows[r], s.rows[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		s.rows[i], s.rows[worst] = s.rows[worst], s.rows[i]
		i = worst
	}
}

// finishSinks merges per-worker sinks into the final ordered (and
// limited) result. Always returns a non-nil slice.
func finishSinks(sinks []*rowSink, order []expr.OrderKey, limit int) [][]int64 {
	var all [][]int64
	for _, s := range sinks {
		all = append(all, s.rows...)
	}
	SortRows(all, order)
	if limit > 0 && len(all) > limit {
		all = all[:limit]
	}
	if all == nil {
		all = [][]int64{}
	}
	return all
}
