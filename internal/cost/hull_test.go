package cost

import (
	"slices"
	"testing"

	"repro/internal/table"
)

// TestHullIndexSize pins the index to at most one hull description per 8
// blocks (rounded up), and every bottom node to at most hullLeafBlocks
// consecutive blocks, with the bottom nodes covering all blocks in order.
func TestHullIndexSize(t *testing.T) {
	tbl, queries := fixture(9)
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100, 713} {
		rows := table.New(tbl.Schema, n)
		bids := make([]int, n)
		for r := 0; r < n; r++ {
			rows.AppendRow(tbl.Row(r%tbl.N, nil))
			bids[r] = r
		}
		l := NewLayout("size", rows, bids, n, nil)
		if got, limit := len(l.hulls), (n+7)/8; got > limit {
			t.Errorf("%d blocks: index holds %d hulls, limit %d", n, got, limit)
		}
		next := 0
		for _, nd := range l.hulls {
			if nd.left >= 0 {
				continue
			}
			if nd.lo != next || nd.hi <= nd.lo || nd.hi-nd.lo > hullLeafBlocks {
				t.Fatalf("%d blocks: bottom node [%d,%d) after block %d", n, nd.lo, nd.hi, next)
			}
			next = nd.hi
		}
		if next != n {
			t.Errorf("%d blocks: bottom nodes end at block %d", n, next)
		}
	}
	// A Layout assembled by hand has no index and checks every block.
	l := NewLayout("x", tbl, make([]int, tbl.N), 1, nil)
	bare := &Layout{NumRows: l.NumRows, BIDs: l.BIDs, Counts: l.Counts, Descs: l.Descs}
	for _, q := range queries {
		if got, want := bare.BlocksFor(q), l.BlocksFor(q); !slices.Equal(got, want) {
			t.Errorf("%s: unindexed layout %v, indexed %v", q.Name, got, want)
		}
	}
}
