package exec

// Merged reads over `delta ∪ base`: the streaming-ingest delta (memtable
// prefix plus sealed segments, snapshotted by internal/delta) carries no
// layout membership and no zone maps, so every query scans its rows in
// full — through the same vectorized SelVec kernels as base blocks, which
// keeps counts and aggregates bit-identical to the row-at-a-time
// reference over the concatenated table. Base blocks are pruned exactly
// as without a delta.
//
// Accounting treats each delta table as one more scanned unit: a seek,
// its plain-encoded bytes, and a filter pass over its rows enter the same
// deterministic total/critical-path reduction as block scans, and the
// delta's rows join RowsTotal — so SkipRate degrades as the delta fills,
// which is precisely the signal compaction removes. DeltaRows counts the
// delta share of RowsScanned.

import (
	"repro/internal/blockstore"
	"repro/internal/table"
)

// DeltaView is an immutable point-in-time snapshot of the uncompacted
// delta, oldest table first. A nil view means "no delta" and is accepted
// everywhere.
type DeltaView struct {
	Tables []*table.Table
}

// Rows returns the view's total row count (0 for nil).
func (d *DeltaView) Rows() int64 {
	if d == nil {
		return 0
	}
	var n int64
	for _, t := range d.Tables {
		n += int64(t.N)
	}
	return n
}

// tables returns the view's non-empty tables (nil-safe).
func (d *DeltaView) tables() []*table.Table {
	if d == nil {
		return nil
	}
	out := d.Tables[:0:0]
	for _, t := range d.Tables {
		if t.N > 0 {
			out = append(out, t)
		}
	}
	return out
}

// deltaColVecs wraps the given columns of one in-memory delta table as
// PLAIN column vectors, mirroring the shape blockstore.ReadColVecs
// returns for a block, and reports the plain byte volume converted (8
// bytes per value). Conversion buffers come from the arena's Plain
// space, valid until its next ResetPlain.
func deltaColVecs(t *table.Table, cols []int, ar *blockstore.Arena) ([]*blockstore.ColVec, int64) {
	vecs := make([]*blockstore.ColVec, len(t.Cols))
	for _, c := range cols {
		vecs[c] = ar.Plain(t.Cols[c][:t.N])
	}
	return vecs, int64(8*t.N) * int64(len(cols))
}
