package serve

// Shard-role surface of a Server: when a Server runs as one store node of
// a cluster (internal/cluster), the front door needs one thing beyond
// the standalone API — a shard-level pruning summary, so selective
// queries skip whole shards before any block-level pruning happens.
// (Partial aggregation, so AVG/MIN/MAX gather bit-identically across
// shards, is the Partial flag of an aggregate statement; see
// exec/merge.go.)

import (
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
)

// Summary is one shard's pruning metadata: the inclusive per-column
// min/max envelope of its base blocks (the union of its block-level SMA
// zone maps) plus the uncompacted delta row count. A front door may skip
// the shard for a query only when the envelope cannot match AND the
// delta is empty — delta rows carry no metadata, so any uncompacted
// ingest makes the shard unprunable until the next compaction folds it
// into described blocks. Columns carries the schema so a stateless front
// door can parse queries without local configuration.
type Summary struct {
	Shard      string         `json:"shard,omitempty"`
	Generation int            `json:"generation"`
	Rows       int            `json:"rows"` // base rows (excludes delta)
	DeltaRows  int            `json:"delta_rows"`
	Blocks     int            `json:"blocks"`
	Min        []int64        `json:"min,omitempty"` // per-column inclusive min over base blocks
	Max        []int64        `json:"max,omitempty"` // per-column inclusive max over base blocks
	Columns    []table.Column `json:"columns"`
}

// MayMatch reports whether the shard may hold rows matching q: true when
// the query's filter intersects the base envelope or any uncompacted
// delta rows exist. Conservative — false is a proof of emptiness.
func (sm *Summary) MayMatch(q expr.Query) bool {
	if sm.DeltaRows > 0 {
		return true
	}
	if sm.Rows == 0 {
		return false
	}
	return cost.SMAMayMatch(sm.Min, sm.Max, q)
}

// Summary snapshots the live generation's envelope. The catalog's
// per-block SMA metadata (exact min/max per column, categoricals
// included) is merged over non-empty blocks; a generation swap or
// compaction changes the result, so cluster front doors refresh
// periodically and after routing ingest.
func (s *Server) Summary() Summary {
	s.mu.RLock()
	gen := s.gen
	closed := s.closed
	s.mu.RUnlock()
	sum := Summary{
		Shard:      s.cfg.ShardLabel,
		Generation: gen.id,
		DeltaRows:  s.delta.Rows(),
		Columns:    s.Schema().Cols,
	}
	if closed {
		return sum
	}
	for _, m := range gen.store.Blocks {
		if m.Rows == 0 || len(m.Min) == 0 {
			continue
		}
		sum.Blocks++
		if sum.Rows == 0 {
			sum.Min = append([]int64(nil), m.Min...)
			sum.Max = append([]int64(nil), m.Max...)
		} else {
			for c := range sum.Min {
				if m.Min[c] < sum.Min[c] {
					sum.Min[c] = m.Min[c]
				}
				if m.Max[c] > sum.Max[c] {
					sum.Max[c] = m.Max[c]
				}
			}
		}
		sum.Rows += m.Rows
	}
	return sum
}
