package serve

// Background compaction: the LSM-style fold of the streaming-ingest delta
// into the learned base layout. A compaction checkpoints the delta (seals
// the memtable; inserts racing with the compaction land in the next one),
// routes base ∪ delta rows into a candidate layout — through the live
// generation's qd-tree when it has one, else via the configured replanner
// over the logged window — materializes the result as a fresh generation,
// and reuses the atomic CURRENT flip of re-layout, so queries never block
// and always see either (old base + full delta) or (new base + remaining
// delta), never both copies of a row.
//
// Crash safety: a marker naming the folded segments is written before the
// CURRENT flip and cleared after the segment files are deleted; see
// delta.Marker for the recovery invariant New applies.

import (
	"fmt"
	"time"

	"repro/internal/cost"
	"repro/internal/table"
)

// CompactReport is the outcome of one compaction cycle.
type CompactReport struct {
	// Rows is how many delta rows the cycle folded into the base (0 when
	// the cycle was gated or the delta was empty).
	Rows int `json:"rows"`
	// Generation is the live generation after the cycle.
	Generation int  `json:"generation"`
	Swapped    bool `json:"swapped"`
	// Routed says how delta rows found their blocks: "tree" (routed
	// through the live layout's qd-tree), "replan" (fresh plan over the
	// logged window), or "append" (no tree and no logged queries — delta
	// rows land in one new block).
	Routed string `json:"routed,omitempty"`
	Reason string `json:"reason,omitempty"`
	// BytesWritten is the new generation's on-disk size.
	BytesWritten int64 `json:"bytes_written"`
	// FreshnessSeconds is the age of the oldest folded row when the cycle
	// started — the staleness the compaction erased.
	FreshnessSeconds float64 `json:"freshness_seconds"`
	// WriteAmplification is the server's cumulative write amplification
	// after the cycle (see Server.writeAmp).
	WriteAmplification float64 `json:"write_amplification"`
}

// Compact forces one compaction cycle, folding every uncompacted delta
// row into a fresh generation regardless of the CompactRows gate (POST
// /compact over HTTP).
func (s *Server) Compact() error {
	_, err := s.RunCompaction(true)
	return err
}

// RunCompaction runs one compaction cycle synchronously. With force=false
// it behaves like a background tick: the delta must hold at least
// CompactRows rows. Compactions, drift relayouts, and Close serialize on
// the same lock, so at most one candidate generation is ever in flight.
func (s *Server) RunCompaction(force bool) (CompactReport, error) {
	s.relayoutMu.Lock()
	defer s.relayoutMu.Unlock()

	s.mu.RLock()
	closed := s.closed
	live := s.gen
	base := s.tbl
	s.mu.RUnlock()
	if closed {
		return CompactReport{}, ErrClosed
	}
	rep := CompactReport{Generation: live.id}
	if n := s.delta.Rows(); n == 0 {
		rep.Reason = "delta is empty; nothing to compact"
		s.finishCompact(rep, nil)
		return rep, nil
	} else if !force && n < s.cfg.CompactRows {
		rep.Reason = fmt.Sprintf("delta %d rows below CompactRows %d", n, s.cfg.CompactRows)
		s.finishCompact(rep, nil)
		return rep, nil
	}

	cp, err := s.delta.BeginCompaction()
	if err != nil {
		s.finishCompact(rep, err)
		return rep, err
	}
	rep.Rows = cp.Rows
	if !cp.Oldest.IsZero() {
		rep.FreshnessSeconds = time.Since(cp.Oldest).Seconds()
	}

	merged := table.New(base.Schema, base.N+cp.Rows)
	merged.Concat(base)
	for _, t := range cp.Tables() {
		merged.Concat(t)
	}

	newID := s.nextGenID(live.id)
	cand, routed, err := s.compactionLayout(live.layout, merged, newID)
	if err != nil {
		rep.Reason = "compaction layout failed"
		s.finishCompact(rep, err)
		return rep, err
	}
	rep.Routed = routed

	written, reason, err := s.install(newID, merged, cand, cp)
	if err != nil {
		rep.Reason = reason
		s.finishCompact(rep, err)
		return rep, err
	}

	s.compactions.Add(1)
	s.compactedRows.Add(int64(cp.Rows))
	s.compactBytes.Add(written)
	s.metrics.compactedRows.Add(uint64(cp.Rows))
	s.metrics.compactBytes.Add(uint64(written))
	rep.Swapped = true
	rep.Generation = newID
	rep.BytesWritten = written
	rep.WriteAmplification = s.writeAmp()
	s.finishCompact(rep, nil)
	return rep, nil
}

// compactionLayout routes base ∪ delta rows into the next generation's
// layout. Preference order: the live layout's qd-tree (the replanned
// semantic descriptions route new rows exactly like the paper's online
// ingest), a fresh replan over the logged window, and — with neither a
// tree nor logged queries — appending the delta rows as one new block
// after the unchanged base blocks.
func (s *Server) compactionLayout(liveLayout *cost.Layout, merged *table.Table, newID int) (*cost.Layout, string, error) {
	name := genName(newID)
	if liveLayout.Tree != nil {
		// FromTree re-freezes the tree it is given, rewriting its leaf
		// descriptions (and widening inner ones) in place; the live
		// layout's Descs share the leaves' slices
		// and maps and queries are pruning with them right now, so route
		// and freeze a private copy.
		return cost.FromTree(name, liveLayout.Tree.Clone(), merged), "tree", nil
	}
	if window := s.log.Queries(s.cfg.WindowSize); len(window) > 0 {
		cand, err := s.cfg.Replan(merged, s.cfg.ACs, window)
		if err != nil {
			return nil, "", fmt.Errorf("serve: compaction replan over %d-query window: %w", len(window), err)
		}
		if len(cand.BIDs) != merged.N {
			return nil, "", fmt.Errorf("serve: compaction replan assigns %d rows, merged table has %d", len(cand.BIDs), merged.N)
		}
		cand.Name = name
		return cand, "replan", nil
	}
	nblocks := liveLayout.NumBlocks()
	bids := make([]int, merged.N)
	copy(bids, liveLayout.BIDs)
	for r := len(liveLayout.BIDs); r < merged.N; r++ {
		bids[r] = nblocks
	}
	return cost.NewLayout(name, merged, bids, nblocks+1, s.cfg.ACs), "append", nil
}

// writeAmp is cumulative write amplification: every byte compactions
// wrote to disk over the logical footprint of the delta rows they folded
// in. The base rewrite dominates — folding a small delta rewrites the
// whole table, which is exactly the cost the stat is meant to surface.
func (s *Server) writeAmp() float64 {
	folded := 8 * int64(s.Schema().NumCols()) * s.compactedRows.Load()
	if folded == 0 {
		return 0
	}
	return float64(s.compactBytes.Load()) / float64(folded)
}

// finishCompact publishes the report for Stats; errors share the
// LastError slot with drift checks.
func (s *Server) finishCompact(rep CompactReport, err error) {
	switch {
	case err != nil:
		s.metrics.compactions.With("failed").Inc()
	case rep.Swapped:
		s.metrics.compactions.With("swapped").Inc()
	default:
		s.metrics.compactions.With("skipped").Inc()
	}
	s.lastCompact.Store(&rep)
	if err != nil {
		msg := err.Error()
		s.lastErr.Store(&msg)
	}
}

// compactor is the background compaction loop: each tick folds the delta
// once it has accumulated CompactRows rows.
func (s *Server) compactor(interval time.Duration) {
	defer close(s.compactDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			if s.delta.Rows() >= s.cfg.CompactRows {
				s.RunCompaction(false) // outcome lands in Stats via finishCompact
			}
		}
	}
}
