package exec

// The scan driver: the one copy of the paper's query side — route the
// filter through the layout, get a block list, scan it, count what was
// skipped. It does not change with what is computed over the surviving
// rows, so every statement kind (filter count, aggregate, row projection,
// either side of a join) plugs into it as a scanSpec: which columns to
// read, and what to do with each block's vectors. The driver owns
// everything else — candidate pruning, the per-worker arenas, the pread
// of the read set (the same under every engine profile: a profile prices
// a scan, it never widens it), ScanStats and critical-path accounting,
// the delta pass, the block_prune/scan/delta_scan spans and the parallel
// SimTime model.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
)

// scanWorker is one scan worker's private state: counters, the
// critical-path maximum, and the filter/decode scratch its fold reuses
// across blocks. A statement kind that needs more per-worker state (a
// partial aggregate, a TopK sink) keeps its own slice indexed by slot.
type scanWorker struct {
	slot    int
	stats   ScanStats
	crit    time.Duration
	scratch vecScratch
	sel     blockstore.SelVec
	arena   *blockstore.Arena
}

// account charges one scanned unit — a base block or a delta table — at
// the profile's price, given the bytes read of it and its whole size.
func (w *scanWorker) account(prof Profile, nrows int, read, whole int64) {
	nbytes, c := prof.price(1, int64(nrows), read, whole)
	w.stats.BlocksScanned++
	w.stats.RowsScanned += int64(nrows)
	w.stats.BytesRead += nbytes
	w.crit = max(w.crit, c)
}

// scanSpec is what one statement kind plugs into the driver.
type scanSpec struct {
	filter  expr.Query // prunes the candidate blocks
	cols    []int      // the statement's read set (readSet)
	side    string     // join side ("build", "probe") labelling the spans; "" otherwise
	workers int        // pool size (Options.workers, or 1); per-slot state of the kind is sized to it

	// fold consumes the vectors of one block or delta table on worker w
	// and returns the rows it matched. full is set only when catalog
	// proved every row of the block selected.
	fold func(w *scanWorker, vecs []*blockstore.ColVec, nrows int, full bool) int64

	// catalog, when set, is offered each candidate base block before it is
	// read and returns the block's read set: cols, or a narrower one for a
	// block whose rows are all selected (full). It may also answer the
	// block from catalog metadata alone (skip: nothing is read and nothing
	// counts as scanned).
	catalog func(w *scanWorker, b int) (cols []int, full, skip bool)

	// order, when set, makes the visit sequential on worker 0: delta
	// tables first, then the candidates in the order it returns; before
	// each block stop reports whether that block and every later one can
	// be skipped. Both are set together (the TopK short-circuit).
	order func(candidates []int) []int
	stop  func(b int) bool
}

// scan runs one pruned scan over `delta ∪ base` and returns its header
// (Query left for the caller) plus how many ordered candidates stop
// skipped. Counters are exact sums over a fixed block set, so they are
// identical for every worker count.
func scan(store *blockstore.Store, layout *cost.Layout, prof Profile, mode Mode, opt Options, dv *DeltaView, sp scanSpec) (Header, int, error) {
	var h Header
	h.BlocksTotal, h.RowsTotal = storeTotals(store)
	h.RowsTotal += dv.Rows()
	var rec *pruneRecorder
	if opt.Trace != nil {
		rec = &pruneRecorder{}
	}
	scanName := "scan"
	psp := opt.Trace.Start("block_prune")
	if sp.side != "" {
		psp.SetAttr("side", sp.side)
		scanName = sp.side + "_scan"
	}
	candidates, err := candidateBlocks(store, layout, sp.filter, mode, rec)
	rec.annotate(psp, h.BlocksTotal, len(candidates))
	psp.End()
	if err != nil {
		return h, 0, err
	}

	ws := make([]scanWorker, sp.workers)
	for i := range ws {
		ws[i].slot = i
		ws[i].arena = blockstore.GetArena()
	}
	defer func() {
		for i := range ws {
			blockstore.PutArena(ws[i].arena)
		}
	}()
	visit := func(w *scanWorker, b int) error {
		cols, full := sp.cols, false
		if sp.catalog != nil {
			var skip bool
			if cols, full, skip = sp.catalog(w, b); skip {
				return nil
			}
		}
		vecs, nrows, nbytes, err := store.ReadColVecsArena(b, cols, w.arena)
		if err != nil {
			return err
		}
		if vecs == nil {
			return nil
		}
		w.account(prof, nrows, nbytes, store.ColBytes(b, nil))
		w.stats.RowsMatched += sp.fold(w, vecs, nrows, full)
		return nil
	}
	// The delta carries no layout membership and no zone maps, so every
	// table is scanned in full (see delta.go). The pass borrows worker 0
	// but keeps its own counters, so the scan span reports base blocks
	// only whichever of the two runs first.
	scanDelta := func() ScanStats {
		tabs := dv.tables()
		if len(tabs) == 0 {
			return ScanStats{}
		}
		dsp := opt.Trace.Start("delta_scan")
		w := &ws[0]
		base := w.stats
		w.stats = ScanStats{}
		for _, t := range tabs {
			w.arena.ResetPlain()
			vecs, nbytes := deltaColVecs(t, sp.cols, w.arena)
			w.account(prof, t.N, nbytes, int64(8*t.N)*int64(len(t.Cols)))
			w.stats.DeltaRows += int64(t.N)
			w.stats.RowsMatched += sp.fold(w, vecs, t.N, false)
		}
		delta := w.stats
		w.stats = base
		dsp.SetAttr("delta_tables", len(tabs)).SetAttr("delta_rows", delta.DeltaRows)
		dsp.End()
		return delta
	}

	var delta ScanStats
	stopped := 0
	ssp := opt.Trace.Start(scanName)
	if sp.order != nil {
		// Delta rows carry no bound, so they fill the sink before the
		// first block is weighed against it.
		delta = scanDelta()
		blocks := sp.order(candidates)
		for i, b := range blocks {
			if sp.stop(b) {
				stopped = len(blocks) - i
				break
			}
			if err = visit(&ws[0], b); err != nil {
				break
			}
		}
		ssp.SetAttr("topk_shortcircuit", 1).SetAttr("topk_pruned_blocks", stopped)
	} else {
		err = runPool(len(candidates), sp.workers, func(slot, i int) error {
			return visit(&ws[slot], candidates[i])
		})
	}
	if err != nil {
		ssp.End()
		return h, 0, err
	}
	for i := range ws {
		h.ScanStats.merge(ws[i].stats)
	}
	ssp.SetAttr("blocks_scanned", h.BlocksScanned).
		SetAttr("rows_scanned", h.RowsScanned).
		SetAttr("rows_matched", h.RowsMatched).
		SetAttr("bytes_read", h.BytesRead)
	ssp.End()
	if sp.order == nil {
		delta = scanDelta()
	}
	h.ScanStats.merge(delta)
	var crit time.Duration
	for i := range ws {
		crit = max(crit, ws[i].crit)
	}
	h.SimTime = parallelSimTime(h.simTime(prof), crit, sp.workers)
	return h, stopped, nil
}

// readSet is a statement's read set: the sorted distinct columns of the
// filter's predicates and advanced cuts, plus extra. It is never nil (nil
// means "all columns"). A filter column or advanced cut outside the
// schema or the cut table is an error here, before routing or a kernel
// indexes with it.
func readSet(f expr.Query, acs []expr.AdvCut, ncols int, extra ...int) ([]int, error) {
	cols := make([]int, 0, 8)
	for _, p := range f.Preds() {
		if p.Col < 0 || p.Col >= ncols {
			return nil, fmt.Errorf("exec: filter predicate on column %d outside %d-column schema", p.Col, ncols)
		}
		cols = append(cols, p.Col)
	}
	for _, a := range f.AdvRefs() {
		if a < 0 || a >= len(acs) {
			return nil, fmt.Errorf("exec: filter references advanced cut %d but the cut table holds %d", a, len(acs))
		}
		cols = append(cols, acs[a].Left, acs[a].Right)
	}
	cols = append(cols, extra...)
	slices.Sort(cols)
	return slices.Compact(cols), nil
}
