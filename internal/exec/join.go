package exec

// Partitioned hash equi-join over the pruned scan pipeline:
//
//	SELECT t1.a, t2.b FROM t1 JOIN t2 ON t1.k = t2.k
//	  [WHERE ...] [ORDER BY ...] [LIMIT k]
//
// Both sides scan the same store — on a single-table server a join is
// a self-join with the FROM names acting as positional aliases — with
// each side's filter pruned independently through the layout, so join
// traffic exercises the learned layout twice.
//
// Build phase (left side): scan workers filter and late-materialize
// [key, projected...] tuples into private lists, merged after the pool
// drains. The merged build lands in dictionary code space when both
// key columns are categorical over one shared catalog dictionary — a
// dense table indexed by code, no hashing and no decode — and in
// hash-partitioned maps otherwise.
//
// Probe phase (right side): workers look up each surviving probe row's
// key in the (now read-only) build table and feed the assembled output
// tuples into per-worker rowSinks, merged, ordered, and limited like a
// single-table row query. All arithmetic is order-independent, so the
// emitted rows are bit-identical across parallelism, block formats,
// and pruning modes.

import (
	"fmt"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/table"
)

// joinPartitions is the hash-path partition fan-out: enough to split
// the build across a worker pool's cache lines, small enough that tiny
// builds don't drown in empty maps.
const joinPartitions = 16

// maxDenseJoinDom bounds the code-space build table, mirroring the
// dense GROUP BY domain cap in planAgg.
const maxDenseJoinDom = 65536

func hashJoinKey(k int64) uint64 {
	return (uint64(k) * 0x9E3779B97F4A7C15) >> 17
}

// sameDict reports whether two catalog dictionaries are interchangeable
// (same codes mean the same strings), which is what lets the build stay
// in code space: equal codes compare equal exactly when the dictionaries
// agree entry-for-entry.
func sameDict(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// joinPlan is the per-query execution plan shared by all workers.
type joinPlan struct {
	jq expr.JoinQuery
	// leftProj / rightProj are the distinct schema columns each side
	// materializes (in first-appearance order); srcSide/srcIdx map each
	// output position to (side, index within that side's tuple).
	leftProj, rightProj []int
	srcSide, srcIdx     []int
	// scanL / scanR are the column sets projectBlock materializes per
	// side: the key first, then the side's projected columns.
	scanL, scanR []int
	// readL / readR are each side's read set: its filter columns plus
	// scanL / scanR.
	readL, readR []int
	codeSpace    bool
	denseDom     int
}

func planJoin(store *blockstore.Store, jq expr.JoinQuery, acs []expr.AdvCut) (*joinPlan, error) {
	ncols := store.Schema.NumCols()
	if len(jq.Cols) == 0 {
		return nil, fmt.Errorf("exec: join has an empty projection")
	}
	if jq.LeftKey < 0 || jq.LeftKey >= ncols || jq.RightKey < 0 || jq.RightKey >= ncols {
		return nil, fmt.Errorf("exec: join key outside %d-column schema", ncols)
	}
	for _, cr := range jq.Cols {
		if cr.Side < 0 || cr.Side > 1 || cr.Col < 0 || cr.Col >= ncols {
			return nil, fmt.Errorf("exec: projected column {side %d, col %d} invalid", cr.Side, cr.Col)
		}
	}
	for _, k := range jq.OrderBy {
		if k.Pos < 0 || k.Pos >= len(jq.Cols) {
			return nil, fmt.Errorf("exec: ORDER BY position %d outside %d-column projection", k.Pos, len(jq.Cols))
		}
	}
	if jq.Limit < 0 {
		return nil, fmt.Errorf("exec: negative LIMIT %d", jq.Limit)
	}
	pl := &joinPlan{jq: jq}
	leftIdx := make(map[int]int)
	rightIdx := make(map[int]int)
	pl.srcSide = make([]int, len(jq.Cols))
	pl.srcIdx = make([]int, len(jq.Cols))
	for p, cr := range jq.Cols {
		pl.srcSide[p] = cr.Side
		if cr.Side == 0 {
			i, ok := leftIdx[cr.Col]
			if !ok {
				i = len(pl.leftProj)
				leftIdx[cr.Col] = i
				pl.leftProj = append(pl.leftProj, cr.Col)
			}
			pl.srcIdx[p] = i
		} else {
			i, ok := rightIdx[cr.Col]
			if !ok {
				i = len(pl.rightProj)
				rightIdx[cr.Col] = i
				pl.rightProj = append(pl.rightProj, cr.Col)
			}
			pl.srcIdx[p] = i
		}
	}
	pl.scanL = append([]int{jq.LeftKey}, pl.leftProj...)
	pl.scanR = append([]int{jq.RightKey}, pl.rightProj...)
	lc, rc := store.Schema.Cols[jq.LeftKey], store.Schema.Cols[jq.RightKey]
	if lc.Kind == table.Categorical && rc.Kind == table.Categorical &&
		lc.Dom > 0 && lc.Dom == rc.Dom && lc.Dom <= maxDenseJoinDom &&
		sameDict(lc.Dict, rc.Dict) {
		pl.codeSpace = true
		pl.denseDom = int(lc.Dom)
	}
	var err error
	if pl.readL, err = readSet(jq.LeftFilter, acs, ncols, pl.scanL...); err != nil {
		return nil, err
	}
	if pl.readR, err = readSet(jq.RightFilter, acs, ncols, pl.scanR...); err != nil {
		return nil, err
	}
	return pl, nil
}

// buildTable is the read-only lookup structure the probe phase shares:
// dense code-space slots or hash-partitioned maps. Each entry is a
// build tuple [key, leftProj...].
type buildTable struct {
	dense [][][]int64
	parts []map[int64][][]int64
}

func (bt *buildTable) insert(t []int64) {
	k := t[0]
	if bt.dense != nil {
		if k >= 0 && k < int64(len(bt.dense)) {
			bt.dense[k] = append(bt.dense[k], t)
		}
		return
	}
	p := hashJoinKey(k) % joinPartitions
	m := bt.parts[p]
	if m == nil {
		m = make(map[int64][][]int64)
		bt.parts[p] = m
	}
	m[k] = append(m[k], t)
}

func (bt *buildTable) lookup(k int64) [][]int64 {
	if bt.dense != nil {
		if k >= 0 && k < int64(len(bt.dense)) {
			return bt.dense[k]
		}
		return nil
	}
	return bt.parts[hashJoinKey(k)%joinPartitions][k]
}

// RunJoinDelta executes the join over the merged view `delta ∪ base`
// with a pool of scan workers per phase: both join sides see base blocks
// plus every delta table. BlocksTotal and RowsTotal count the universe
// twice — the query's scan universe is left ∪ right — so SkipRate keeps
// its usual meaning. A nil view means no delta.
func RunJoinDelta(store *blockstore.Store, layout *cost.Layout, jq expr.JoinQuery, acs []expr.AdvCut, prof Profile, mode Mode, opt Options, dv *DeltaView) (*RowsResult, error) {
	start := time.Now()
	pl, err := planJoin(store, jq, acs)
	if err != nil {
		return nil, err
	}
	res := &RowsResult{Header: Header{Query: jq.Name}, Cols: append([]expr.ColRef(nil), jq.Cols...)}
	res.Join = &JoinStats{PartitionCount: joinPartitions, CodeSpace: pl.codeSpace}
	if pl.codeSpace {
		res.Join.PartitionCount = 1
	}
	workers := opt.workers()

	// scanSide runs one phase: pruned block scan plus the full delta,
	// with each worker's emit receiving [key, sideProj...] tuples.
	scanSide := func(side string, filter expr.Query, readCols, cols []int, emit []func([]int64)) (Header, error) {
		h, _, err := scan(store, layout, prof, mode, opt, dv, scanSpec{
			filter:  filter,
			cols:    readCols,
			side:    side,
			workers: workers,
			fold: func(w *scanWorker, vecs []*blockstore.ColVec, nrows int, _ bool) int64 {
				return projectBlock(filter.Root, acs, vecs, nrows, cols, w, emit[w.slot])
			},
		})
		return h, err
	}

	// Build: collect per-worker tuple lists, then insert into the
	// shared table once the pool is quiet.
	buildLists := make([][][]int64, workers)
	buildEmit := make([]func([]int64), len(buildLists))
	for i := range buildLists {
		i := i
		buildEmit[i] = func(t []int64) { buildLists[i] = append(buildLists[i], t) }
	}
	left, err := scanSide("build", jq.LeftFilter, pl.readL, pl.scanL, buildEmit)
	if err != nil {
		return nil, err
	}
	bt := &buildTable{}
	if pl.codeSpace {
		bt.dense = make([][][]int64, pl.denseDom)
	} else {
		bt.parts = make([]map[int64][][]int64, joinPartitions)
	}
	for _, list := range buildLists {
		for _, t := range list {
			bt.insert(t)
		}
		res.Join.RowsBuild += int64(len(list))
	}

	// Probe: each worker assembles output tuples into its own sink.
	sinks := make([]*rowSink, workers)
	probeEmit := make([]func([]int64), len(sinks))
	emitted := make([]int64, len(sinks))
	for i := range sinks {
		i := i
		sinks[i] = newRowSink(jq.Limit, jq.OrderBy)
		probeEmit[i] = func(t []int64) {
			for _, m := range bt.lookup(t[0]) {
				out := make([]int64, len(pl.srcSide))
				for p := range out {
					if pl.srcSide[p] == 0 {
						out[p] = m[1+pl.srcIdx[p]]
					} else {
						out[p] = t[1+pl.srcIdx[p]]
					}
				}
				emitted[i]++
				sinks[i].add(out)
			}
		}
	}
	right, err := scanSide("probe", jq.RightFilter, pl.readR, pl.scanR, probeEmit)
	if err != nil {
		return nil, err
	}
	res.Join.RowsProbe = right.RowsMatched

	msp := opt.Trace.Start("merge")
	res.Rows = finishSinks(sinks, jq.OrderBy, jq.Limit)
	res.Left, res.Right = &left.ScanStats, &right.ScanStats
	res.ScanStats.merge(left.ScanStats)
	res.ScanStats.merge(right.ScanStats)
	res.BlocksTotal = left.BlocksTotal + right.BlocksTotal
	res.RowsTotal = left.RowsTotal + right.RowsTotal
	var outRows int64
	for _, e := range emitted {
		outRows += e
	}
	// RowsMatched reports join output rows (pre-LIMIT), not the sum of
	// per-side filter survivors — that is what "the query matched".
	res.RowsMatched = outRows
	msp.SetAttr("rows_build", res.Join.RowsBuild).
		SetAttr("rows_probe", res.Join.RowsProbe).
		SetAttr("rows_returned", len(res.Rows)).
		SetAttr("code_space", pl.codeSpace)
	msp.End()
	res.WallTime = time.Since(start)
	res.SimTime = left.SimTime + right.SimTime // the phases run one after the other
	return res, nil
}
