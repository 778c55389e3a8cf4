// Package exec is the scan-oriented query execution engine used to turn
// logical skipping into "physical" runtimes (Sec. 7.4.1, 7.5.1). It reads
// candidate blocks from a blockstore, evaluates the query's filter over
// them, and accounts rows/bytes/blocks plus a deterministic simulated time
// under an engine profile.
//
// Two profiles model the paper's engines:
//
//   - EngineSpark: row-group scanning over Parquet-like files — every
//     referenced block is charged in full (all columns).
//   - EngineDBMS: a columnar DBMS — only the columns the query touches are
//     charged (late materialization), with a lower per-row CPU cost.
//
// A profile is a price, not a read path: under both, the scan reads only
// the statement's columns, and Profile.price charges each scanned unit.
// Simulated time is seek + bytes/bandwidth + rows×CPU, the same mechanism
// that drives the paper's wall-clock results; absolute seconds are not
// comparable to the paper's cluster, but layout orderings and ratios are.
// ByteCost charges encoded (on-disk) bytes — for block format v2 stores,
// compressed columns — while RowCost charges logical rows, so compression
// shows up as modeled scan speedup.
//
// # Vectorized filters over encoded columns
//
// Filters evaluate directly over each block's encoded columns
// (blockstore.ColVec) in batches of 1024 rows with selection bitmaps; see
// vector.go. Equality against dictionary-encoded columns compares packed
// codes without decoding, and AND skips a batch's remaining columns once
// its selection empties (late materialization). Counts are bit-identical
// to decoded row-at-a-time evaluation.
//
// # Parallel scans
//
// Candidate blocks are dispatched over a channel to a pool of scan workers
// (Options.Parallelism). Each worker accumulates its own ScanStats, merged
// once at the end, so the hot loop shares no state. Counters are exact sums
// over a fixed candidate set and therefore bit-identical to a sequential
// scan regardless of how the scheduler interleaved workers.
//
// # Deterministic parallel time accounting
//
// A parallel scan must report the same SimTime on every run, independent of
// actual goroutine scheduling. Instead of timing workers, the engine keeps
// two order-independent reductions over the deterministic per-block cost
// c(b) = SeekCost + bytes(b)·ByteCost + rows(b)·RowCost:
//
//	total = Σ c(b)   — the single-stream work
//	crit  = max c(b) — the critical path (one block is scanned by
//	                   exactly one worker)
//
// and models N workers as
//
//	SimTime(N) = max(total/N, crit)
//
// total/N is the throughput bound — I/O- and CPU-bound work divides evenly
// across the pool in the limit — and crit is the latency bound. For N=1
// the model degenerates to the exact sequential formula, so engine-profile
// orderings (Spark vs DBMS, qd-tree vs baseline) are preserved at every
// parallelism level.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/cost"
	"repro/internal/expr"
	"repro/internal/obs"
)

// Profile models one execution engine.
type Profile struct {
	Name     string
	Columnar bool          // charge only the referenced columns (see price)
	SeekCost time.Duration // per block touched
	ByteCost time.Duration // per byte read (I/O)
	RowCost  time.Duration // per row filtered (CPU)
}

// EngineSpark approximates the distributed-Spark-over-Parquet setup of
// Fig. 5a: whole blocks charged (row groups), per-block open overhead
// (remote blob store), moderate CPU cost. SeekCost is calibrated so
// that, at this repo's benchmark block sizes (10²–10³ rows vs the
// paper's 10⁵–10⁶), the seek:scan cost ratio matches the paper's testbed
// (~1–2% of a block read); with the paper's 8ms-per-54MB-block overheads
// applied to tiny blocks, seek time would swamp scan time and invert
// every comparison.
var EngineSpark = Profile{
	Name:     "spark",
	Columnar: false,
	SeekCost: 50 * time.Microsecond,
	ByteCost: 10 * time.Nanosecond, // ~100 MB/s effective scan bandwidth
	RowCost:  25 * time.Nanosecond,
}

// EngineDBMS approximates the single-node commercial columnar DBMS of
// Fig. 5b: only the referenced columns charged, from local SSD, low
// per-block overhead (same block-size calibration note as EngineSpark).
var EngineDBMS = Profile{
	Name:     "dbms",
	Columnar: true,
	SeekCost: 5 * time.Microsecond,
	ByteCost: 2 * time.Nanosecond, // ~500 MB/s
	RowCost:  10 * time.Nanosecond,
}

// ScanStats are the physical counters of one or more block scans. They are
// exact sums over the scanned blocks, so a parallel scan reports counts
// bit-identical to a sequential scan of the same candidate set.
type ScanStats struct {
	BlocksScanned int
	RowsScanned   int64
	RowsMatched   int64
	// BytesRead is the encoded (on-disk) I/O volume the profile charges,
	// the quantity Profile.ByteCost prices (see Profile.price): the bytes
	// of the scanned columns under a columnar profile, of every column
	// under the Spark profile.
	BytesRead int64
	// DeltaRows is the share of RowsScanned that came from the streaming
	// ingest delta (scanned unpruned; see delta.go). Zero for scans
	// without a delta view.
	DeltaRows int64
}

func (s *ScanStats) merge(o ScanStats) {
	s.BlocksScanned += o.BlocksScanned
	s.RowsScanned += o.RowsScanned
	s.RowsMatched += o.RowsMatched
	s.BytesRead += o.BytesRead
	s.DeltaRows += o.DeltaRows
}

// simTime is the deterministic single-stream cost of the counted work.
func (s ScanStats) simTime(prof Profile) time.Duration {
	_, t := prof.price(s.BlocksScanned, s.RowsScanned, s.BytesRead, s.BytesRead)
	return t
}

// price is the profile's cost model, its one reading of Columnar: the
// bytes it charges for scanning units (blocks or delta tables) of nrows
// rows, and their modeled time — a seek per unit, the charged bytes, one
// filter pass over the rows. read is what the scan read of the units;
// whole is their full size over every column, what a row-group engine
// pays for the same scan.
func (p Profile) price(units int, nrows, read, whole int64) (int64, time.Duration) {
	nbytes := whole
	if p.Columnar {
		nbytes = read
	}
	return nbytes, time.Duration(units)*p.SeekCost +
		time.Duration(nbytes)*p.ByteCost +
		time.Duration(nrows)*p.RowCost
}

// Header is the part of every execution result that does not depend on
// what was computed over the surviving rows: which query ran, what the
// scan physically touched, and the universe it is measured against.
// Result, AggResult, AggPartialResult and RowsResult all embed it. The
// JSON names are the shard wire format of AggPartialResult.
type Header struct {
	Query string `json:"query"`
	ScanStats
	// BlocksTotal / RowsTotal are the store's non-empty block universe —
	// the denominator of the query's skip rate, surfaced so serving layers
	// can log per-query layout effectiveness without holding the store.
	BlocksTotal int           `json:"blocks_total"`
	RowsTotal   int64         `json:"rows_total"`
	SimTime     time.Duration `json:"-"`            // deterministic cost-model time (see package doc)
	WallTime    time.Duration `json:"wall_time_ns"` // measured wall clock of the execution
}

// SkipRate is the fraction of the store's rows the query skipped
// (1 = touched nothing, 0 = full scan) — the per-query form of the
// paper's accessed-percentage metric, recorded by the serving workload
// log to detect layout decay. An empty store reports 1 (the query
// touched nothing), never a divide-by-zero — a zero here would read as
// "full scan" and trip drift monitors on stores with no data.
func (h Header) SkipRate() float64 {
	if h.RowsTotal == 0 {
		return 1
	}
	return 1 - float64(h.RowsScanned)/float64(h.RowsTotal)
}

// Merge folds the header of another part of the same gathered execution
// into h: counters and totals sum (the parts partition the row
// universe), SimTime/WallTime take the maximum (the parts ran
// concurrently, so the critical path is the slowest one).
func (h *Header) Merge(o Header) {
	h.ScanStats.merge(o.ScanStats)
	h.BlocksTotal += o.BlocksTotal
	h.RowsTotal += o.RowsTotal
	h.SimTime = max(h.SimTime, o.SimTime)
	h.WallTime = max(h.WallTime, o.WallTime)
}

// Result reports one filter-count execution.
type Result struct {
	Header
}

// Mode selects how the layout's block index prunes candidate blocks.
// Both modes evaluate the same index, so they share its column arrays.
type Mode int

const (
	// RouteQdTree uses the layout's full semantic descriptions plus any
	// ExtraSkip — the "qd-tree routing" path that adds BID IN (...)
	// (Sec. 3.3). Its prunes are reported by "route".
	RouteQdTree Mode = iota
	// NoRoute uses only the descriptions' per-block min-max intervals
	// (SMA / zone maps; Layout.MinMaxBlocksFor) — the paper's "no route"
	// configuration where the engine's default partition pruning is the
	// only skipping. Its prunes are reported by "sma".
	NoRoute
)

// Options tune how a scan executes. They change scheduling only: the
// ScanStats of a scan are identical for every Options value.
type Options struct {
	// Parallelism is the scan worker pool size. 1 scans on the calling
	// goroutine; 0 or negative selects GOMAXPROCS.
	Parallelism int
	// Trace, when non-nil, receives per-stage spans (block_prune, scan,
	// delta_scan, merge) with pruning-cause attributes for this
	// execution. Tracing never changes ScanStats; a nil Trace costs
	// nothing on the hot path.
	Trace *obs.Trace
}

func (o Options) workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// parallelSimTime reduces total work and critical-path cost to the modeled
// makespan of a pool of the given size (see package doc).
func parallelSimTime(total, crit time.Duration, workers int) time.Duration {
	if workers <= 1 {
		return total
	}
	t := total / time.Duration(workers)
	if crit > t {
		return crit
	}
	return t
}

// candidateBlocks selects the blocks query q must scan: the layout's
// block index evaluated under mode. With a recorder it counts every
// non-empty block left out as a prune of mode's stage and explains the
// first maxPruneDetail of them. Every worker count scans the exact same
// block set.
func candidateBlocks(store *blockstore.Store, layout *cost.Layout, q expr.Query, mode Mode, rec *pruneRecorder) ([]int, error) {
	var candidates []int
	by := "route"
	switch mode {
	case RouteQdTree:
		candidates = layout.BlocksFor(q)
	case NoRoute:
		candidates, by = layout.MinMaxBlocksFor(q), "sma"
	default:
		return nil, fmt.Errorf("exec: unknown mode %d", mode)
	}
	for _, b := range candidates {
		if b < 0 || b >= len(store.Blocks) {
			return nil, fmt.Errorf("exec: candidate block %d outside store of %d blocks", b, len(store.Blocks))
		}
	}
	if rec != nil {
		rec.explainPrunes(store.Schema, layout, q, candidates, by)
	}
	return candidates, nil
}

// runPool distributes tasks 0..n-1 over a pool of workers. fn receives the
// worker slot (for contention-free per-worker accumulators) and the task
// index. The first error stops useful work; remaining tasks are drained.
func runPool(n, workers int, fn func(worker, task int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	tasks := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := range tasks {
				mu.Lock()
				failed := firstErr != nil
				mu.Unlock()
				if failed {
					continue
				}
				if err := fn(slot, i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}(k)
	}
	for i := 0; i < n; i++ {
		tasks <- i
	}
	close(tasks)
	wg.Wait()
	return firstErr
}

// RunDelta counts the rows matching q over the merged view `delta ∪
// base` with a pool of opt.Parallelism scan workers: base blocks are
// pruned through the layout, then every table of the delta view is
// scanned in full (see scan.go and delta.go). ScanStats are identical
// for every Options value; SimTime follows the deterministic parallel
// model of the package doc. A nil view means no delta.
func RunDelta(store *blockstore.Store, layout *cost.Layout, q expr.Query, acs []expr.AdvCut, prof Profile, mode Mode, opt Options, dv *DeltaView) (Result, error) {
	start := time.Now()
	cols, err := readSet(q, acs, store.Schema.NumCols())
	if err != nil {
		return Result{}, err
	}
	h, _, err := scan(store, layout, prof, mode, opt, dv, scanSpec{
		filter:  q,
		cols:    cols,
		workers: opt.workers(),
		fold: func(w *scanWorker, vecs []*blockstore.ColVec, nrows int, _ bool) int64 {
			return int64(countMatchesVec(q, acs, vecs, nrows, w.scratch))
		},
	})
	h.Query = q.Name
	h.WallTime = time.Since(start)
	return Result{Header: h}, err
}
