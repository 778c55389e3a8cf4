// Package delta is the writable half of the LSM-style streaming ingest
// path: an in-memory memtable absorbs Insert traffic, seals into
// append-only delta segment files when full, and the sealed set is folded
// into the learned base layout by compaction: internal/serve, its only
// user, routes the rows into a fresh generation and flips CURRENT.
//
// Until compacted, delta rows are served unpruned: Snapshot returns a
// point-in-time view (sealed segment tables plus the memtable prefix)
// that internal/exec scans through the same vectorized kernels as base
// blocks, so `delta ∪ base` results stay bit-identical to the
// row-at-a-time reference.
//
// Compaction is a two-phase checkpoint: BeginCompaction seals the
// memtable and freezes the sealed set — inserts racing with a compaction
// land in the next memtable — and Complete drops the checkpointed
// segments from the view once the compacted generation is live. A marker
// file (see Marker) makes the segment deletion crash-safe.
package delta

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/table"
)

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("delta: store is closed")

// ErrSchemaMismatch is wrapped by Insert when a row does not fit the
// schema (wrong width, or a categorical code outside the dictionary).
// HTTP ingest maps it to 400.
var ErrSchemaMismatch = errors.New("delta: row does not match the schema")

// DefaultMemtableRows is the memtable seal threshold when Options leaves
// it zero.
const DefaultMemtableRows = 4096

// Options configure Open.
type Options struct {
	// Dir is where sealed segments are persisted (delta_NNNNNN.qdb). An
	// empty Dir keeps the delta memory-only — sealed segments then live
	// on the heap and vanish with the process.
	Dir string
	// MemtableRows seals the memtable into a segment once it reaches
	// this many rows (default DefaultMemtableRows).
	MemtableRows int
}

// Segment is one sealed, immutable run of inserted rows.
type Segment struct {
	ID     int
	Path   string // "" for memory-only stores
	Rows   int
	Oldest time.Time // arrival time of the segment's oldest row

	tbl *table.Table
}

// Store is a writable delta store. It is safe for concurrent use; reads
// (Snapshot, Rows, ...) take a shared lock and never block each other.
type Store struct {
	schema  *table.Schema
	dir     string
	memRows int

	mu        sync.RWMutex
	mem       *table.Table // open memtable; rows [0, mem.N) are immutable
	memOldest time.Time    // arrival of the memtable's first row
	sealed    []*Segment
	nextID    int
	closed    bool

	rowsIngested int64 // lifetime rows accepted by Insert
}

// Open creates or reopens a delta store. With a Dir, segments found on
// disk are validated and adopted; torn or corrupt files (crash
// mid-append) are quarantined and reported as warnings, never as errors.
// Recovered segments report their Oldest as the file's modification
// time — the best durable approximation of arrival.
func Open(schema *table.Schema, opt Options) (*Store, []string, error) {
	if schema == nil {
		return nil, nil, fmt.Errorf("delta: open needs a schema")
	}
	memRows := opt.MemtableRows
	if memRows <= 0 {
		memRows = DefaultMemtableRows
	}
	s := &Store{schema: schema, dir: opt.Dir, memRows: memRows, mem: table.New(schema, memRows)}
	if opt.Dir == "" {
		return s, nil, nil
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	segs, warns, err := blockstore.ScanDeltaSegments(opt.Dir, schema.NumCols())
	if err != nil {
		return nil, nil, err
	}
	for _, ds := range segs {
		tbl, err := blockstore.ReadSegment(ds.Path, schema)
		if err != nil {
			return nil, nil, fmt.Errorf("delta: read segment %s: %w", ds.Path, err)
		}
		oldest := time.Time{}
		if info, err := os.Stat(ds.Path); err == nil {
			oldest = info.ModTime()
		}
		s.sealed = append(s.sealed, &Segment{ID: ds.ID, Path: ds.Path, Rows: tbl.N, Oldest: oldest, tbl: tbl})
	}
	if s.nextID, err = blockstore.NextDeltaSegID(opt.Dir); err != nil {
		return nil, nil, err
	}
	return s, warns, nil
}

// Schema returns the store's schema.
func (s *Store) Schema() *table.Schema { return s.schema }

// checkRow validates one row against the schema: exact width, and
// categorical values must be in-dictionary codes (numeric values are
// unconstrained — block zone maps and re-derived layout bounds absorb
// out-of-range data).
func (s *Store) checkRow(row []int64) error {
	if len(row) != s.schema.NumCols() {
		return fmt.Errorf("%w: row has %d values, schema has %d columns", ErrSchemaMismatch, len(row), s.schema.NumCols())
	}
	for c, col := range s.schema.Cols {
		if col.Kind == table.Categorical && (row[c] < 0 || row[c] >= col.Dom) {
			return fmt.Errorf("%w: column %s code %d outside dictionary [0,%d)", ErrSchemaMismatch, col.Name, row[c], col.Dom)
		}
	}
	return nil
}

// Insert appends rows to the memtable, sealing it into a segment
// whenever it reaches the configured size. The whole batch is validated
// before any row is applied, so a rejected batch leaves the store
// unchanged. Inserted rows are visible to Snapshot immediately.
func (s *Store) Insert(rows [][]int64) error {
	for _, row := range rows {
		if err := s.checkRow(row); err != nil {
			return err
		}
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, row := range rows {
		if s.mem.N == 0 {
			s.memOldest = now
		}
		s.mem.AppendRow(row)
		s.rowsIngested++
		if s.mem.N >= s.memRows {
			if err := s.sealLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealLocked freezes the current memtable into a sealed segment (written
// to disk when the store has a directory) and starts a fresh memtable.
// Callers hold s.mu.
func (s *Store) sealLocked() error {
	if s.mem.N == 0 {
		return nil
	}
	seg := &Segment{ID: s.nextID, Rows: s.mem.N, Oldest: s.memOldest, tbl: s.mem}
	if s.dir != "" {
		seg.Path = filepath.Join(s.dir, blockstore.DeltaSegName(seg.ID))
		if _, err := blockstore.WriteSegment(seg.Path, s.mem, nil); err != nil {
			return fmt.Errorf("delta: seal segment: %w", err)
		}
	}
	s.nextID++
	s.sealed = append(s.sealed, seg)
	s.mem = table.New(s.schema, s.memRows)
	s.memOldest = time.Time{}
	return nil
}

// Flush seals the current memtable (making its rows durable when the
// store has a directory). It is idempotent: flushing an empty memtable,
// or flushing twice, is a no-op.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.sealLocked()
}

// Rows returns the uncompacted row count (sealed segments + memtable).
func (s *Store) Rows() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := s.mem.N
	for _, seg := range s.sealed {
		n += seg.Rows
	}
	return n
}

// Segments returns the sealed, uncompacted segment count.
func (s *Store) Segments() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.sealed)
}

// Bytes returns the logical footprint of the uncompacted delta rows
// (8 bytes per value).
func (s *Store) Bytes() int64 {
	return int64(s.Rows()) * 8 * int64(s.schema.NumCols())
}

// RowsIngested returns the lifetime count of rows accepted by Insert,
// compacted or not — the denominator of write amplification.
func (s *Store) RowsIngested() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rowsIngested
}

// Oldest returns the arrival time of the oldest uncompacted row — the
// data-freshness stat. ok is false when the delta is empty.
func (s *Store) Oldest() (t time.Time, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.oldestLocked()
}

func (s *Store) oldestLocked() (time.Time, bool) {
	if len(s.sealed) > 0 {
		return s.sealed[0].Oldest, true
	}
	if s.mem.N > 0 {
		return s.memOldest, true
	}
	return time.Time{}, false
}

// Snapshot returns a point-in-time view of the uncompacted delta as a
// list of immutable tables, oldest first: every sealed segment, then the
// memtable's current prefix. The view is zero-copy — sealed tables are
// frozen, and the memtable prefix is safe because rows [0, N) are never
// mutated and later appends that grow a column reallocate its backing
// array rather than write in place.
func (s *Store) Snapshot() []*table.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*table.Table, 0, len(s.sealed)+1)
	for _, seg := range s.sealed {
		out = append(out, seg.tbl)
	}
	if n := s.mem.N; n > 0 {
		cols := make([][]int64, len(s.mem.Cols))
		for c := range cols {
			cols[c] = s.mem.Cols[c][:n:n]
		}
		out = append(out, &table.Table{Schema: s.schema, Cols: cols, N: n})
	}
	return out
}

// Checkpoint freezes the delta contents at BeginCompaction time: the
// sealed segments a compaction will fold into the base.
type Checkpoint struct {
	Segs   []*Segment
	Rows   int
	Oldest time.Time // age of the oldest row in the checkpoint
}

// Tables returns the checkpointed rows as immutable tables, oldest first.
func (cp *Checkpoint) Tables() []*table.Table {
	out := make([]*table.Table, len(cp.Segs))
	for i, seg := range cp.Segs {
		out[i] = seg.tbl
	}
	return out
}

// SegIDs returns the checkpointed segment ids.
func (cp *Checkpoint) SegIDs() []int {
	ids := make([]int, len(cp.Segs))
	for i, seg := range cp.Segs {
		ids[i] = seg.ID
	}
	return ids
}

// BeginCompaction seals the memtable and returns a checkpoint of every
// sealed segment. The checkpointed rows keep serving reads (they remain
// in Snapshot) until Complete; inserts arriving during the compaction go
// to the fresh memtable and simply miss this checkpoint — they are
// picked up by the next one.
func (s *Store) BeginCompaction() (*Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.sealLocked(); err != nil {
		return nil, err
	}
	cp := &Checkpoint{Segs: append([]*Segment(nil), s.sealed...)}
	for _, seg := range cp.Segs {
		cp.Rows += seg.Rows
	}
	if len(cp.Segs) > 0 {
		cp.Oldest = cp.Segs[0].Oldest
	}
	return cp, nil
}

// Complete drops a checkpoint's segments from the served view — called
// under the caller's swap lock once the compacted generation is live, so
// a query sees either (old base + full delta) or (new base + remaining
// delta), never both copies of a row. It returns the segment file paths
// now eligible for deletion; the caller deletes them after clearing its
// compaction marker (see Marker).
func (s *Store) Complete(cp *Checkpoint) (paths []string) {
	done := make(map[int]bool, len(cp.Segs))
	for _, seg := range cp.Segs {
		done[seg.ID] = true
		if seg.Path != "" {
			paths = append(paths, seg.Path)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keep := s.sealed[:0]
	for _, seg := range s.sealed {
		if !done[seg.ID] {
			keep = append(keep, seg)
		}
	}
	s.sealed = keep
	return paths
}

// Close seals the memtable (persisting any buffered rows) and marks the
// store closed. Further Inserts return ErrClosed. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.sealLocked()
	s.closed = true
	return err
}
