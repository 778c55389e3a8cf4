// Package blockstore persists layout blocks in a binary columnar format
// with per-block min-max (SMA) metadata — the storage substrate standing
// in for the paper's Parquet files / commercial columnar format (Sec. 7.1).
// Each leaf (or baseline block) becomes one file; a JSON catalog records
// block metadata so a store can be reopened without scanning.
//
// # Block formats
//
// Two on-disk formats coexist:
//
//   - Format v1 ("QDB1"): plain fixed-width int64 columns. The original
//     format; still written on request and always readable.
//   - Format v2 ("QDB2", the default for new writes): each column is
//     stored in the cheapest of four encodings chosen at write time
//     (PLAIN, FOR bit-packing, DICT-code bit-packing, RLE — see
//     encoding.go), behind a per-block column directory. The catalog
//     (version 2) records every column's encoding and encoded size, so
//     readers position-read exactly the bytes they need and cost models
//     can compare encoded against logical footprints.
//
// Open detects the catalog version and serves either format through the
// same Store API: ReadColVecs hands encoded columns to the vectorized
// filter kernels, ReadColumns decodes to plain int64 slices.
package blockstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/table"
)

const (
	magicV1 = "QDB1"
	magicV2 = "QDB2"
)

// Store format versions, persisted as the catalog "version" field.
const (
	FormatV1 = 1
	FormatV2 = 2
)

// WriteOptions tune how a store is materialized.
type WriteOptions struct {
	// FormatVersion selects the on-disk block format: FormatV2 (the
	// default, selected by 0) writes per-column encodings; FormatV1 writes
	// the legacy plain fixed-width layout.
	FormatVersion int
	// PlainOnly keeps the v2 container but forces every column to the
	// PLAIN encoding — useful for isolating encoding effects in benchmarks.
	PlainOnly bool
}

func (o WriteOptions) version() int {
	if o.FormatVersion == 0 {
		return FormatV2
	}
	return o.FormatVersion
}

// ColMeta is the catalog entry for one encoded column of one block
// (format v2 only; v1 catalogs carry no per-column entries).
type ColMeta struct {
	Enc   Encoding `json:"enc"`
	Bytes int64    `json:"bytes"` // encoded payload size on disk
}

// BlockMeta is the catalog entry for one block.
type BlockMeta struct {
	ID    int     `json:"id"`
	Rows  int     `json:"rows"`
	File  string  `json:"file"`
	Bytes int64   `json:"bytes"`
	Min   []int64 `json:"min"`
	Max   []int64 `json:"max"`
	// Cols describes each column's encoding and encoded size (v2 only).
	Cols []ColMeta `json:"cols,omitempty"`
}

// Store is an opened block directory. Reads are safe for concurrent use:
// each block file is opened lazily on first access, header-validated once,
// and the handle is kept until Close and shared by all subsequent readers,
// which use positioned reads (ReadAt / pread) and never seek. The handles
// of every Store in the process draw on one budget (see handleBudget).
type Store struct {
	Dir    string
	Schema *table.Schema
	Blocks []BlockMeta
	// Format is the block format version (FormatV1 or FormatV2). The zero
	// value reads as v1 for compatibility with directly constructed stores.
	Format int

	once  sync.Once
	files []blockHandle // lazily-opened, validated per-block handles

	totalsOnce  sync.Once
	totalBlocks int
	totalRows   int64
}

// blockHandle caches one block's open file. The pointer is read lock-free
// on the hot path; the mutex serializes only the first open of this block
// (and Close), so concurrent opens of distinct blocks do not contend.
type blockHandle struct {
	mu sync.Mutex
	f  atomic.Pointer[os.File]
}

// handleBudget caps the block handles all Stores of the process hold
// open at once: half the soft RLIMIT_NOFILE, leaving the other half to
// sockets, delta segments and everything else. Go raises the soft limit
// to the hard one at start-up, so this is read after that. Reads of
// blocks past the budget use a transient handle each.
var handleBudget = fdBudget()

// openHandles counts the block handles cached across all Stores; it never
// exceeds handleBudget. Close gives a store's handles back. A Store
// dropped without Close keeps its share until the process exits.
var openHandles atomic.Int64

type catalogJSON struct {
	Version int         `json:"version"`
	Columns []catCol    `json:"columns"`
	Blocks  []BlockMeta `json:"blocks"`
}

type catCol struct {
	Name string   `json:"name"`
	Kind int      `json:"kind"`
	Dom  int64    `json:"dom,omitempty"`
	Min  int64    `json:"min,omitempty"`
	Max  int64    `json:"max,omitempty"`
	Dict []string `json:"dict,omitempty"` // categorical dictionary, so reopened stores parse string literals
}

// Write materializes a partitioned table in the default format (v2): rows
// are grouped by block ID and each block is written as one columnar file
// with per-column encodings. Empty blocks get no file.
func Write(dir string, tbl *table.Table, bids []int, numBlocks int) (*Store, error) {
	return WriteOpts(dir, tbl, bids, numBlocks, WriteOptions{})
}

// WriteOpts is Write with explicit format options.
func WriteOpts(dir string, tbl *table.Table, bids []int, numBlocks int, opt WriteOptions) (*Store, error) {
	version := opt.version()
	if version != FormatV1 && version != FormatV2 {
		return nil, fmt.Errorf("blockstore: unsupported write format version %d", version)
	}
	if len(bids) != tbl.N {
		return nil, fmt.Errorf("blockstore: %d assignments for %d rows", len(bids), tbl.N)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	perBlock := make([][]int, numBlocks)
	for r, b := range bids {
		if b < 0 || b >= numBlocks {
			return nil, fmt.Errorf("blockstore: row %d assigned to out-of-range block %d", r, b)
		}
		perBlock[b] = append(perBlock[b], r)
	}
	st := &Store{Dir: dir, Schema: tbl.Schema, Format: version}
	for b, rows := range perBlock {
		meta := BlockMeta{ID: b, Rows: len(rows)}
		if len(rows) > 0 {
			meta.File = fmt.Sprintf("block_%06d.qdb", b)
			path := filepath.Join(dir, meta.File)
			var err error
			if version == FormatV2 {
				meta.Bytes, meta.Min, meta.Max, meta.Cols, err = writeBlockV2(path, tbl, rows, opt.PlainOnly)
			} else {
				meta.Bytes, meta.Min, meta.Max, err = writeBlockV1(path, tbl, rows)
			}
			if err != nil {
				return nil, err
			}
		}
		st.Blocks = append(st.Blocks, meta)
	}
	if err := removeStaleBlockFiles(dir, st.Blocks); err != nil {
		return nil, err
	}
	if err := st.writeCatalog(); err != nil {
		return nil, err
	}
	return st, nil
}

// removeStaleBlockFiles deletes block files a previous layout left in the
// directory that the new catalog does not describe — rewriting a store in
// place must round-trip through Open's file validation.
func removeStaleBlockFiles(dir string, blocks []BlockMeta) error {
	live := make(map[string]bool, len(blocks))
	for _, m := range blocks {
		if m.Rows > 0 {
			live[m.File] = true
		}
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "block_*.qdb"))
	if err != nil {
		return err
	}
	for _, path := range onDisk {
		if !live[filepath.Base(path)] {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("blockstore: remove stale block file %s: %w", path, err)
			}
		}
	}
	return nil
}

func writeBlockV1(path string, tbl *table.Table, rows []int) (int64, []int64, []int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, nil, nil, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<16)
	ncols := tbl.Schema.NumCols()
	if _, err := w.WriteString(magicV1); err != nil {
		return 0, nil, nil, err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ncols))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(rows)))
	if _, err := w.Write(hdr); err != nil {
		return 0, nil, nil, err
	}
	mins := make([]int64, ncols)
	maxs := make([]int64, ncols)
	buf := make([]byte, 8)
	for c := 0; c < ncols; c++ {
		lo, hi, _ := tbl.MinMax(c, rows)
		mins[c], maxs[c] = lo, hi
		binary.LittleEndian.PutUint64(buf, uint64(lo))
		if _, err := w.Write(buf); err != nil {
			return 0, nil, nil, err
		}
		binary.LittleEndian.PutUint64(buf, uint64(hi))
		if _, err := w.Write(buf); err != nil {
			return 0, nil, nil, err
		}
	}
	for c := 0; c < ncols; c++ {
		col := tbl.Cols[c]
		for _, r := range rows {
			binary.LittleEndian.PutUint64(buf, uint64(col[r]))
			if _, err := w.Write(buf); err != nil {
				return 0, nil, nil, err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return 0, nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		return 0, nil, nil, err
	}
	return info.Size(), mins, maxs, nil
}

// v2HeaderSize is the fixed block header: magic + shape + per-column
// min/max + per-column directory entry (encoding byte + payload size).
func v2HeaderSize(ncols int) int64 { return int64(12 + (16+9)*ncols) }

// writeBlockV2 writes one block in format v2: header, per-column min/max,
// a column directory (encoding + payload bytes), then the concatenated
// encoded payloads.
func writeBlockV2(path string, tbl *table.Table, rows []int, plainOnly bool) (int64, []int64, []int64, []ColMeta, error) {
	ncols := tbl.Schema.NumCols()
	mins := make([]int64, ncols)
	maxs := make([]int64, ncols)
	metas := make([]ColMeta, ncols)
	payloads := make([][]byte, ncols)
	vals := make([]int64, len(rows))
	for c := 0; c < ncols; c++ {
		col := tbl.Cols[c]
		for i, r := range rows {
			vals[i] = col[r]
		}
		lo, hi, _ := tbl.MinMax(c, rows)
		mins[c], maxs[c] = lo, hi
		var enc Encoding
		var payload []byte
		if plainOnly {
			payload = make([]byte, 8*len(vals))
			for i, v := range vals {
				binary.LittleEndian.PutUint64(payload[8*i:], uint64(v))
			}
		} else {
			enc, payload = encodeColumn(vals, tbl.Schema.Cols[c].Kind)
		}
		metas[c] = ColMeta{Enc: enc, Bytes: int64(len(payload))}
		payloads[c] = payload
	}

	f, err := os.Create(path)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<16)
	if _, err := w.WriteString(magicV2); err != nil {
		return 0, nil, nil, nil, err
	}
	hdr := make([]byte, 8)
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ncols))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(rows)))
	if _, err := w.Write(hdr); err != nil {
		return 0, nil, nil, nil, err
	}
	buf := make([]byte, 16)
	for c := 0; c < ncols; c++ {
		binary.LittleEndian.PutUint64(buf[0:8], uint64(mins[c]))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(maxs[c]))
		if _, err := w.Write(buf); err != nil {
			return 0, nil, nil, nil, err
		}
	}
	for c := 0; c < ncols; c++ {
		buf[0] = byte(metas[c].Enc)
		binary.LittleEndian.PutUint64(buf[1:9], uint64(metas[c].Bytes))
		if _, err := w.Write(buf[:9]); err != nil {
			return 0, nil, nil, nil, err
		}
	}
	for c := 0; c < ncols; c++ {
		if _, err := w.Write(payloads[c]); err != nil {
			return 0, nil, nil, nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return 0, nil, nil, nil, err
	}
	info, err := f.Stat()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	return info.Size(), mins, maxs, metas, nil
}

func (s *Store) writeCatalog() error {
	version := s.Format
	if version == 0 {
		version = FormatV1
	}
	cat := catalogJSON{Version: version, Blocks: s.Blocks}
	for _, c := range s.Schema.Cols {
		cat.Columns = append(cat.Columns, catCol{Name: c.Name, Kind: int(c.Kind), Dom: c.Dom, Min: c.Min, Max: c.Max, Dict: c.Dict})
	}
	data, err := json.Marshal(cat)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(s.Dir, "catalog.json"), data, 0o644)
}

// Open reopens a store from its catalog (format v1 or v2). The catalog is
// validated against the block files actually present in the directory: a
// non-empty block whose file is missing, or a block file the catalog does
// not describe, fails with an error naming the discrepancy — a
// half-deleted or stale generation directory must not open as a smaller
// store and silently drop rows. For the same reason a directory holding
// delta segments (delta_*.qdb) fails: delta segments live in a serving
// root's own delta directory, never beside blocks, so segments here hold
// rows no block has and that nothing would serve. Open only reads.
func Open(dir string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return nil, fmt.Errorf("blockstore: open catalog: %w", err)
	}
	var cat catalogJSON
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, fmt.Errorf("blockstore: decode catalog: %w", err)
	}
	if cat.Version != FormatV1 && cat.Version != FormatV2 {
		return nil, fmt.Errorf("blockstore: unsupported catalog version %d", cat.Version)
	}
	if err := validateBlockFiles(dir, cat.Blocks); err != nil {
		return nil, err
	}
	cols := make([]table.Column, len(cat.Columns))
	for i, c := range cat.Columns {
		cols[i] = table.Column{Name: c.Name, Kind: table.Kind(c.Kind), Dom: c.Dom, Min: c.Min, Max: c.Max, Dict: c.Dict}
	}
	schema, err := table.NewSchema(cols)
	if err != nil {
		return nil, err
	}
	if cat.Version == FormatV2 {
		for _, m := range cat.Blocks {
			if m.Rows > 0 && len(m.Cols) != len(cols) {
				return nil, fmt.Errorf("blockstore: v2 catalog block %d describes %d columns, schema has %d", m.ID, len(m.Cols), len(cols))
			}
		}
	}
	return &Store{Dir: dir, Schema: schema, Blocks: cat.Blocks, Format: cat.Version}, nil
}

// validateBlockFiles cross-checks the catalog's block list against the
// block_*.qdb files on disk, in both directions, and refuses any delta
// segment file.
func validateBlockFiles(dir string, blocks []BlockMeta) error {
	expected := make(map[string]int, len(blocks))
	for _, m := range blocks {
		if m.Rows == 0 {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, m.File)); err != nil {
			return fmt.Errorf("blockstore: catalog of %s lists block %d (%d rows) but its file %s is missing: %w",
				dir, m.ID, m.Rows, m.File, err)
		}
		expected[m.File] = m.ID
	}
	segs, err := filepath.Glob(filepath.Join(dir, DeltaSegPrefix+"*"+DeltaSegSuffix))
	if err != nil {
		return err
	}
	if len(segs) > 0 {
		return fmt.Errorf("blockstore: %s holds delta segment %s beside its blocks; its rows are in no block, so the directory does not open as a block store",
			dir, filepath.Base(segs[0]))
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "block_*.qdb"))
	if err != nil {
		return err
	}
	for _, path := range onDisk {
		name := filepath.Base(path)
		if _, ok := expected[name]; !ok {
			return fmt.Errorf("blockstore: %s holds block file %s that the catalog (%d blocks) does not describe — stale or mixed generation directory",
				dir, name, len(blocks))
		}
	}
	return nil
}

// NumBlocks returns the block count (including empty blocks).
func (s *Store) NumBlocks() int { return len(s.Blocks) }

// Totals returns how many blocks hold rows and how many rows they hold.
// It counts them on its first call: Blocks must not change after that.
func (s *Store) Totals() (blocks int, rows int64) {
	s.totalsOnce.Do(func() {
		for i := range s.Blocks {
			if n := s.Blocks[i].Rows; n > 0 {
				s.totalBlocks++
				s.totalRows += int64(n)
			}
		}
	})
	return s.totalBlocks, s.totalRows
}

// isV2 reports whether the store reads format v2 blocks.
func (s *Store) isV2() bool { return s.Format >= FormatV2 }

// magic returns the block-file magic the store's format requires.
func (s *Store) magic() string {
	if s.isV2() {
		return magicV2
	}
	return magicV1
}

// openValidated opens block b's file and validates its length against
// the catalog (when the catalog records one) and its header, returning
// the handle and the block's (ncols, nrows) shape. A file cut short or
// grown fails here, so no read of any of its columns answers from it.
func (s *Store) openValidated(b int) (*os.File, int, int, error) {
	m := s.Blocks[b]
	f, err := os.Open(filepath.Join(s.Dir, m.File))
	if err != nil {
		return nil, 0, 0, err
	}
	if m.Bytes != 0 {
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, 0, fmt.Errorf("blockstore: block %d stat: %w", b, err)
		}
		if fi.Size() != m.Bytes {
			f.Close()
			return nil, 0, 0, fmt.Errorf("blockstore: block %d file %s holds %d bytes, catalog records %d", b, m.File, fi.Size(), m.Bytes)
		}
	}
	hdr := make([]byte, 12)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, 0, 0, fmt.Errorf("blockstore: block %d header: %w", b, err)
	}
	if string(hdr[:4]) != s.magic() {
		f.Close()
		return nil, 0, 0, fmt.Errorf("blockstore: block %d bad magic %q (want %q)", b, hdr[:4], s.magic())
	}
	ncols := int(binary.LittleEndian.Uint32(hdr[4:8]))
	nrows := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if ncols != s.Schema.NumCols() || nrows != m.Rows {
		f.Close()
		return nil, 0, 0, fmt.Errorf("blockstore: block %d shape mismatch (%d cols, %d rows)", b, ncols, nrows)
	}
	return f, ncols, nrows, nil
}

// readerAt returns a header-validated io.ReaderAt over block b's file, its
// (ncols, nrows) shape, and a release func the caller must invoke when the
// read is done. The reader is nil for empty blocks. Each block's handle is
// opened and validated once, then kept until Close and shared by every
// caller — concurrent scan workers included, since ReadAt issues
// positioned reads (pread) without touching a shared file offset. Once
// the process-wide handleBudget is spent, reads fall back to a transient
// handle, validated afresh, that release closes.
func (s *Store) readerAt(b int) (io.ReaderAt, int, int, func(), error) {
	noop := func() {}
	if b < 0 || b >= len(s.Blocks) {
		return nil, 0, 0, noop, fmt.Errorf("blockstore: block %d out of range", b)
	}
	m := s.Blocks[b]
	if m.Rows == 0 {
		return nil, 0, 0, noop, nil
	}
	s.once.Do(func() { s.files = make([]blockHandle, len(s.Blocks)) })
	h := &s.files[b]
	if f := h.f.Load(); f != nil {
		return f, s.Schema.NumCols(), m.Rows, noop, nil
	}
	transient := func() (io.ReaderAt, int, int, func(), error) {
		f, ncols, nrows, err := s.openValidated(b)
		if err != nil {
			return nil, 0, 0, noop, err
		}
		return f, ncols, nrows, func() { f.Close() }, nil
	}
	if openHandles.Load() >= handleBudget {
		return transient()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if f := h.f.Load(); f != nil {
		return f, s.Schema.NumCols(), m.Rows, noop, nil
	}
	// Reserve a slot before opening; the atomic add is the authoritative
	// budget check, so concurrent first opens across all stores can never
	// leave more than handleBudget handles cached.
	if openHandles.Add(1) > handleBudget {
		openHandles.Add(-1)
		return transient()
	}
	f, ncols, nrows, err := s.openValidated(b)
	if err != nil {
		openHandles.Add(-1)
		return nil, 0, 0, noop, err
	}
	h.f.Store(f)
	return f, ncols, nrows, noop, nil
}

// Close releases every cached block handle and gives it back to the
// budget. The store remains usable; subsequent reads reopen files on
// demand.
func (s *Store) Close() error {
	var first error
	for i := range s.files {
		h := &s.files[i]
		h.mu.Lock()
		if f := h.f.Load(); f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			h.f.Store(nil)
			openHandles.Add(-1)
		}
		h.mu.Unlock()
	}
	return first
}

// errColRange reports a column index outside the schema.
func errColRange(c int) error {
	return fmt.Errorf("blockstore: column %d out of range", c)
}

// ReadColVecs reads the given columns of block b (all when cols is nil) in
// their on-disk encoding, ready for the vectorized filter kernels.
// Unrequested columns are nil entries. bytesRead is the encoded I/O volume
// — for a v2 store this is what the column actually occupies on disk, the
// quantity engine profiles charge ByteCost against. The returned vectors
// are freshly allocated and safe to retain; hot paths should prefer
// ReadColVecsArena.
func (s *Store) ReadColVecs(b int, cols []int) (vecs []*ColVec, rows int, bytesRead int64, err error) {
	// A one-shot arena keeps a single read path; its storage simply dies
	// with this call instead of being reused.
	return s.ReadColVecsArena(b, cols, nil)
}

// ReadColVecsArena is ReadColVecs backed by caller-owned arena scratch:
// payload bytes, ColVec headers, and RLE run slices all come from ar, so
// a steady-state scan reads blocks without allocating. Runs of adjacent
// wanted columns are coalesced into one positioned read each — a
// full-width scan costs one pread per block instead of one per column. bytesRead still charges only wanted columns (gaps between
// wanted runs are neither read nor charged, identical to the per-column
// path). The returned vectors and everything they reference are valid
// only until the next ReadColVecsArena call on the same arena.
func (s *Store) ReadColVecsArena(b int, cols []int, ar *Arena) (vecs []*ColVec, rows int, bytesRead int64, err error) {
	f, ncols, nrows, release, err := s.readerAt(b)
	if err != nil || f == nil {
		return nil, 0, 0, err
	}
	defer release()
	if ar == nil {
		ar = new(Arena)
	}
	want, err := ar.wantCols(cols, ncols)
	if err != nil {
		return nil, 0, 0, err
	}
	vecs = ar.ptrs[:ncols]
	for c := range vecs {
		vecs[c] = nil
	}
	if !s.isV2() {
		// v1: fixed 8-byte columns laid out contiguously after the
		// header + per-column min/max.
		base := int64(12 + 16*ncols)
		colBytes := int64(8 * nrows)
		total := int64(0)
		for c := 0; c < ncols; c++ {
			if want[c] {
				total += colBytes
			}
		}
		payload := ar.buffer(total)
		pos := 0
		for c := 0; c < ncols; {
			if !want[c] {
				c++
				continue
			}
			r := c
			for r < ncols && want[r] {
				r++
			}
			span := int(colBytes) * (r - c)
			if _, err := f.ReadAt(payload[pos:pos+span], base+int64(c)*colBytes); err != nil {
				return nil, 0, 0, fmt.Errorf("blockstore: block %d col %d: %w", b, c, err)
			}
			for ; c < r; c++ {
				ar.vecs[c] = ColVec{Enc: EncPlain, N: nrows, raw: payload[pos : pos+int(colBytes)]}
				vecs[c] = &ar.vecs[c]
				pos += int(colBytes)
				bytesRead += colBytes
			}
		}
		return vecs, nrows, bytesRead, nil
	}
	metas := s.Blocks[b].Cols
	if len(metas) != ncols {
		return nil, 0, 0, fmt.Errorf("blockstore: block %d catalog describes %d columns, file has %d", b, len(metas), ncols)
	}
	total := int64(0)
	for c := 0; c < ncols; c++ {
		if want[c] {
			total += metas[c].Bytes
		}
	}
	// The buffer carries packSlack tail bytes past total; every column's
	// payload subslice keeps its capacity through that tail, so packed
	// parsing can extend in place (unaligned 8-byte loads) without a copy.
	payload := ar.buffer(total)
	pos := int64(0)
	off := v2HeaderSize(ncols)
	for c := 0; c < ncols; {
		if !want[c] {
			off += metas[c].Bytes
			c++
			continue
		}
		r := c
		span := int64(0)
		for r < ncols && want[r] {
			span += metas[r].Bytes
			r++
		}
		if _, err := f.ReadAt(payload[pos:pos+span], off); err != nil {
			return nil, 0, 0, fmt.Errorf("blockstore: block %d col %d: %w", b, c, err)
		}
		off += span
		for ; c < r; c++ {
			n := metas[c].Bytes
			if err := parseColVecInto(&ar.vecs[c], metas[c].Enc, nrows, payload[pos:pos+n], &ar.cols[c]); err != nil {
				return nil, 0, 0, fmt.Errorf("blockstore: block %d col %d: %w", b, c, err)
			}
			vecs[c] = &ar.vecs[c]
			pos += n
			bytesRead += n
		}
	}
	return vecs, nrows, bytesRead, nil
}

// ReadColumns reads the given columns of block b (all columns when cols is
// nil), decoded to plain int64 slices. Unrequested columns return nil
// slices — the columnar-pruning path of the DBMS engine profile. bytesRead
// reports encoded I/O volume for the cost model.
func (s *Store) ReadColumns(b int, cols []int) (data [][]int64, rows int, bytesRead int64, err error) {
	vecs, nrows, bytesRead, err := s.ReadColVecs(b, cols)
	if err != nil || vecs == nil {
		return nil, 0, 0, err
	}
	data = make([][]int64, len(vecs))
	for c, v := range vecs {
		if v != nil {
			data[c] = v.Decode(nil)
		}
	}
	return data, nrows, bytesRead, nil
}

// ColBytes returns the encoded on-disk size of the given columns of block
// b (nil = all). For v1 stores this is the logical 8 bytes per value.
func (s *Store) ColBytes(b int, cols []int) int64 {
	m := s.Blocks[b]
	if m.Rows == 0 {
		return 0
	}
	if !s.isV2() || len(m.Cols) == 0 {
		n := len(cols)
		if cols == nil {
			n = s.Schema.NumCols()
		}
		return int64(8*m.Rows) * int64(n)
	}
	var total int64
	if cols == nil {
		for _, cm := range m.Cols {
			total += cm.Bytes
		}
		return total
	}
	for _, c := range cols {
		total += m.Cols[c].Bytes
	}
	return total
}

// Sizes returns the store's total encoded (on-disk payload) and logical
// (decoded, 8 bytes per value) footprint — the compression headline
// TestCompressedFormatAcceptance holds to its 2x bar.
func (s *Store) Sizes() cost.SizeStats {
	var st cost.SizeStats
	ncols := s.Schema.NumCols()
	for b, m := range s.Blocks {
		st.LogicalBytes += int64(8*m.Rows) * int64(ncols)
		st.EncodedBytes += s.ColBytes(b, nil)
	}
	return st
}

// ColumnStats summarizes one column's encodings and sizes across all
// blocks of a store.
type ColumnStats struct {
	Name  string
	Kind  table.Kind
	Encs  map[Encoding]int // blocks using each encoding
	Sizes cost.SizeStats
}

// ColumnStats reports per-column encoding choices and encoded vs logical
// sizes, in schema order.
func (s *Store) ColumnStats() []ColumnStats {
	out := make([]ColumnStats, s.Schema.NumCols())
	for c := range out {
		out[c] = ColumnStats{Name: s.Schema.Cols[c].Name, Kind: s.Schema.Cols[c].Kind, Encs: make(map[Encoding]int)}
	}
	for _, m := range s.Blocks {
		if m.Rows == 0 {
			continue
		}
		for c := range out {
			out[c].Sizes.LogicalBytes += int64(8 * m.Rows)
			if len(m.Cols) > 0 {
				out[c].Encs[m.Cols[c].Enc]++
				out[c].Sizes.EncodedBytes += m.Cols[c].Bytes
			} else {
				out[c].Encs[EncPlain]++
				out[c].Sizes.EncodedBytes += int64(8 * m.Rows)
			}
		}
	}
	return out
}

// ReadBlock reads a full block back into a table.
func (s *Store) ReadBlock(b int) (*table.Table, error) {
	data, nrows, _, err := s.ReadColumns(b, nil)
	if err != nil {
		return nil, err
	}
	if data == nil {
		return table.New(s.Schema, 0), nil
	}
	tbl, err := table.FromColumns(s.Schema, data)
	if err != nil {
		return nil, err
	}
	tbl.N = nrows
	return tbl, nil
}

// WriteSegment writes one standalone segment file holding the given rows
// of tbl (nil = all rows). Large leaves are "physically stored as multiple
// segments on storage" (Sec. 3.1); the online ingester appends segments
// per leaf as buffers fill. Segments use the v1 plain format — they are
// short-lived spill buffers, rewritten into encoded blocks at re-layout.
func WriteSegment(path string, tbl *table.Table, rows []int) (int64, error) {
	if rows == nil {
		rows = make([]int, tbl.N)
		for i := range rows {
			rows[i] = i
		}
	}
	bytes, _, _, err := writeBlockV1(path, tbl, rows)
	return bytes, err
}

// ReadSegment reads a segment written by WriteSegment.
func ReadSegment(path string, schema *table.Schema) (*table.Table, error) {
	st := &Store{Dir: "", Schema: schema, Format: FormatV1, Blocks: []BlockMeta{{ID: 0, Rows: -1, File: path}}}
	// Rows is unknown; read the header directly.
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	hdr := make([]byte, 12)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("blockstore: segment header: %w", err)
	}
	f.Close()
	if string(hdr[:4]) != magicV1 {
		return nil, fmt.Errorf("blockstore: segment %q bad magic", path)
	}
	if int(binary.LittleEndian.Uint32(hdr[4:8])) != schema.NumCols() {
		return nil, fmt.Errorf("blockstore: segment %q column count mismatch", path)
	}
	st.Blocks[0].Rows = int(binary.LittleEndian.Uint32(hdr[8:12]))
	defer st.Close()
	return st.ReadBlock(0)
}
