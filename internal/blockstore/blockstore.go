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
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
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
// each block file is opened on first access, checked once, mapped
// read-only and closed again, so no descriptor stays open per block; every
// read parses its columns in place from the shared mapping, with no system
// call and no copy. Where no mapping can be made the file is read onto the
// heap once instead. Close unmaps every block and must not race reads:
// whoever closes a store others read drains them first (the server does,
// under its generation lock). A read after Close maps the block again.
type Store struct {
	Dir    string
	Schema *table.Schema
	Blocks []BlockMeta
	// Format is the block format version (FormatV1 or FormatV2). The zero
	// value reads as v1 for compatibility with directly constructed stores.
	Format int

	once  sync.Once
	files []blockFile // per-block contents, loaded and validated on first read

	totalsOnce  sync.Once
	totalBlocks int
	totalRows   int64
}

// blockFile holds one block file's validated contents: a read-only
// mapping, or a heap copy with packSlack spare capacity. The pointer is
// read lock-free on the hot path; the mutex serializes only the first
// load of this block (and Close), so first reads of distinct blocks do
// not contend.
type blockFile struct {
	mu     sync.Mutex
	data   atomic.Pointer[[]byte]
	mapped bool // data is a mapping Close must unmap; guarded by mu
}

// mapFile maps a block file; a variable so tests can refuse the mapping
// and take the heap fallback.
var mapFile = mmapFile

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

// loadFile opens block b's file, checks its length against the catalog
// (when the catalog records one), maps it, closes it and validates it. A
// file cut short or grown fails here, so no read of any of its columns
// answers from it.
func (s *Store) loadFile(b int) (data []byte, mapped bool, err error) {
	m := s.Blocks[b]
	f, err := os.Open(filepath.Join(s.Dir, m.File))
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, false, fmt.Errorf("blockstore: block %d stat: %w", b, err)
	}
	size := fi.Size()
	if m.Bytes != 0 && size != m.Bytes {
		return nil, false, fmt.Errorf("blockstore: block %d file %s holds %d bytes, catalog records %d", b, m.File, size, m.Bytes)
	}
	if data, err = mapFile(f, int(size)); err == nil {
		mapped = true
	} else {
		data = make([]byte, size, size+packSlack)
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, false, fmt.Errorf("blockstore: block %d read: %w", b, err)
		}
	}
	if err := s.validate(b, data); err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, false, err
	}
	return data, mapped, nil
}

// validate checks a block file's magic and shape against the catalog and
// that the file reaches the end of its last column, so reads can slice
// any column without a bounds check of their own.
func (s *Store) validate(b int, data []byte) error {
	m := s.Blocks[b]
	if len(data) < 12 {
		return fmt.Errorf("blockstore: block %d header: file holds %d bytes", b, len(data))
	}
	if string(data[:4]) != s.magic() {
		return fmt.Errorf("blockstore: block %d bad magic %q (want %q)", b, data[:4], s.magic())
	}
	ncols := int(binary.LittleEndian.Uint32(data[4:8]))
	nrows := int(binary.LittleEndian.Uint32(data[8:12]))
	if ncols != s.Schema.NumCols() || nrows != m.Rows {
		return fmt.Errorf("blockstore: block %d shape mismatch (%d cols, %d rows)", b, ncols, nrows)
	}
	end := int64(12+16*ncols) + int64(8*nrows)*int64(ncols)
	if s.isV2() {
		if len(m.Cols) != ncols {
			return fmt.Errorf("blockstore: block %d catalog describes %d columns, file has %d", b, len(m.Cols), ncols)
		}
		end = v2HeaderSize(ncols)
		for c, cm := range m.Cols {
			if cm.Bytes < 0 {
				return fmt.Errorf("blockstore: block %d col %d: catalog records %d bytes", b, c, cm.Bytes)
			}
			end += cm.Bytes
		}
	}
	if int64(len(data)) < end {
		return fmt.Errorf("blockstore: block %d file %s holds %d bytes, its columns end at %d", b, m.File, len(data), end)
	}
	return nil
}

// blockBytes returns block b's validated file contents, nil for an empty
// block. Each block is loaded once, then shared by every caller until
// Close.
func (s *Store) blockBytes(b int) ([]byte, error) {
	if b < 0 || b >= len(s.Blocks) {
		return nil, fmt.Errorf("blockstore: block %d out of range", b)
	}
	if s.Blocks[b].Rows == 0 {
		return nil, nil
	}
	s.once.Do(func() { s.files = make([]blockFile, len(s.Blocks)) })
	h := &s.files[b]
	if p := h.data.Load(); p != nil {
		return *p, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if p := h.data.Load(); p != nil {
		return *p, nil
	}
	data, mapped, err := s.loadFile(b)
	if err != nil {
		return nil, err
	}
	h.data.Store(&data)
	h.mapped = mapped
	return data, nil
}

// Close unmaps every loaded block. It must not race reads (see Store);
// the store remains usable, and later reads map blocks again on demand.
func (s *Store) Close() error {
	var first error
	for i := range s.files {
		h := &s.files[i]
		h.mu.Lock()
		if p := h.data.Swap(nil); p != nil && h.mapped {
			if err := unmapFile(*p); err != nil && first == nil {
				first = err
			}
		}
		h.mu.Unlock()
	}
	return first
}

// GuardFaults runs fn with memory faults turned into errors. A block file
// truncated under its mapping faults when a read touches the lost pages;
// that must fail the read, not the process. Like debug.SetPanicOnFault,
// on which it rests, it covers only the calling goroutine, so a reader
// that hands mapped vectors to other goroutines guards each of them.
func GuardFaults(fn func() error) (err error) {
	old := debug.SetPanicOnFault(true)
	defer func() {
		debug.SetPanicOnFault(old)
		if r := recover(); r != nil {
			fault, ok := r.(interface{ Addr() uintptr })
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("blockstore: fault at %#x reading a mapped block file (truncated or unreadable): %v", fault.Addr(), r)
		}
	}()
	return fn()
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
// are copied out of the block's mapping and safe to retain, past Close
// too; hot paths should prefer ReadColVecsArena.
func (s *Store) ReadColVecs(b int, cols []int) (vecs []*ColVec, rows int, bytesRead int64, err error) {
	err = GuardFaults(func() error {
		vecs, rows, bytesRead, err = s.ReadColVecsArena(b, cols, nil)
		for _, v := range vecs {
			if v != nil {
				v.raw, v.packed = bytes.Clone(v.raw), bytes.Clone(v.packed)
			}
		}
		return err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return vecs, rows, bytesRead, nil
}

// ReadColVecsArena is ReadColVecs without the copy: each wanted column is
// parsed in place from the block's mapping, and ColVec headers and RLE
// run slices come from ar, so a steady-state scan reads blocks with no
// system call, no payload copy and no allocation. bytesRead charges the
// wanted columns' encoded bytes, as if they were read from disk. The
// returned vectors are valid only until the next ReadColVecsArena call on
// the same arena and, since they may point into the mapping, only until
// the store's Close; a caller touches them under GuardFaults.
func (s *Store) ReadColVecsArena(b int, cols []int, ar *Arena) (vecs []*ColVec, rows int, bytesRead int64, err error) {
	data, err := s.blockBytes(b)
	if err != nil || data == nil {
		return nil, 0, 0, err
	}
	ncols, nrows := s.Schema.NumCols(), s.Blocks[b].Rows
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
		colBytes := 8 * nrows
		off := 12 + 16*ncols
		for c := 0; c < ncols; c, off = c+1, off+colBytes {
			if want[c] {
				ar.vecs[c] = ColVec{Enc: EncPlain, N: nrows, raw: data[off : off+colBytes]}
				vecs[c] = &ar.vecs[c]
				bytesRead += int64(colBytes)
			}
		}
		return vecs, nrows, bytesRead, nil
	}
	metas := s.Blocks[b].Cols
	// src holds the file's bytes from offset base on: the file itself,
	// until a packed column ends within packSlack bytes of the end of it.
	// Packed decoding loads 8 bytes at a time and may reach packSlack
	// bytes past the column, so from that column on the file's tail is
	// copied into the arena's buffer, which has the slack.
	src, base := data, int64(0)
	off := v2HeaderSize(ncols)
	for c := 0; c < ncols; c++ {
		n, enc := metas[c].Bytes, metas[c].Enc
		if want[c] {
			if (enc == EncFOR || enc == EncDict) && off-base+n+packSlack > int64(cap(src)) {
				tail := ar.buffer(int64(len(data)) - off)
				copy(tail, data[off:])
				src, base = tail, off
			}
			if err := parseColVecInto(&ar.vecs[c], enc, nrows, src[off-base:off-base+n], &ar.cols[c]); err != nil {
				return nil, 0, 0, fmt.Errorf("blockstore: block %d col %d: %w", b, c, err)
			}
			vecs[c] = &ar.vecs[c]
			bytesRead += n
		}
		off += n
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
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [12]byte
	_, err = io.ReadFull(f, hdr[:])
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("blockstore: segment header: %w", err)
	}
	// The row count comes from the header; loading the file checks the
	// magic, the column count and the length as for any block.
	st := &Store{Schema: schema, Format: FormatV1, Blocks: []BlockMeta{{Rows: int(binary.LittleEndian.Uint32(hdr[8:12])), File: path}}}
	defer st.Close()
	return st.ReadBlock(0)
}
