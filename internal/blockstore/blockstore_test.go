package blockstore

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/table"
	"repro/internal/workload"
)

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(1000, 1)
	bids := make([]int, spec.Table.N)
	for i := range bids {
		bids[i] = i % 4
	}
	st, err := Write(dir, spec.Table, bids, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumBlocks() != 4 {
		t.Fatalf("blocks = %d", st.NumBlocks())
	}
	// Read every block back and verify contents match the source rows.
	perBlock := make(map[int][]int)
	for r, b := range bids {
		perBlock[b] = append(perBlock[b], r)
	}
	for b := 0; b < 4; b++ {
		blk, err := st.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if blk.N != len(perBlock[b]) {
			t.Fatalf("block %d rows %d want %d", b, blk.N, len(perBlock[b]))
		}
		for i, r := range perBlock[b] {
			for c := range spec.Table.Cols {
				if blk.Cols[c][i] != spec.Table.Cols[c][r] {
					t.Fatalf("block %d row %d col %d mismatch", b, i, c)
				}
			}
		}
	}
}

func TestCatalogMinMax(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(500, 2)
	bids := make([]int, spec.Table.N)
	st, err := Write(dir, spec.Table, bids, 1)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, _ := spec.Table.MinMax(0, nil)
	if st.Blocks[0].Min[0] != lo || st.Blocks[0].Max[0] != hi {
		t.Errorf("SMA min/max %d..%d, want %d..%d", st.Blocks[0].Min[0], st.Blocks[0].Max[0], lo, hi)
	}
}

func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(300, 3)
	bids := make([]int, spec.Table.N)
	for i := range bids {
		bids[i] = i % 3
	}
	if _, err := Write(dir, spec.Table, bids, 3); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumBlocks() != 3 || st.Schema.NumCols() != 2 {
		t.Fatalf("reopened store: blocks=%d cols=%d", st.NumBlocks(), st.Schema.NumCols())
	}
	blk, err := st.ReadBlock(1)
	if err != nil {
		t.Fatal(err)
	}
	if blk.N != 100 {
		t.Fatalf("block rows = %d", blk.N)
	}
}

func TestReadColumnsPrunes(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(400, 4)
	bids := make([]int, spec.Table.N)
	st, err := Write(dir, spec.Table, bids, 1)
	if err != nil {
		t.Fatal(err)
	}
	data, rows, bytes1, err := st.ReadColumns(0, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if rows != 400 || data[0] != nil || data[1] == nil {
		t.Fatal("column pruning read the wrong columns")
	}
	// A pruned read is charged exactly the pruned column's encoded bytes.
	if want := st.ColBytes(0, []int{1}); bytes1 != want {
		t.Errorf("pruned read %d bytes, catalog says column 1 is %d", bytes1, want)
	}
	_, _, bytes2, err := st.ReadColumns(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := st.ColBytes(0, nil); bytes2 != want {
		t.Errorf("full read %d bytes, catalog says block is %d", bytes2, want)
	}
	if bytes1 >= bytes2 {
		t.Errorf("pruned read %d bytes, full read %d; pruning must read less", bytes1, bytes2)
	}
}

func TestEmptyBlocks(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(100, 5)
	bids := make([]int, spec.Table.N) // all rows in block 0 of 3
	st, err := Write(dir, spec.Table, bids, 3)
	if err != nil {
		t.Fatal(err)
	}
	blk, err := st.ReadBlock(2)
	if err != nil {
		t.Fatal(err)
	}
	if blk.N != 0 {
		t.Fatalf("empty block has %d rows", blk.N)
	}
	data, rows, nb, err := st.ReadColumns(2, nil)
	if err != nil || data != nil || rows != 0 || nb != 0 {
		t.Fatal("empty block ReadColumns must return nothing")
	}
	if blocks, rows := st.Totals(); blocks != 1 || rows != int64(spec.Table.N) {
		t.Fatalf("Totals = %d blocks, %d rows; want 1, %d", blocks, rows, spec.Table.N)
	}
}

func TestWriteValidation(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(10, 6)
	if _, err := Write(dir, spec.Table, make([]int, 5), 1); err == nil {
		t.Error("assignment length mismatch must error")
	}
	bad := make([]int, spec.Table.N)
	bad[0] = 7
	if _, err := Write(dir, spec.Table, bad, 2); err == nil {
		t.Error("out-of-range block id must error")
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("missing catalog must error")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("nope"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("corrupt catalog must error")
	}
	os.WriteFile(filepath.Join(dir, "catalog.json"), []byte(`{"version":7}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Error("bad version must error")
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(50, 7)
	st, err := Write(dir, spec.Table, make([]int, spec.Table.N), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Clobber the magic bytes.
	path := filepath.Join(dir, st.Blocks[0].File)
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("XXXX"), 0)
	f.Close()
	if _, err := st.ReadBlock(0); err == nil {
		t.Error("corrupt magic must be detected")
	}
}

func TestConcurrentReadColumns(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(2000, 8)
	bids := make([]int, spec.Table.N)
	for i := range bids {
		bids[i] = i % 8
	}
	st, err := Write(dir, spec.Table, bids, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want, _, _, err := st.ReadColumns(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				b := (g + i) % 8
				data, rows, _, err := st.ReadColumns(b, nil)
				if err != nil {
					t.Errorf("block %d: %v", b, err)
					return
				}
				if rows != st.Blocks[b].Rows {
					t.Errorf("block %d: rows %d want %d", b, rows, st.Blocks[b].Rows)
					return
				}
				if b == 3 && data[0][0] != want[0][0] {
					t.Errorf("block 3: concurrent read diverged")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestCloseThenReadReopens(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(100, 9)
	st, err := Write(dir, spec.Table, make([]int, spec.Table.N), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := st.ReadColumns(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The store stays usable after Close: handles reopen on demand.
	if _, rows, _, err := st.ReadColumns(0, nil); err != nil || rows != spec.Table.N {
		t.Fatalf("read after close: rows=%d err=%v", rows, err)
	}
	st.Close()
}

// TestV1WriteReadCompat pins the legacy format: a store written with
// FormatVersion 1 must round-trip through Open and read back the exact
// rows, with the v1 catalog version and no per-column metadata.
func TestV1WriteReadCompat(t *testing.T) {
	dir := t.TempDir()
	spec := workload.Fig3(600, 11)
	bids := make([]int, spec.Table.N)
	for i := range bids {
		bids[i] = i % 5
	}
	st, err := WriteOpts(dir, spec.Table, bids, 5, WriteOptions{FormatVersion: FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != FormatV1 {
		t.Fatalf("written format = %d", st.Format)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Format != FormatV1 {
		t.Fatalf("reopened format = %d", re.Format)
	}
	for _, m := range re.Blocks {
		if m.Cols != nil {
			t.Fatalf("v1 block %d carries column metadata", m.ID)
		}
	}
	perBlock := make(map[int][]int)
	for r, b := range bids {
		perBlock[b] = append(perBlock[b], r)
	}
	for b := 0; b < 5; b++ {
		blk, err := re.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range perBlock[b] {
			for c := range spec.Table.Cols {
				if blk.Cols[c][i] != spec.Table.Cols[c][r] {
					t.Fatalf("v1 block %d row %d col %d mismatch", b, i, c)
				}
			}
		}
	}
}

// TestV1V2IdenticalContents writes the same partitioned table in both
// formats and verifies both stores decode to identical values while the
// v2 store occupies fewer encoded bytes.
func TestV1V2IdenticalContents(t *testing.T) {
	spec := workload.Fig3(1000, 12)
	bids := make([]int, spec.Table.N)
	for i := range bids {
		bids[i] = i % 4
	}
	v1, err := WriteOpts(t.TempDir(), spec.Table, bids, 4, WriteOptions{FormatVersion: FormatV1})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Write(t.TempDir(), spec.Table, bids, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	defer v2.Close()
	for b := 0; b < 4; b++ {
		t1, err := v1.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := v2.ReadBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if t1.N != t2.N {
			t.Fatalf("block %d: v1 %d rows, v2 %d rows", b, t1.N, t2.N)
		}
		for c := range t1.Cols {
			for r := 0; r < t1.N; r++ {
				if t1.Cols[c][r] != t2.Cols[c][r] {
					t.Fatalf("block %d col %d row %d: v1 %d, v2 %d", b, c, r, t1.Cols[c][r], t2.Cols[c][r])
				}
			}
		}
		if v1.Blocks[b].Min[0] != v2.Blocks[b].Min[0] || v1.Blocks[b].Max[1] != v2.Blocks[b].Max[1] {
			t.Fatalf("block %d SMA metadata differs across formats", b)
		}
	}
	s1, s2 := v1.Sizes(), v2.Sizes()
	if s1.LogicalBytes != s2.LogicalBytes {
		t.Fatalf("logical sizes differ: %d vs %d", s1.LogicalBytes, s2.LogicalBytes)
	}
	if s1.EncodedBytes != s1.LogicalBytes {
		t.Errorf("v1 encoded %d != logical %d", s1.EncodedBytes, s1.LogicalBytes)
	}
	if s2.EncodedBytes >= s1.EncodedBytes {
		t.Errorf("v2 encoded %d bytes, not smaller than v1 %d", s2.EncodedBytes, s1.EncodedBytes)
	}
}

// TestColumnStats checks the per-column encoding summary a v2 store
// reports.
func TestColumnStats(t *testing.T) {
	spec := workload.Fig3(500, 13)
	st, err := Write(t.TempDir(), spec.Table, make([]int, spec.Table.N), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	stats := st.ColumnStats()
	if len(stats) != 2 {
		t.Fatalf("%d column stats", len(stats))
	}
	var total int64
	for _, cs := range stats {
		n := 0
		for _, c := range cs.Encs {
			n += c
		}
		if n != 1 {
			t.Errorf("column %s: %d encoded blocks, want 1", cs.Name, n)
		}
		if cs.Sizes.LogicalBytes != 8*500 {
			t.Errorf("column %s: logical %d", cs.Name, cs.Sizes.LogicalBytes)
		}
		total += cs.Sizes.EncodedBytes
	}
	if got := st.Sizes().EncodedBytes; got != total {
		t.Errorf("store encoded %d != per-column sum %d", got, total)
	}
}

// --- WriteSegment / ReadSegment error paths ---

func TestReadSegmentTruncatedHeader(t *testing.T) {
	spec := workload.Fig3(100, 14)
	path := filepath.Join(t.TempDir(), "seg.qdb")
	if _, err := WriteSegment(path, spec.Table, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(path, spec.Table.Schema); err == nil {
		t.Error("truncated header must error")
	}
}

func TestReadSegmentTruncatedPayload(t *testing.T) {
	spec := workload.Fig3(100, 15)
	path := filepath.Join(t.TempDir(), "seg.qdb")
	n, err := WriteSegment(path, spec.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, n-17); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSegment(path, spec.Table.Schema); err == nil {
		t.Error("truncated payload must error")
	}
}

func TestReadSegmentBadMagic(t *testing.T) {
	spec := workload.Fig3(50, 16)
	path := filepath.Join(t.TempDir(), "seg.qdb")
	if _, err := WriteSegment(path, spec.Table, nil); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteAt([]byte("NOPE"), 0)
	f.Close()
	if _, err := ReadSegment(path, spec.Table.Schema); err == nil {
		t.Error("bad magic must error")
	}
}

func TestReadSegmentSchemaMismatch(t *testing.T) {
	spec := workload.Fig3(50, 17)
	path := filepath.Join(t.TempDir(), "seg.qdb")
	if _, err := WriteSegment(path, spec.Table, nil); err != nil {
		t.Fatal(err)
	}
	three := table.MustSchema([]table.Column{
		{Name: "a", Kind: table.Numeric}, {Name: "b", Kind: table.Numeric}, {Name: "c", Kind: table.Numeric},
	})
	if _, err := ReadSegment(path, three); err == nil {
		t.Error("column-count mismatch must error")
	}
}

func TestReadSegmentMissingFile(t *testing.T) {
	spec := workload.Fig3(10, 18)
	if _, err := ReadSegment(filepath.Join(t.TempDir(), "absent.qdb"), spec.Table.Schema); err == nil {
		t.Error("missing segment must error")
	}
}

func TestWriteSegmentBadPath(t *testing.T) {
	spec := workload.Fig3(10, 19)
	if _, err := WriteSegment(filepath.Join(t.TempDir(), "no", "such", "dir", "seg.qdb"), spec.Table, nil); err == nil {
		t.Error("unwritable segment path must error")
	}
}

// mappedTestStore writes spec's table as 64 ten-row blocks in the given
// format; checkBlock compares a block's decoded columns with the source
// rows.
func mappedTestStore(t *testing.T, format int) (*Store, func(t *testing.T, b int, data [][]int64)) {
	t.Helper()
	spec := workload.Fig3(640, 10)
	bids := make([]int, spec.Table.N)
	for i := range bids {
		bids[i] = i % 64
	}
	st, err := WriteOpts(t.TempDir(), spec.Table, bids, 64, WriteOptions{FormatVersion: format})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	check := func(t *testing.T, b int, data [][]int64) {
		t.Helper()
		if len(data) != spec.Table.Schema.NumCols() {
			t.Fatalf("block %d: %d columns", b, len(data))
		}
		for c := range data {
			if len(data[c]) != 10 {
				t.Fatalf("block %d col %d: %d rows, want 10", b, c, len(data[c]))
			}
			for i, got := range data[c] {
				if want := spec.Table.Cols[c][b+64*i]; got != want {
					t.Fatalf("block %d row %d col %d: %d, want %d", b, i, c, got, want)
				}
			}
		}
	}
	return st, check
}

// TestTruncatedUnderMappingIsAnError cuts a block file to 0 bytes after
// its first read has mapped it. The next read touches pages the file no
// longer has, which faults; under GuardFaults that is an error, and the
// process goes on. ReadColumns and ReadColVecs guard themselves.
func TestTruncatedUnderMappingIsAnError(t *testing.T) {
	for _, format := range []int{FormatV1, FormatV2} {
		st, check := mappedTestStore(t, format)
		ar := GetArena()
		defer PutArena(ar)
		decode := func(b int) ([][]int64, error) {
			var data [][]int64
			err := GuardFaults(func() error {
				vecs, _, _, err := st.ReadColVecsArena(b, nil, ar)
				for _, v := range vecs {
					data = append(data, v.Decode(nil))
				}
				return err
			})
			return data, err
		}
		data, err := decode(3)
		if err != nil {
			t.Fatal(err)
		}
		check(t, 3, data)
		if err := os.Truncate(filepath.Join(st.Dir, st.Blocks[3].File), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := decode(3); err == nil {
			t.Errorf("v%d: read of a block truncated under its mapping answered", format)
		}
		if _, _, _, err := st.ReadColumns(3, nil); err == nil {
			t.Errorf("v%d: ReadColumns of a truncated mapped block answered", format)
		}
		if _, _, _, err := st.ReadColVecs(3, nil); err == nil {
			t.Errorf("v%d: ReadColVecs of a truncated mapped block answered", format)
		}
		// Other blocks are unaffected, and once Close drops the mapping
		// the next read reloads the file and fails its size check instead.
		data, err = decode(4)
		if err != nil {
			t.Fatal(err)
		}
		check(t, 4, data)
		st.Close()
		if _, err := decode(3); err == nil || !strings.Contains(err.Error(), "catalog records") {
			t.Errorf("v%d: reload of an empty block file: %v, want a size error", format, err)
		}
	}
}

// TestCatalogColumnSizesAreChecked: a catalog whose column sizes do not
// fit the block file, negative or past its end, fails the read with an
// error instead of slicing out of range.
func TestCatalogColumnSizesAreChecked(t *testing.T) {
	for _, size := range []int64{-5, 1 << 20} {
		st, _ := mappedTestStore(t, FormatV2)
		st.Blocks[2].Cols[1].Bytes = size
		if _, _, _, err := st.ReadColVecsArena(2, nil, nil); err == nil {
			t.Errorf("column size %d in the catalog: read answered", size)
		}
	}
}

// TestGuardFaultsPassesOtherPanicsOn: only a memory fault becomes an
// error; any other panic is a bug and keeps crashing.
func TestGuardFaultsPassesOtherPanicsOn(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want the original panic", r)
		}
	}()
	GuardFaults(func() error { panic("boom") })
}

// TestRetainedVectorsSurviveClose: ReadColVecs and ReadColumns copy out
// of the mapping, so what they return still holds its values after Close
// unmapped the file.
func TestRetainedVectorsSurviveClose(t *testing.T) {
	for _, format := range []int{FormatV1, FormatV2} {
		st, check := mappedTestStore(t, format)
		vecs := make([][]*ColVec, st.NumBlocks())
		cols := make([][][]int64, st.NumBlocks())
		for b := range vecs {
			var err error
			if vecs[b], _, _, err = st.ReadColVecs(b, nil); err != nil {
				t.Fatal(err)
			}
			if cols[b], _, _, err = st.ReadColumns(b, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for b := range vecs {
			data := make([][]int64, len(vecs[b]))
			for c, v := range vecs[b] {
				data[c] = v.Decode(nil)
			}
			check(t, b, data)
			check(t, b, cols[b])
		}
	}
}

// TestCloseThenReadMapsAgain: a read after Close maps the block again and
// answers the same, through the arena path and the copying one, and a
// second Close is harmless.
func TestCloseThenReadMapsAgain(t *testing.T) {
	for _, format := range []int{FormatV1, FormatV2} {
		st, check := mappedTestStore(t, format)
		for round := 0; round < 3; round++ {
			for b := 0; b < st.NumBlocks(); b++ {
				data, _, _, err := st.ReadColumns(b, nil)
				if err != nil {
					t.Fatal(err)
				}
				check(t, b, data)
			}
			mapped := 0
			for i := range st.files {
				if st.files[i].data.Load() != nil {
					mapped++
				}
			}
			if mapped != st.NumBlocks() {
				t.Fatalf("round %d: %d of %d blocks loaded", round, mapped, st.NumBlocks())
			}
			for i := 0; i < 2; i++ {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
			for i := range st.files {
				if st.files[i].data.Load() != nil {
					t.Fatalf("round %d: block %d still loaded after Close", round, i)
				}
			}
		}
	}
}

// TestReadsHoldNoDescriptor reads every block of a 64-block store and
// counts the process's open descriptors before and after: a mapped
// block keeps none.
func TestReadsHoldNoDescriptor(t *testing.T) {
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count descriptors:", err)
		}
		return len(fds)
	}
	st, check := mappedTestStore(t, FormatV2)
	before := openFDs()
	for b := 0; b < st.NumBlocks(); b++ {
		data, _, _, err := st.ReadColumns(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		check(t, b, data)
	}
	if after := openFDs(); after > before {
		t.Fatalf("%d descriptors open after reading %d blocks, %d before", after, st.NumBlocks(), before)
	}
}

// TestConcurrentFirstReadsLoadOnce: readers racing on a block's first
// read all answer, and the block is loaded once.
func TestConcurrentFirstReadsLoadOnce(t *testing.T) {
	st, check := mappedTestStore(t, FormatV2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	seen := make([]*[]byte, 16)
	got := make([][][]int64, len(seen))
	for g := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			var err error
			if got[g], _, _, err = st.ReadColumns(7, nil); err != nil {
				t.Error(err)
			}
			seen[g] = st.files[7].data.Load()
		}()
	}
	close(start)
	wg.Wait()
	for g := range seen {
		check(t, 7, got[g])
		if seen[g] != seen[0] {
			t.Fatal("concurrent first reads loaded block 7 more than once")
		}
	}
}
