package blockstore

import (
	"os"
	"path/filepath"
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

// TestHandleCacheCapFallsBackToTransientReads pins the process-wide
// handle budget: every Store draws cached handles from it, reads past it
// use transient handles that still validate and still return the right
// rows, and Close gives handles back.
func TestHandleCacheCapFallsBackToTransientReads(t *testing.T) {
	spec := workload.Fig3(640, 10)
	bids := make([]int, spec.Table.N)
	for i := range bids {
		bids[i] = i % 64
	}
	newStore := func(t *testing.T) *Store {
		st, err := Write(t.TempDir(), spec.Table, bids, 64)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	// checkBlock reads block b and compares it with the source rows.
	checkBlock := func(t *testing.T, st *Store, b int) error {
		data, rows, _, err := st.ReadColumns(b, nil)
		if err != nil {
			return err
		}
		if rows != 10 {
			t.Fatalf("block %d: rows %d, want 10", b, rows)
		}
		for i := 0; i < rows; i++ {
			for c := range data {
				if got, want := data[c][i], spec.Table.Cols[c][b+64*i]; got != want {
					t.Fatalf("block %d row %d col %d: %d, want %d", b, i, c, got, want)
				}
			}
		}
		return nil
	}
	cached := func(st *Store) int {
		n := 0
		for i := range st.files {
			if st.files[i].f.Load() != nil {
				n++
			}
		}
		return n
	}
	// The budget is relative to handles other tests' stores still hold.
	setBudget := func(t *testing.T, extra int64) int64 {
		base := openHandles.Load()
		saved := handleBudget
		handleBudget = base + extra
		t.Cleanup(func() { handleBudget = saved })
		return base
	}

	t.Run("shared", func(t *testing.T) {
		base := setBudget(t, 40)
		a, b := newStore(t), newStore(t)
		for blk := 0; blk < 64; blk++ {
			for _, st := range []*Store{a, b} {
				if err := checkBlock(t, st, blk); err != nil {
					t.Fatalf("block %d: %v", blk, err)
				}
				if got := openHandles.Load() - base; got > 40 {
					t.Fatalf("%d handles cached, budget 40", got)
				}
			}
		}
		if na, nb := cached(a), cached(b); na+nb != 40 || na == 0 || nb == 0 {
			t.Fatalf("stores cached %d + %d handles, want both drawing on one budget of 40", na, nb)
		}
		// Re-reads past the budget still return the right rows.
		for blk := 0; blk < 64; blk++ {
			if err := checkBlock(t, b, blk); err != nil {
				t.Fatalf("re-read of block %d: %v", blk, err)
			}
		}
	})

	t.Run("corrupt after exhaustion", func(t *testing.T) {
		setBudget(t, 0)
		st := newStore(t)
		if err := checkBlock(t, st, 5); err != nil {
			t.Fatal(err)
		}
		if cached(st) != 0 {
			t.Fatal("a spent budget must cache no handle")
		}
		path := filepath.Join(st.Dir, st.Blocks[5].File)
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte("XXXX"), 0)
		f.Close()
		if _, _, _, err := st.ReadColumns(5, nil); err == nil {
			t.Error("bad magic on the transient path must error")
		}
		if err := os.Truncate(filepath.Join(st.Dir, st.Blocks[6].File), 40); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := st.ReadColumns(6, nil); err == nil {
			t.Error("truncated block on the transient path must error")
		}
	})

	t.Run("close returns handles", func(t *testing.T) {
		base := setBudget(t, 64)
		a := newStore(t)
		for blk := 0; blk < 64; blk++ {
			if err := checkBlock(t, a, blk); err != nil {
				t.Fatal(err)
			}
		}
		if got := openHandles.Load() - base; got != 64 {
			t.Fatalf("%d handles cached, want 64", got)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if got := openHandles.Load() - base; got != 0 {
			t.Fatalf("%d handles still counted after Close", got)
		}
		b := newStore(t)
		for blk := 0; blk < 64; blk++ {
			if err := checkBlock(t, b, blk); err != nil {
				t.Fatal(err)
			}
		}
		if cached(b) != 64 {
			t.Fatalf("after Close a second store cached %d handles, want 64", cached(b))
		}
	})

	t.Run("concurrent first reads", func(t *testing.T) {
		base := setBudget(t, 64)
		st := newStore(t)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, rows, _, err := st.ReadColumns(7, nil); err != nil || rows != 10 {
					t.Errorf("rows=%d err=%v", rows, err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := openHandles.Load() - base; got != 1 || cached(st) != 1 {
			t.Fatalf("%d handles counted, %d cached, want exactly 1", got, cached(st))
		}
	})
}
