package blockstore

import (
	"errors"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/table"
)

// arenaTestStore writes a 5-column table chosen to hit every encoding:
// constant (RLE), tiny categorical domain (DICT), narrow numeric range
// (FOR), wide random values (plain-ish), and a ramp.
func arenaTestStore(t *testing.T, version int) *Store {
	t.Helper()
	s := table.MustSchema([]table.Column{
		{Name: "const", Kind: table.Numeric, Min: 7, Max: 7},
		{Name: "cat", Kind: table.Categorical, Dom: 3, Dict: []string{"a", "b", "c"}},
		{Name: "narrow", Kind: table.Numeric, Min: 100, Max: 131},
		{Name: "wide", Kind: table.Numeric, Min: -1 << 40, Max: 1 << 40},
		{Name: "ramp", Kind: table.Numeric, Min: 0, Max: 4000},
	})
	const n = 4000
	rng := rand.New(rand.NewSource(3))
	cols := make([][]int64, 5)
	for c := range cols {
		cols[c] = make([]int64, n)
	}
	for r := 0; r < n; r++ {
		cols[0][r] = 7
		cols[1][r] = int64(rng.Intn(3))
		cols[2][r] = 100 + int64(rng.Intn(32))
		cols[3][r] = rng.Int63n(1<<41) - 1<<40
		cols[4][r] = int64(r)
	}
	tbl, err := table.FromColumns(s, cols)
	if err != nil {
		t.Fatal(err)
	}
	bids := make([]int, n)
	for i := range bids {
		bids[i] = i / (n / 8) // 8 blocks of 500 rows
	}
	st, err := WriteOpts(t.TempDir(), tbl, bids, 8, WriteOptions{FormatVersion: version})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReadColVecsArenaMatchesFresh reads every block through one reused
// arena — twice, so scratch aliasing across reads would show — and
// compares decoded values and bytesRead against the copying path, over
// column subsets that include gaps.
func TestReadColVecsArenaMatchesFresh(t *testing.T) {
	for _, version := range []int{FormatV1, FormatV2} {
		st := arenaTestStore(t, version)
		defer st.Close()
		subsets := [][]int{nil, {0}, {4}, {1, 3}, {0, 2, 4}, {2, 3, 4}}
		ar := GetArena()
		defer PutArena(ar)
		for pass := 0; pass < 2; pass++ {
			for b := 0; b < st.NumBlocks(); b++ {
				for _, cols := range subsets {
					want, wantRows, wantBytes, err := st.ReadColVecs(b, cols)
					if err != nil {
						t.Fatal(err)
					}
					// Decode the fresh vectors before the arena read: if the
					// arena pass aliased their storage, the comparison below
					// would still catch it.
					wantVals := make([][]int64, len(want))
					for c, v := range want {
						if v != nil {
							wantVals[c] = v.Decode(nil)
						}
					}
					got, rows, bytes, err := st.ReadColVecsArena(b, cols, ar)
					if err != nil {
						t.Fatal(err)
					}
					if rows != wantRows || bytes != wantBytes {
						t.Fatalf("v%d block %d cols %v: rows/bytes %d/%d, want %d/%d",
							version, b, cols, rows, bytes, wantRows, wantBytes)
					}
					for c := range want {
						if (got[c] == nil) != (wantVals[c] == nil) {
							t.Fatalf("v%d block %d cols %v: col %d nil mismatch", version, b, cols, c)
						}
						if got[c] == nil {
							continue
						}
						gv := got[c].Decode(nil)
						for i := range wantVals[c] {
							if gv[i] != wantVals[c][i] {
								t.Fatalf("v%d block %d col %d row %d: %d want %d",
									version, b, c, i, gv[i], wantVals[c][i])
							}
						}
					}
				}
			}
		}
	}
}

// TestReadColVecsArenaZeroAllocs pins the headline property: once an
// arena is warm, reading blocks allocates nothing.
func TestReadColVecsArenaZeroAllocs(t *testing.T) {
	for _, version := range []int{FormatV1, FormatV2} {
		st := arenaTestStore(t, version)
		defer st.Close()
		ar := GetArena()
		defer PutArena(ar)
		for b := 0; b < st.NumBlocks(); b++ { // warm mappings + scratch
			if _, _, _, err := st.ReadColVecsArena(b, nil, ar); err != nil {
				t.Fatal(err)
			}
		}
		b := 0
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, _, err := st.ReadColVecsArena(b, nil, ar); err != nil {
				t.Fatal(err)
			}
			b = (b + 1) % st.NumBlocks()
		})
		if allocs != 0 {
			t.Errorf("v%d: %v allocs per warmed arena read, want 0", version, allocs)
		}
	}
}

// TestHeapFallbackMatchesMapping refuses every mapping, so each block
// file is read onto the heap, and holds those reads to the mapped ones:
// same values and bytes, every column subset, and still no allocation
// once warm (the heap copy carries the packed slack itself).
func TestHeapFallbackMatchesMapping(t *testing.T) {
	for _, version := range []int{FormatV1, FormatV2} {
		mapped := arenaTestStore(t, version)
		defer mapped.Close()
		heap := &Store{Dir: mapped.Dir, Schema: mapped.Schema, Blocks: mapped.Blocks, Format: mapped.Format}
		mapFile = func(*os.File, int) ([]byte, error) { return nil, errors.ErrUnsupported }
		for b := 0; b < heap.NumBlocks(); b++ {
			if _, err := heap.blockBytes(b); err != nil {
				t.Fatal(err)
			}
		}
		mapFile = mmapFile
		defer heap.Close()
		ar := GetArena()
		defer PutArena(ar)
		for b := 0; b < heap.NumBlocks(); b++ {
			if heap.files[b].data.Load() == nil || heap.files[b].mapped {
				t.Fatalf("v%d block %d: not on the heap", version, b)
			}
			for _, cols := range [][]int{nil, {4}, {1, 3}, {0, 2, 4}} {
				want, _, wantBytes, err := mapped.ReadColumns(b, cols)
				if err != nil {
					t.Fatal(err)
				}
				vecs, _, bytes, err := heap.ReadColVecsArena(b, cols, ar)
				if err != nil {
					t.Fatal(err)
				}
				if bytes != wantBytes {
					t.Fatalf("v%d block %d cols %v: %d bytes, mapped %d", version, b, cols, bytes, wantBytes)
				}
				for c, v := range vecs {
					if (v == nil) != (want[c] == nil) {
						t.Fatalf("v%d block %d col %d: nil mismatch", version, b, c)
					}
					if v != nil && !slices.Equal(v.Decode(nil), want[c]) {
						t.Fatalf("v%d block %d col %d: heap read differs from the mapped one", version, b, c)
					}
				}
			}
		}
		b := 0
		allocs := testing.AllocsPerRun(50, func() {
			if _, _, _, err := heap.ReadColVecsArena(b, nil, ar); err != nil {
				t.Fatal(err)
			}
			b = (b + 1) % heap.NumBlocks()
		})
		if allocs != 0 {
			t.Errorf("v%d: %v allocs per warmed heap read, want 0", version, allocs)
		}
	}
}

// TestArenaWantColsRejectsBadIndex keeps the arena path's validation in
// lockstep with wantCols.
func TestArenaWantColsRejectsBadIndex(t *testing.T) {
	st := arenaTestStore(t, FormatV2)
	defer st.Close()
	ar := GetArena()
	defer PutArena(ar)
	if _, _, _, err := st.ReadColVecsArena(0, []int{99}, ar); err == nil {
		t.Fatal("out-of-range column accepted")
	}
	if _, _, _, err := st.ReadColVecsArena(0, []int{-1}, ar); err == nil {
		t.Fatal("negative column accepted")
	}
}
