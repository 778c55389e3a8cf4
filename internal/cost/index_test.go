package cost

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
)

// Index property tests: both forms of the block index against the
// block-by-block checks they replace, over random block metadata that
// includes empty intervals, bounds at the ends of int64, empty masks and
// missing zone maps, and random AND/OR queries whose literals reach the
// ends of int64, whose IN sets leave the dictionary and whose advanced
// cuts reach past the described ones.

const (
	ixCols   = 4 // a, b numeric; k (dom 5) and m (dom 70) categorical
	ixAdvCut = 2 // advanced cuts described per block
)

var ixDom = [ixCols]int64{0, 0, 5, 70}

// ixValue draws a value near the columns' ranges, or at an end of int64.
func ixValue(rng *rand.Rand) int64 {
	switch rng.Intn(12) {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64 + 1
	case 3:
		return math.MaxInt64 - 1
	}
	return -10 + rng.Int63n(100)
}

// ixInterval draws an inclusive interval; about one in eight is empty.
func ixInterval(rng *rand.Rand) (lo, hi int64) {
	lo, hi = ixValue(rng), ixValue(rng)
	if lo > hi && rng.Intn(4) != 0 {
		lo, hi = hi, lo
	}
	return lo, hi
}

// ixDescs draws n block descriptions of one shape and their row counts;
// about one block in six holds no rows.
func ixDescs(rng *rand.Rand, n int) ([]core.Desc, []int) {
	descs := make([]core.Desc, n)
	counts := make([]int, n)
	for b := range descs {
		d := core.Desc{Lo: make([]int64, ixCols), Hi: make([]int64, ixCols), Masks: map[int]*expr.Bitset{}, AdvMay: expr.NewBitset(ixAdvCut), AdvMayNot: expr.NewBitset(ixAdvCut)}
		for c := range ixCols {
			lo, hi := ixInterval(rng)
			// Half-open [lo, hi+1) where hi+1 fits; empty otherwise.
			d.Lo[c], d.Hi[c] = lo, hi
			if hi < math.MaxInt64 && lo <= hi {
				d.Hi[c] = hi + 1
			}
			if ixDom[c] > 0 {
				m := expr.NewBitset(int(ixDom[c]))
				for v := range ixDom[c] {
					if rng.Intn(3) == 0 {
						m.Set(int(v))
					}
				}
				d.Masks[c] = m
			}
		}
		for i := range ixAdvCut {
			if rng.Intn(2) == 0 {
				d.AdvMay.Set(i)
			}
		}
		descs[b] = d
		if rng.Intn(6) != 0 {
			counts[b] = 1 + rng.Intn(100)
		}
	}
	return descs, counts
}

func ixPred(rng *rand.Rand) expr.Pred {
	c := rng.Intn(ixCols)
	lit := ixValue(rng)
	if ixDom[c] > 0 && rng.Intn(2) == 0 {
		lit = -2 + rng.Int63n(ixDom[c]+4) // in and around the dictionary
	}
	ops := []expr.Op{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq, expr.In}
	op := ops[rng.Intn(len(ops))]
	if op != expr.In {
		return expr.Pred{Col: c, Op: op, Literal: lit}
	}
	vals := make([]int64, rng.Intn(4)) // sometimes empty
	for i := range vals {
		vals[i] = ixValue(rng)
		if ixDom[c] > 0 && rng.Intn(2) == 0 {
			vals[i] = -2 + rng.Int63n(ixDom[c]+4)
		}
	}
	return expr.NewIn(c, vals)
}

func ixNode(rng *rand.Rand, depth int) *expr.Node {
	switch k := rng.Intn(12); {
	case depth == 0 || k < 5:
		return expr.NewPred(ixPred(rng))
	case k < 7:
		return expr.NewAdv(rng.Intn(ixAdvCut + 2)) // some past the described cuts
	default:
		kids := make([]*expr.Node, rng.Intn(4)) // zero-child AND/OR included
		for i := range kids {
			kids[i] = ixNode(rng, depth-1)
		}
		kind := expr.KindAnd
		if k >= 9 {
			kind = expr.KindOr
		}
		return &expr.Node{Kind: kind, Children: kids}
	}
}

func ixQueries(rng *rand.Rand, n int) []expr.Query {
	qs := []expr.Query{{Name: "all"}}
	for i := range n {
		qs = append(qs, expr.Query{Name: fmt.Sprintf("q%d", i), Root: ixNode(rng, 3)})
	}
	return qs
}

// ixBlockCounts straddle the 64-block words of the index.
var ixBlockCounts = []int{1, 2, 63, 64, 65, 127, 128, 129, 200}

// TestLayoutIndexMatchesDescs pins BlocksFor over the layout index to
// Desc.QueryMayMatch on every non-empty block, and a hand-assembled
// Layout (no index) to the indexed one.
func TestLayoutIndexMatchesDescs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	queries := ixQueries(rng, 400)
	for _, n := range ixBlockCounts {
		descs, counts := ixDescs(rng, n)
		l := &Layout{Counts: counts, Descs: descs, index: newLayoutIndex(descs, counts)}
		bare := &Layout{Counts: counts, Descs: descs}
		if l.index == nil {
			t.Fatalf("%d blocks: no index", n)
		}
		if got, want := l.NonEmptyBlocks(), bare.NonEmptyBlocks(); got != want {
			t.Fatalf("%d blocks: NonEmptyBlocks %d, want %d", n, got, want)
		}
		for _, q := range queries {
			var want []int
			for b := range descs {
				if counts[b] != 0 && descs[b].QueryMayMatch(q) {
					want = append(want, b)
				}
			}
			if got := l.BlocksFor(q); !slices.Equal(got, want) {
				t.Fatalf("%d blocks, %s: index %v, descriptions %v", n, q.String(), got, want)
			}
			if got := bare.BlocksFor(q); !slices.Equal(got, want) {
				t.Fatalf("%d blocks, %s: unindexed %v, descriptions %v", n, q.String(), got, want)
			}
		}
	}
}

// TestLayoutIndexShape: descriptions that differ in shape get no index,
// and BlocksFor checks them one by one.
func TestLayoutIndexShape(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for name, mutate := range map[string]func(d *core.Desc){
		"columns":    func(d *core.Desc) { d.Lo, d.Hi = d.Lo[:3], d.Hi[:3] },
		"mask width": func(d *core.Desc) { d.Masks[3] = expr.NewFullBitset(71) },
		"mask set":   func(d *core.Desc) { delete(d.Masks, 2) },
		"adv cuts":   func(d *core.Desc) { d.AdvMay = expr.NewFullBitset(ixAdvCut + 1) },
	} {
		descs, counts := ixDescs(rng, 70)
		mutate(&descs[69])
		if newLayoutIndex(descs, counts) != nil {
			t.Errorf("%s differ: index built", name)
		}
	}
	if newLayoutIndex(nil, nil) != nil {
		t.Error("no blocks: index built")
	}
}

// TestMinMaxBlocksForMatchesMinMaxMayMatch pins the intervals-only
// evaluation of the layout index to MinMaxMayMatch on every non-empty
// block, over descriptions with empty intervals and empty blocks, and a
// hand-assembled Layout (no index) to the indexed one. Masks and
// advanced cuts are ignored and ExtraSkip is never asked, while
// BlocksFor, evaluated over the same column arrays, still applies all
// three.
func TestMinMaxBlocksForMatchesMinMaxMayMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	queries := ixQueries(rng, 400)
	skipAll := func(int, expr.Query) bool { return true }
	for _, n := range ixBlockCounts {
		descs, counts := ixDescs(rng, n)
		l := &Layout{Counts: counts, Descs: descs, index: newLayoutIndex(descs, counts), ExtraSkip: skipAll}
		bare := &Layout{Counts: counts, Descs: descs, ExtraSkip: skipAll}
		for i, q := range queries {
			if i%2 == 0 {
				// Interleave the full form so that either may build a
				// column's arrays first.
				if got := l.BlocksFor(q); len(got) != 0 {
					t.Fatalf("%d blocks, %s: BlocksFor %v past an ExtraSkip that skips every block", n, q.String(), got)
				}
			}
			var want []int
			for b := range descs {
				if counts[b] != 0 && MinMaxMayMatch(descs[b].Lo, descs[b].Hi, q) {
					want = append(want, b)
				}
			}
			if got := l.MinMaxBlocksFor(q); !slices.Equal(got, want) {
				t.Fatalf("%d blocks, %s: index %v, MinMaxMayMatch %v", n, q.String(), got, want)
			}
			if got := bare.MinMaxBlocksFor(q); !slices.Equal(got, want) {
				t.Fatalf("%d blocks, %s: unindexed %v, MinMaxMayMatch %v", n, q.String(), got, want)
			}
		}
	}
}

// TestBlocksForAllocsDoNotScaleWithBlocks: an untraced BlocksFor
// allocates only its result, once, on 700 blocks as on four times as
// many.
func TestBlocksForAllocsDoNotScaleWithBlocks(t *testing.T) {
	q := expr.Query{Name: "mid", Root: expr.Or(
		expr.And(expr.NewPred(expr.Pred{Col: 0, Op: expr.Ge, Literal: 20}), expr.NewPred(expr.Pred{Col: 2, Op: expr.Eq, Literal: 1})),
		expr.NewPred(expr.NewIn(3, []int64{4, 9})),
		expr.NewAdv(0),
	)}
	var allocs []float64
	for _, n := range []int{700, 2800} {
		descs, counts := ixDescs(rand.New(rand.NewSource(10)), n)
		l := &Layout{Counts: counts, Descs: descs, index: newLayoutIndex(descs, counts)}
		if len(l.BlocksFor(q)) < n/8 {
			t.Fatalf("%d blocks: query keeps too few blocks to show growth", n)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, func() { l.BlocksFor(q) }))
	}
	if allocs[0] != allocs[1] || allocs[0] > 1 {
		t.Errorf("%v allocations on 700 and 2800 blocks, want equal and at most 1", allocs)
	}
}

// TestIndexConcurrentEvaluations prunes from several goroutines at once,
// in full and intervals-only, over layouts of different word counts,
// which share the pooled evaluators and build their column arrays on
// first use: every result equals the sequential one.
func TestIndexConcurrentEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := ixQueries(rng, 60)
	type indexed struct {
		descs  []core.Desc
		counts []int
		want   [][]int
		mwant  [][]int
	}
	var all []indexed
	for _, n := range []int{65, 700} {
		descs, counts := ixDescs(rng, n)
		x := indexed{descs: descs, counts: counts}
		l := &Layout{Counts: counts, Descs: descs, index: newLayoutIndex(descs, counts)}
		for _, q := range queries {
			x.want = append(x.want, l.BlocksFor(q))
			x.mwant = append(x.mwant, l.MinMaxBlocksFor(q))
		}
		all = append(all, x)
	}
	// Fresh indexes, so that the goroutines race to build the arrays.
	layouts := make([]*Layout, len(all))
	for i, x := range all {
		layouts[i] = &Layout{Counts: x.counts, Descs: x.descs, index: newLayoutIndex(x.descs, x.counts)}
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 20 * len(queries) {
				k := (g + i) % len(all)
				l, x := layouts[k], &all[k]
				qi := (g*7 + i) % len(queries)
				if got := l.BlocksFor(queries[qi]); !slices.Equal(got, x.want[qi]) {
					t.Errorf("goroutine %d, %s: BlocksFor %v, want %v", g, queries[qi].String(), got, x.want[qi])
					return
				}
				if got := l.MinMaxBlocksFor(queries[qi]); !slices.Equal(got, x.mwant[qi]) {
					t.Errorf("goroutine %d, %s: MinMaxBlocksFor %v, want %v", g, queries[qi].String(), got, x.mwant[qi])
					return
				}
			}
		}()
	}
	wg.Wait()
}
