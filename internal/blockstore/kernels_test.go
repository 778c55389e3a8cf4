package blockstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/table"
)

// cmpOps are the operators the branch-free kernels implement.
var cmpOps = []expr.Op{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq}

func opHolds(op expr.Op, a, b int64) bool {
	switch op {
	case expr.Lt:
		return a < b
	case expr.Le:
		return a <= b
	case expr.Gt:
		return a > b
	case expr.Ge:
		return a >= b
	case expr.Eq:
		return a == b
	}
	return false
}

// TestBitPrimitives drives the single-bit tricks through the values where
// the naive (a-b)<0 formulation overflows.
func TestBitPrimitives(t *testing.T) {
	vals := []int64{math.MinInt64, math.MinInt64 + 1, -3, -1, 0, 1, 2, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := ltBit(a, b) == 1, a < b; got != want {
				t.Errorf("ltBit(%d, %d) = %v, want %v", a, b, got, want)
			}
			if got, want := eqBit(a, b) == 1, a == b; got != want {
				t.Errorf("eqBit(%d, %d) = %v, want %v", a, b, got, want)
			}
			if a >= 0 && b >= 0 {
				if got, want := ltuBit(uint64(a), uint64(b)) == 1, a < b; got != want {
					t.Errorf("ltuBit(%d, %d) = %v, want %v", a, b, got, want)
				}
			}
		}
	}
}

// TestFilterKernelsVsScalar compares every encoding's Filter result with a
// direct scalar evaluation over adversarial data: random values, runs of
// duplicates, int64 extremes, and batch lengths that exercise both the
// 8-wide bodies and the scalar tails.
func TestFilterKernelsVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	datasets := map[string][]int64{
		"random":   randomInts(rng, 1000, -500, 500),
		"runs":     runInts(rng, 1000, 6),
		"extremes": extremeInts(rng, 1000),
	}
	for name, vals := range datasets {
		for _, kind := range []table.Kind{table.Numeric, table.Categorical} {
			enc, payload := encodeColumn(vals, kind)
			v, err := parseColVec(enc, len(vals), withSlack(payload))
			if err != nil {
				t.Fatalf("%s: parse %v: %v", name, enc, err)
			}
			lits := append([]int64{math.MinInt64, math.MaxInt64, vals[0], vals[1] - 1}, randomInts(rng, 8, -600, 600)...)
			for _, op := range cmpOps {
				for _, lit := range lits {
					p := expr.Pred{Op: op, Literal: lit}
					for _, span := range [][2]int{{0, len(vals)}, {0, 5}, {3, 997}, {128, 131}} {
						start, n := span[0], span[1]-span[0]
						var got SelVec
						v.Filter(p, start, n, &got)
						for i := 0; i < n; i++ {
							if got.Get(i) != opHolds(op, vals[start+i], lit) {
								t.Fatalf("%s/%v: op=%v lit=%d row %d (start %d): sel=%v val=%d",
									name, enc, op, lit, i, start, got.Get(i), vals[start+i])
							}
						}
						for i := n; i < BatchSize; i++ {
							if got.Get(i) {
								t.Fatalf("%s/%v: op=%v lit=%d: stray bit %d past n=%d", name, enc, op, lit, i, n)
							}
						}
					}
				}
			}
		}
	}
}

// TestCmpSelectVsScalar checks the column-vs-column kernel used by
// advanced cuts, extremes included.
func TestCmpSelectVsScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000, BatchSize} {
		a := extremeInts(rng, n)
		b := extremeInts(rng, n)
		for i := 0; i < n/3; i++ { // force equal pairs so Eq/Le/Ge see both outcomes
			j := rng.Intn(n)
			b[j] = a[j]
		}
		for _, op := range cmpOps {
			var got SelVec
			got.Zero()
			CmpSelect(op, a, b, n, &got)
			for i := 0; i < n; i++ {
				if got.Get(i) != opHolds(op, a[i], b[i]) {
					t.Fatalf("CmpSelect n=%d op=%v row %d: %d vs %d, sel=%v", n, op, i, a[i], b[i], got.Get(i))
				}
			}
			for i := n; i < BatchSize; i++ {
				if got.Get(i) {
					t.Fatalf("CmpSelect n=%d op=%v: stray bit %d", n, op, i)
				}
			}
		}
	}
}

func randomInts(rng *rand.Rand, n int, lo, hi int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + rng.Int63n(hi-lo+1)
	}
	return out
}

func runInts(rng *rand.Rand, n, distinct int) []int64 {
	out := make([]int64, n)
	val := rng.Int63n(int64(distinct))
	for i := range out {
		if rng.Intn(10) == 0 {
			val = rng.Int63n(int64(distinct))
		}
		out[i] = val
	}
	return out
}

func extremeInts(rng *rand.Rand, n int) []int64 {
	spikes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	out := make([]int64, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = spikes[rng.Intn(len(spikes))]
		} else {
			out[i] = rng.Int63() - rng.Int63()
		}
	}
	return out
}

func withSlack(payload []byte) []byte {
	buf := make([]byte, len(payload), len(payload)+packSlack)
	copy(buf, payload)
	return buf
}

// BenchmarkPackedKernels times DecodeRange and the packed Lt, Eq and IN
// filter kernels over an 8-batch FOR column at each bit width, and
// reports ns per 1024-row batch. The IN set holds five members; widths
// up to 12 fit the code-space bitmap, wider ones search the set.
func BenchmarkPackedKernels(b *testing.B) {
	const batches = 8
	for _, w := range []uint{1, 3, 7, 12, 17, 24, 33} {
		rng := rand.New(rand.NewSource(int64(w)))
		span := int64(1) << w
		vals := randomInts(rng, batches*BatchSize, 0, span-1)
		vals[0], vals[1] = 0, span-1 // pin the block range, so the width is w
		enc, payload := encodeColumn(vals, table.Numeric)
		v, err := parseColVec(enc, len(vals), withSlack(payload))
		if err != nil || enc != EncFOR || v.width != w {
			b.Fatalf("w=%d: got %v width %d, err %v", w, enc, v.width, err)
		}
		set := []int64{0, span / 5, span / 3, span / 2, span - 1}
		preds := []struct {
			name string
			p    expr.Pred
		}{
			{"Lt", expr.Pred{Op: expr.Lt, Literal: span / 2}},
			{"Eq", expr.Pred{Op: expr.Eq, Literal: vals[7]}},
			{"In", expr.NewIn(0, set)},
		}
		dst := make([]int64, BatchSize)
		report := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches), "ns/batch")
		}
		b.Run(fmt.Sprintf("DecodeRange/w=%d", w), func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for start := 0; start < len(vals); start += BatchSize {
					v.DecodeRange(dst, start, BatchSize)
				}
			}
			report(b)
		})
		for _, pr := range preds {
			b.Run(fmt.Sprintf("%s/w=%d", pr.name, w), func(b *testing.B) {
				var sel SelVec
				for it := 0; it < b.N; it++ {
					for start := 0; start < len(vals); start += BatchSize {
						v.Filter(pr.p, start, BatchSize, &sel)
					}
				}
				report(b)
			})
		}
	}
}

// TestPackedKernelsEveryWidthOffsetLength checks the eight-codes-per-step
// unpacking of DecodeRange and the packed Lt, Eq and IN kernels against
// Get, at every bit width from 0 to maxPackWidth, every start row offset
// mod 64 and every batch length from 1 to BatchSize (each length once
// per width, its start offset cycling through all 64).
func TestPackedKernelsEveryWidthOffsetLength(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for w := uint(0); w <= maxPackWidth; w++ {
		maxCode := int64(1)<<w - 1
		vals := make([]int64, BatchSize+128)
		for i := range vals {
			vals[i] = rng.Int63n(maxCode + 1)
		}
		vals[0], vals[1] = 0, maxCode // pin the block range, so the width is w
		enc, payload := encodeColumn(vals, table.Numeric)
		v, err := parseColVec(enc, len(vals), withSlack(payload))
		if err != nil || enc != EncFOR || v.width != w {
			t.Fatalf("w=%d: got %v width %d, err %v", w, enc, v.width, err)
		}
		small := expr.NewIn(0, []int64{vals[2], vals[3], vals[5], maxCode / 2})
		var wide []int64 // spread up to the bitmap's cap, or over it
		for k := int64(0); k <= 64*inBitmapWords && k <= maxCode; k += 29 {
			wide = append(wide, vals[k%int64(len(vals))], k)
		}
		preds := []expr.Pred{
			{Op: expr.Lt, Literal: vals[4]},
			{Op: expr.Ge, Literal: vals[4]},
			{Op: expr.Eq, Literal: vals[6]},
			{Op: expr.Le, Literal: vals[6]},
			small,
			expr.NewIn(0, wide),
		}
		ref := make([]int64, len(vals))
		for i := range ref {
			ref[i] = v.Get(i)
		}
		match := make([][]bool, len(preds)) // match[k][row]: preds[k] holds
		for k, p := range preds {
			match[k] = make([]bool, len(ref))
			for i, x := range ref {
				match[k][i] = p.EvalValue(x)
			}
		}
		dst := make([]int64, BatchSize)
		var sel SelVec
		for n := 1; n <= BatchSize; n++ {
			start := 64 + (n+5*(n/64))%64
			v.DecodeRange(dst, start, n)
			for i := 0; i < n; i++ {
				if dst[i] != ref[start+i] {
					t.Fatalf("w=%d DecodeRange(%d, %d) row %d = %d, Get = %d", w, start, n, i, dst[i], ref[start+i])
				}
			}
			for k, p := range preds {
				v.Filter(p, start, n, &sel)
				for i := 0; i < n; i++ {
					if want := match[k][start+i]; sel.Get(i) != want {
						t.Fatalf("w=%d %v (%d members) start %d n %d: row %d got %v want %v",
							w, p.Op, len(p.Set), start, n, i, sel.Get(i), want)
					}
				}
				if stray := sel.CountRange(n, BatchSize); stray != 0 {
					t.Fatalf("w=%d %v start %d n %d: %d bits set past n", w, p.Op, start, n, stray)
				}
			}
		}
	}
}
