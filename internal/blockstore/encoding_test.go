package blockstore

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/table"
)

// parseColVec parses one encoded column payload into a fresh vector.
func parseColVec(enc Encoding, n int, payload []byte) (*ColVec, error) {
	v := new(ColVec)
	if err := parseColVecInto(v, enc, n, payload, nil); err != nil {
		return nil, err
	}
	return v, nil
}

// encDec encodes vals, parses the payload back, and fails on any error.
func encDec(t *testing.T, vals []int64, kind table.Kind) (Encoding, *ColVec) {
	t.Helper()
	enc, payload := encodeColumn(vals, kind)
	v, err := parseColVec(enc, len(vals), payload)
	if err != nil {
		t.Fatalf("parse %v payload: %v", enc, err)
	}
	return enc, v
}

// genColumn draws a random column shaped to exercise one encoding family.
func genColumn(rng *rand.Rand, n int) ([]int64, table.Kind) {
	vals := make([]int64, n)
	kind := table.Numeric
	switch rng.Intn(6) {
	case 0: // categorical small domain -> DICT
		kind = table.Categorical
		dom := int64(1 + rng.Intn(40))
		for i := range vals {
			vals[i] = rng.Int63n(dom)
		}
	case 1: // sorted runs -> RLE
		v := int64(rng.Intn(100))
		for i := range vals {
			if rng.Intn(50) == 0 {
				v += int64(rng.Intn(10))
			}
			vals[i] = v
		}
	case 2: // narrow numeric range -> FOR
		base := rng.Int63() - rng.Int63()
		span := int64(1 + rng.Intn(100_000))
		for i := range vals {
			vals[i] = base + rng.Int63n(span)
		}
	case 3: // wide values -> PLAIN
		for i := range vals {
			vals[i] = rng.Int63() - rng.Int63()
		}
	case 4: // constant column (width 0)
		c := rng.Int63() - rng.Int63()
		for i := range vals {
			vals[i] = c
		}
	default: // extremes
		opts := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}
		for i := range vals {
			vals[i] = opts[rng.Intn(len(opts))]
		}
	}
	return vals, kind
}

// TestEncodeDecodeProperty: decode(encode(x)) == x for every encoding the
// chooser picks, across random shapes, including Get and DecodeRange.
func TestEncodeDecodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := make(map[Encoding]int)
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(3000)
		vals, kind := genColumn(rng, n)
		enc, v := encDec(t, vals, kind)
		seen[enc]++
		dec := v.Decode(nil)
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("trial %d enc %v: row %d decoded %d want %d", trial, enc, i, dec[i], vals[i])
			}
		}
		// Random sub-range decode and point access.
		lo := rng.Intn(n)
		cnt := 1 + rng.Intn(n-lo)
		sub := make([]int64, cnt)
		v.DecodeRange(sub, lo, cnt)
		for i := 0; i < cnt; i++ {
			if sub[i] != vals[lo+i] {
				t.Fatalf("trial %d enc %v: DecodeRange[%d+%d] = %d want %d", trial, enc, lo, i, sub[i], vals[lo+i])
			}
		}
		if i := rng.Intn(n); v.Get(i) != vals[i] {
			t.Fatalf("trial %d enc %v: Get(%d) = %d want %d", trial, enc, i, v.Get(i), vals[i])
		}
	}
	for _, e := range []Encoding{EncPlain, EncFOR, EncDict, EncRLE} {
		if seen[e] == 0 {
			t.Errorf("encoding %v never chosen across trials", e)
		}
	}
}

// randPred draws a predicate whose literals straddle the column's range.
func randPred(rng *rand.Rand, vals []int64) expr.Pred {
	pick := func() int64 {
		switch rng.Intn(4) {
		case 0:
			return vals[rng.Intn(len(vals))]
		case 1:
			return vals[rng.Intn(len(vals))] + int64(rng.Intn(7)) - 3
		case 2:
			return int64(rng.Intn(1000)) - 500
		default:
			opts := []int64{math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1, 0}
			return opts[rng.Intn(len(opts))]
		}
	}
	ops := []expr.Op{expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq, expr.In}
	op := ops[rng.Intn(len(ops))]
	if op == expr.In {
		set := make([]int64, 1+rng.Intn(8))
		for i := range set {
			set[i] = pick()
		}
		return expr.NewIn(0, set)
	}
	return expr.Pred{Col: 0, Op: op, Literal: pick()}
}

// TestFilterKernelsMatchReference: every encoding's Filter agrees with
// row-at-a-time Pred.EvalValue over random columns, predicates, and batch
// offsets — the kernel-level half of the bit-identical guarantee.
func TestFilterKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(2600)
		vals, kind := genColumn(rng, n)
		enc, v := encDec(t, vals, kind)
		p := randPred(rng, vals)
		var sel SelVec
		for start := 0; start < n; start += BatchSize {
			cnt := n - start
			if cnt > BatchSize {
				cnt = BatchSize
			}
			v.Filter(p, start, cnt, &sel)
			for i := 0; i < cnt; i++ {
				want := p.EvalValue(vals[start+i])
				if sel.Get(i) != want {
					t.Fatalf("trial %d enc %v pred %v: row %d got %v want %v (val %d)",
						trial, enc, p, start+i, sel.Get(i), want, vals[start+i])
				}
			}
			for i := cnt; i < BatchSize; i++ {
				if sel.Get(i) {
					t.Fatalf("trial %d enc %v: bit %d set beyond batch count %d", trial, enc, i, cnt)
				}
			}
		}
	}
}

func TestSelVecOps(t *testing.T) {
	var s SelVec
	// SetFirst on a dirty vector must clear the bits above n (regression:
	// a full batch followed by a partial batch must not leak stale bits).
	s.SetFirst(BatchSize)
	s.SetFirst(500)
	if s.Count() != 500 {
		t.Fatalf("SetFirst(500) after SetFirst(%d): count %d", BatchSize, s.Count())
	}
	s.Zero()
	s.SetFirst(70)
	if s.Count() != 70 || !s.AllFirst(70) || s.AllFirst(71) {
		t.Fatalf("SetFirst(70): count %d", s.Count())
	}
	s.Zero()
	if !s.None() {
		t.Fatal("Zero left bits set")
	}
	s.SetRange(3, 130)
	if s.Count() != 127 || s.Get(2) || !s.Get(3) || !s.Get(129) || s.Get(130) {
		t.Fatalf("SetRange: count %d", s.Count())
	}
	var o SelVec
	o.SetRange(100, 200)
	s.And(&o)
	if s.Count() != 30 {
		t.Fatalf("And: count %d", s.Count())
	}
	o.Zero()
	o.Set(5)
	s.Or(&o)
	if s.Count() != 31 || !s.Get(5) {
		t.Fatalf("Or: count %d", s.Count())
	}
}

// FuzzEncodeDecode round-trips arbitrary fuzzer-shaped columns through the
// chooser, then checks DecodeRange at fuzzer-chosen start offsets and
// every filter operator against the source values and Pred.EvalValue:
// Lt, Le, Gt, Ge and Eq at a literal from the column, and IN with 1, 3
// and 5 members and with one member more than the packed IN kernel's
// code-space bitmap holds. The encoder must never panic, never lose a
// value, and never mis-filter.
func FuzzEncodeDecode(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, false)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 255, 255}, true)
	f.Add([]byte{128, 0, 1, 7, 7, 7, 7, 42}, false)
	f.Fuzz(func(t *testing.T, data []byte, categorical bool) {
		if len(data) == 0 {
			return
		}
		// Interpret the fuzz payload as a value stream: each byte extends
		// or perturbs the previous value so runs, narrow ranges, and wild
		// jumps all occur.
		vals := make([]int64, 0, len(data))
		v := int64(0)
		for _, b := range data {
			switch b % 4 {
			case 0:
				v += int64(b) // drift
			case 1:
				v = int64(int8(b)) // reset small
			case 2:
				v = v<<7 | int64(b) // grow wide
			case 3:
				// repeat -> runs
			}
			if categorical && v < 0 {
				v = -v
			}
			vals = append(vals, v)
		}
		kind := table.Numeric
		if categorical {
			kind = table.Categorical
		}
		enc, payload := encodeColumn(vals, kind)
		cv, err := parseColVec(enc, len(vals), payload)
		if err != nil {
			t.Fatalf("enc %v: parse own payload: %v", enc, err)
		}
		dec := cv.Decode(nil)
		for i := range vals {
			if dec[i] != vals[i] {
				t.Fatalf("enc %v: row %d decoded %d want %d", enc, i, dec[i], vals[i])
			}
		}
		// DecodeRange from start offsets the payload picks.
		dst := make([]int64, len(vals))
		for _, b := range data[:min(len(data), 8)] {
			start := int(b) % len(vals)
			n := len(vals) - start
			cv.DecodeRange(dst, start, n)
			for i := 0; i < n; i++ {
				if dst[i] != vals[start+i] {
					t.Fatalf("enc %v: DecodeRange(%d, %d) row %d = %d want %d", enc, start, n, i, dst[i], vals[start+i])
				}
			}
		}
		mid := vals[len(vals)/2]
		var preds []expr.Pred
		for _, op := range cmpOps {
			preds = append(preds, expr.Pred{Col: 0, Op: op, Literal: mid})
		}
		for _, size := range []int{1, 3, 5, 64*inBitmapWords + 1} {
			// Members from the column, then its neighbours, so a set
			// straddles the block's code range and most members hit.
			set := make([]int64, size)
			for k := range set {
				set[k] = vals[k%len(vals)] + int64(k/len(vals))
			}
			preds = append(preds, expr.NewIn(0, set))
		}
		var sel SelVec
		for _, p := range preds {
			for start := 0; start < len(vals); start += BatchSize {
				cnt := min(len(vals)-start, BatchSize)
				cv.Filter(p, start, cnt, &sel)
				for i := 0; i < BatchSize; i++ {
					if want := i < cnt && p.EvalValue(vals[start+i]); sel.Get(i) != want {
						t.Fatalf("enc %v pred %v (%d members): row %d got %v want %v", enc, p.Op, len(p.Set), start+i, sel.Get(i), want)
					}
				}
			}
		}
	})
}
