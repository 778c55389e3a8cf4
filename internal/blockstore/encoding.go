// Per-column encodings for block format v2. Each column of a block is
// written in the cheapest of four encodings, chosen at write time from the
// actual values:
//
//	PLAIN  fixed-width 8-byte little-endian values (the v1 layout)
//	FOR    frame-of-reference bit-packing: base + w-bit offsets, for
//	       numeric columns whose block-local range is narrow
//	DICT   bit-packed dictionary codes for categorical columns, reusing
//	       the dictionary persisted in the catalog (codes are already
//	       dictionary positions, so no per-block dictionary is stored)
//	RLE    run-length (value, length) pairs, for sorted or
//	       low-cardinality runs
//
// The filter kernels below evaluate predicates directly over the encoded
// representation: comparisons against FOR/DICT columns are translated into
// code space once per batch — equality on a dictionary column compares
// packed codes without decoding — and RLE evaluates each run's value once,
// filling whole spans of the selection bitmap. Selection is tracked in
// batch-of-BatchSize bitmaps (SelVec) so AND/OR combination and match
// counting are word-parallel.
package blockstore

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/expr"
	"repro/internal/table"
)

// Encoding identifies one column encoding in block format v2.
type Encoding uint8

// Column encodings. The numeric values are persisted in catalogs and block
// files and must not be renumbered.
const (
	EncPlain Encoding = 0
	EncFOR   Encoding = 1
	EncDict  Encoding = 2
	EncRLE   Encoding = 3
)

// String returns the encoding name.
func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncFOR:
		return "for"
	case EncDict:
		return "dict"
	case EncRLE:
		return "rle"
	}
	return fmt.Sprintf("enc(%d)", uint8(e))
}

// maxPackWidth caps FOR/DICT bit widths so a single unaligned 64-bit load
// (8-byte read at bit offset 0..7) always covers a full code. Ranges wider
// than 56 bits save little over PLAIN and fall back to it.
const maxPackWidth = 56

// packSlack is the extra zero bytes kept after a packed payload so code
// extraction can issue 8-byte loads at any in-range bit offset.
const packSlack = 8

// BatchSize is the selection-bitmap batch width of the vectorized filter
// kernels: predicates are evaluated 1024 rows at a time.
const BatchSize = 1024

// batchWords is the word count of one selection batch.
const batchWords = BatchSize / 64

// SelVec is a batch-of-BatchSize selection bitmap. Kernels keep the
// invariant that bits at and above the batch's row count are zero, so
// popcounts and emptiness checks never need a mask.
type SelVec [batchWords]uint64

// Zero clears every bit.
func (s *SelVec) Zero() { *s = SelVec{} }

// SetFirst sets bits [0, n) and clears every bit above, so it upholds the
// bits-above-count-are-zero invariant even on a reused dirty vector.
func (s *SelVec) SetFirst(n int) {
	w := 0
	for ; n >= 64; w++ {
		s[w] = ^uint64(0)
		n -= 64
	}
	if n > 0 {
		s[w] = (uint64(1) << uint(n)) - 1
		w++
	}
	for ; w < batchWords; w++ {
		s[w] = 0
	}
}

// Set sets bit i.
func (s *SelVec) Set(i int) { s[i>>6] |= 1 << uint(i&63) }

// Get reports bit i.
func (s *SelVec) Get(i int) bool { return s[i>>6]&(1<<uint(i&63)) != 0 }

// SetRange sets bits [lo, hi).
func (s *SelVec) SetRange(lo, hi int) {
	for i := lo; i < hi && i&63 != 0; i++ {
		s.Set(i)
		lo++
	}
	for ; lo+64 <= hi; lo += 64 {
		s[lo>>6] = ^uint64(0)
	}
	for ; lo < hi; lo++ {
		s.Set(lo)
	}
}

// And intersects s with o in place.
func (s *SelVec) And(o *SelVec) {
	for w := range s {
		s[w] &= o[w]
	}
}

// Or unions o into s in place.
func (s *SelVec) Or(o *SelVec) {
	for w := range s {
		s[w] |= o[w]
	}
}

// None reports whether no bit is set.
func (s *SelVec) None() bool {
	for _, w := range s {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (s *SelVec) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// AllFirst reports whether every bit in [0, n) is set.
func (s *SelVec) AllFirst(n int) bool {
	return s.Count() == n
}

// ColVec is one column of one block in its on-disk encoding, ready for
// kernel evaluation or decoding. Construct with parseColVecInto (readers) or
// encodeColumn (writers/tests).
type ColVec struct {
	Enc Encoding
	N   int // rows

	// PLAIN: raw holds N little-endian 8-byte values.
	raw []byte

	// FOR / DICT: value = base + code, code packed LSB-first at width bits.
	// DICT fixes base to 0 (codes are schema dictionary positions). packed
	// has packSlack readable bytes beyond the payload for unaligned loads.
	base   int64
	width  uint
	mask   uint64
	packed []byte

	// RLE: runVals[i] repeats for rows [runEnds[i-1], runEnds[i]).
	runVals []int64
	runEnds []int32
}

// Get returns value i (reference/debug path; kernels do not use it).
func (v *ColVec) Get(i int) int64 {
	switch v.Enc {
	case EncPlain:
		return int64(binary.LittleEndian.Uint64(v.raw[8*i:]))
	case EncFOR, EncDict:
		return v.base + int64(v.code(i))
	case EncRLE:
		r := sort.Search(len(v.runEnds), func(k int) bool { return v.runEnds[k] > int32(i) })
		return v.runVals[r]
	}
	panic("blockstore: Get on unknown encoding")
}

// code extracts the packed w-bit code of row i, for Get, the kernels'
// scalar tails and the aggregate kernels' selected rows; runs of rows
// unpack eight codes per step (unpack8). Width 0 needs no branch: its
// mask is 0 and packSlack keeps the load in bounds.
func (v *ColVec) code(i int) uint64 {
	bitpos := uint(i) * v.width
	return binary.LittleEndian.Uint64(v.packed[bitpos>>3:]) >> (bitpos & 7) & v.mask
}

// Decode materializes the whole column into dst (grown if needed).
func (v *ColVec) Decode(dst []int64) []int64 {
	if cap(dst) < v.N {
		dst = make([]int64, v.N)
	}
	dst = dst[:v.N]
	v.DecodeRange(dst, 0, v.N)
	return dst
}

// DecodeRange materializes rows [start, start+n) into dst[:n].
func (v *ColVec) DecodeRange(dst []int64, start, n int) {
	switch v.Enc {
	case EncPlain:
		for i := 0; i < n; i++ {
			dst[i] = int64(binary.LittleEndian.Uint64(v.raw[8*(start+i):]))
		}
	case EncFOR, EncDict:
		base, bit := v.base, uint(start)*v.width
		i := 0
		for ; i+8 <= n; i += 8 {
			var c0, c1, c2, c3, c4, c5, c6, c7 uint64
			c0, c1, c2, c3, c4, c5, c6, c7, bit = unpack8(v.packed, bit, v.width, v.mask)
			d := dst[i : i+8 : i+8]
			d[0], d[1], d[2], d[3] = base+int64(c0), base+int64(c1), base+int64(c2), base+int64(c3)
			d[4], d[5], d[6], d[7] = base+int64(c4), base+int64(c5), base+int64(c6), base+int64(c7)
		}
		for ; i < n; i++ {
			dst[i] = base + int64(v.code(start+i))
		}
	case EncRLE:
		r := sort.Search(len(v.runEnds), func(k int) bool { return v.runEnds[k] > int32(start) })
		for i := 0; i < n; {
			end := int(v.runEnds[r]) - start
			if end > n {
				end = n
			}
			val := v.runVals[r]
			for ; i < end; i++ {
				dst[i] = val
			}
			r++
		}
	}
}

// Filter evaluates predicate p over rows [start, start+n) and writes the
// selection into out (bit i = row start+i matches). out is fully
// overwritten; bits at and above n stay zero.
func (v *ColVec) Filter(p expr.Pred, start, n int, out *SelVec) {
	out.Zero()
	switch v.Enc {
	case EncPlain:
		v.filterPlain(p, start, n, out)
	case EncFOR, EncDict:
		v.filterPacked(p, start, n, out)
	case EncRLE:
		v.filterRLE(p, start, n, out)
	}
}

// filterPlain compares raw little-endian values through the 8-wide
// branch-free kernels in kernels.go. Le and Ge ride the Gt/Lt kernels
// with their output bytes inverted; In stays row-wise (set membership
// has no branch-free form worth the setup cost).
func (v *ColVec) filterPlain(p expr.Pred, start, n int, out *SelVec) {
	raw := v.raw[8*start:]
	lit := p.Literal
	switch p.Op {
	case expr.Lt:
		filterPlainLt(raw, n, lit, 0, out)
	case expr.Ge:
		filterPlainLt(raw, n, lit, 0xff, out)
	case expr.Gt:
		filterPlainGt(raw, n, lit, 0, out)
	case expr.Le:
		filterPlainGt(raw, n, lit, 0xff, out)
	case expr.Eq:
		filterPlainEq(raw, n, lit, out)
	case expr.In:
		for i := 0; i < n; i++ {
			if p.InSet(int64(binary.LittleEndian.Uint64(raw[8*i:]))) {
				out.Set(i)
			}
		}
	}
}

// filterPacked translates the predicate into code space once — literal L
// against value base+code becomes a bound on the code — then compares
// packed codes without decoding. Out-of-range literals resolve to
// all-match or no-match without touching the payload at all. IN keeps
// the set's members inside the block's range: one member is an Eq, a
// code space below 4096 codes is a 512-byte bitmap on the stack probed
// eight rows per step, and a wider one binary-searches the members; no
// path allocates.
func (v *ColVec) filterPacked(p expr.Pred, start, n int, out *SelVec) {
	maxCode := v.mask // (1<<width)-1; 0 for constant columns
	switch p.Op {
	case expr.Lt, expr.Le, expr.Gt, expr.Ge, expr.Eq:
		lit, base := p.Literal, v.base
		// d = L - base, exact in uint64 whenever L >= base.
		var d uint64
		below := lit < base // literal below every representable value
		if !below {
			d = uint64(lit) - uint64(base)
		}
		// Codes and d fit in maxPackWidth < 63 bits, so the unsigned
		// branch-free kernels apply; Le/Ge invert the Gt/Lt output bytes.
		switch p.Op {
		case expr.Lt:
			if below || d == 0 {
				return // nothing is < L
			}
			if d > maxCode {
				out.SetFirst(n)
				return
			}
			v.filterPackedLt(start, n, d, 0, out)
		case expr.Le:
			if below {
				return
			}
			if d >= maxCode {
				out.SetFirst(n)
				return
			}
			v.filterPackedGt(start, n, d, 0xff, out)
		case expr.Gt:
			if below {
				out.SetFirst(n)
				return
			}
			if d >= maxCode {
				return // nothing is > L
			}
			v.filterPackedGt(start, n, d, 0, out)
		case expr.Ge:
			if below || d == 0 {
				out.SetFirst(n)
				return
			}
			if d > maxCode {
				return
			}
			v.filterPackedLt(start, n, d, 0xff, out)
		case expr.Eq:
			if below || d > maxCode {
				return
			}
			if maxCode == 0 { // constant column, and d == 0
				out.SetFirst(n)
				return
			}
			v.filterPackedEq(start, n, d, out)
		}
	case expr.In:
		// The members inside the block's representable range
		// [base, base+maxCode] are one window of the sorted set, and
		// code = value - base maps them in order.
		set := p.Set
		lo := sort.Search(len(set), func(k int) bool { return set[k] >= v.base })
		hi := lo + sort.Search(len(set)-lo, func(k int) bool {
			return uint64(set[lo+k])-uint64(v.base) > maxCode
		})
		set = set[lo:hi]
		switch {
		case len(set) == 0:
			return
		case len(set) == 1:
			v.filterPackedEq(start, n, uint64(set[0])-uint64(v.base), out)
		case maxCode < 64*inBitmapWords:
			var bm [inBitmapWords]uint64
			for _, s := range set {
				c := uint64(s) - uint64(v.base)
				bm[c>>6] |= 1 << (c & 63)
			}
			v.filterPackedInBitmap(start, n, &bm, out)
		default:
			v.filterPackedInSorted(start, n, set, out)
		}
	}
}

// filterRLE evaluates the predicate once per run and fills span bits.
func (v *ColVec) filterRLE(p expr.Pred, start, n int, out *SelVec) {
	r := sort.Search(len(v.runEnds), func(k int) bool { return v.runEnds[k] > int32(start) })
	for i := 0; i < n; {
		end := int(v.runEnds[r]) - start
		if end > n {
			end = n
		}
		if p.EvalValue(v.runVals[r]) {
			out.SetRange(i, end)
		}
		i = end
		r++
	}
}

// --- encoding (write path) ---

// encodeColumn picks the cheapest encoding for one column of one block and
// returns it with the encoded payload (no slack bytes). kind selects the
// bit-packing flavor: categorical columns pack raw dictionary codes (DICT,
// base 0), numeric columns pack offsets from the block minimum (FOR).
func encodeColumn(vals []int64, kind table.Kind) (Encoding, []byte) {
	n := len(vals)
	lo, hi := vals[0], vals[0]
	runs := 1
	for i := 1; i < n; i++ {
		v := vals[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if v != vals[i-1] {
			runs++
		}
	}

	plainSize := 8 * n
	rleSize := 4 + 12*runs

	packEnc := EncFOR
	packBase := lo
	packRange := uint64(hi) - uint64(lo)
	if kind == table.Categorical && lo >= 0 {
		// DICT packs raw dictionary codes so equality filters compare the
		// literal's code directly.
		packEnc = EncDict
		packBase = 0
		packRange = uint64(hi)
	}
	width := uint(bits.Len64(packRange))
	packSize := -1
	if width <= maxPackWidth {
		header := 1 // width byte
		if packEnc == EncFOR {
			header += 8 // base
		}
		packSize = header + (n*int(width)+7)/8
	}

	best, bestSize := EncPlain, plainSize
	if rleSize < bestSize {
		best, bestSize = EncRLE, rleSize
	}
	if packSize >= 0 && packSize < bestSize {
		best = packEnc
	}

	switch best {
	case EncRLE:
		out := make([]byte, 4, rleSize)
		binary.LittleEndian.PutUint32(out, uint32(runs))
		var buf [12]byte
		start := 0
		for i := 1; i <= n; i++ {
			if i == n || vals[i] != vals[start] {
				binary.LittleEndian.PutUint64(buf[0:8], uint64(vals[start]))
				binary.LittleEndian.PutUint32(buf[8:12], uint32(i-start))
				out = append(out, buf[:]...)
				start = i
			}
		}
		return EncRLE, out
	case EncFOR, EncDict:
		var out []byte
		if best == EncFOR {
			out = make([]byte, 9, 9+(n*int(width)+7)/8)
			binary.LittleEndian.PutUint64(out, uint64(packBase))
			out[8] = byte(width)
		} else {
			out = make([]byte, 1, 1+(n*int(width)+7)/8)
			out[0] = byte(width)
		}
		var acc uint64
		var nb uint
		for _, v := range vals {
			acc |= (uint64(v) - uint64(packBase)) << nb
			nb += width
			for nb >= 8 {
				out = append(out, byte(acc))
				acc >>= 8
				nb -= 8
			}
		}
		if nb > 0 {
			out = append(out, byte(acc))
		}
		return best, out
	}
	out := make([]byte, 8*n)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return EncPlain, out
}

// parseColVecInto validates one encoded column payload and wraps it in v,
// which is overwritten; cs (optional) donates reusable RLE run slices, so
// an arena-backed scan parses every block of a query with zero per-block
// allocations. For packed encodings the payload slice must have
// packSlack spare capacity (see ReadColVecsArena), or parsing copies it.
func parseColVecInto(v *ColVec, enc Encoding, n int, payload []byte, cs *colScratch) error {
	*v = ColVec{Enc: enc, N: n}
	switch enc {
	case EncPlain:
		if len(payload) != 8*n {
			return fmt.Errorf("blockstore: plain column holds %d bytes for %d rows", len(payload), n)
		}
		v.raw = payload
	case EncFOR, EncDict:
		header := 1
		if enc == EncFOR {
			header = 9
			if len(payload) < 9 {
				return fmt.Errorf("blockstore: truncated FOR column header")
			}
			v.base = int64(binary.LittleEndian.Uint64(payload))
		} else if len(payload) < 1 {
			return fmt.Errorf("blockstore: truncated DICT column header")
		}
		v.width = uint(payload[header-1])
		if v.width > maxPackWidth {
			return fmt.Errorf("blockstore: packed width %d exceeds max %d", v.width, maxPackWidth)
		}
		packedLen := (n*int(v.width) + 7) / 8
		if len(payload) != header+packedLen {
			return fmt.Errorf("blockstore: packed column holds %d bytes, want %d", len(payload), header+packedLen)
		}
		v.mask = (uint64(1) << v.width) - 1
		// Extend the packed slice by packSlack bytes so code extraction can
		// always load 8 bytes; any content there is shifted and masked away.
		if pk := payload[header:]; cap(pk) >= packedLen+packSlack {
			v.packed = pk[:packedLen+packSlack]
		} else {
			v.packed = make([]byte, packedLen+packSlack)
			copy(v.packed, pk)
		}
	case EncRLE:
		if len(payload) < 4 {
			return fmt.Errorf("blockstore: truncated RLE column header")
		}
		runs := int(binary.LittleEndian.Uint32(payload))
		if len(payload) != 4+12*runs {
			return fmt.Errorf("blockstore: RLE column holds %d bytes for %d runs", len(payload), runs)
		}
		if cs != nil && cap(cs.runVals) >= runs && cap(cs.runEnds) >= runs {
			v.runVals = cs.runVals[:runs]
			v.runEnds = cs.runEnds[:runs]
		} else {
			v.runVals = make([]int64, runs)
			v.runEnds = make([]int32, runs)
			if cs != nil {
				cs.runVals = v.runVals
				cs.runEnds = v.runEnds
			}
		}
		total := int32(0)
		for r := 0; r < runs; r++ {
			off := 4 + 12*r
			v.runVals[r] = int64(binary.LittleEndian.Uint64(payload[off:]))
			rl := int32(binary.LittleEndian.Uint32(payload[off+8:]))
			if rl <= 0 {
				return fmt.Errorf("blockstore: RLE run %d has length %d", r, rl)
			}
			total += rl
			v.runEnds[r] = total
		}
		if int(total) != n {
			return fmt.Errorf("blockstore: RLE runs cover %d rows of %d", total, n)
		}
	default:
		return fmt.Errorf("blockstore: unknown column encoding %d", enc)
	}
	return nil
}
