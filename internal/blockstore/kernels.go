package blockstore

// 8-wide unrolled, branch-free comparison kernels for the filter hot
// path. Each loop body computes eight 0/1 match bits with arithmetic
// only (no per-row branch for the CPU to predict), packs them into one
// byte, and ORs that byte into the selection bitmap word — i stays a
// multiple of 8, so the shifted byte never straddles a word boundary.
// RLE stays outside these kernels (filterRLE evaluates per run), and
// every caller zeroes `out` first, so |= writes are sufficient.
//
// The packed (FOR/DICT) kernels and DecodeRange share one unpack step,
// unpack8: eight codes per step, from one unaligned 8-byte load up to
// width 7, two up to width 14, and one per code above, with no per-row
// multiply and no per-value branch. Single codes (ColVec.code) serve
// only Get, the scalar tails and the aggregate kernels' selected rows.
// Packed IN probes a code-space bitmap built on the stack once per
// call, or, for code spaces above its 4096-code cap, binary-searches the
// set's members in the block's range; neither allocates.
//
// Bit tricks (overflow-safe signed less-than via Hacker's Delight):
//   lt(a,b)  = msb( (a-b) ^ ((a^b) & ((a-b)^a)) )
//   ltu(a,b) = msb(a-b)            -- valid while a,b < 2^63; packed
//                                     codes are <= 2^56 (maxPackWidth)
//   eq(a,b)  = 1 ^ msb(x | -x)     where x = a^b
// The remaining operators are operand swaps and/or an XOR with 0xff
// applied to the packed byte (the scalar tails invert per row).

import (
	"encoding/binary"

	"repro/internal/expr"
)

// ltBit returns 1 if a < b (signed, overflow-safe), else 0.
func ltBit(a, b int64) uint64 {
	d := a - b
	return uint64(d^((a^b)&(d^a))) >> 63
}

// eqBit returns 1 if a == b, else 0.
func eqBit(a, b int64) uint64 {
	x := uint64(a ^ b)
	return ((x | -x) >> 63) ^ 1
}

// ltuBit returns 1 if a < b for unsigned operands below 2^63.
func ltuBit(a, b uint64) uint64 {
	return (a - b) >> 63
}

// orByte merges an 8-bit match group starting at row i (i % 8 == 0).
func (s *SelVec) orByte(i int, w uint64) {
	s[i>>6] |= w << (uint(i) & 63)
}

// plainVal loads plain value i of a raw little-endian payload.
func plainVal(raw []byte, i int) int64 {
	return int64(binary.LittleEndian.Uint64(raw[8*i:]))
}

// filterPlainLt writes lt(value, lit) bits, XORed with inv (0 keeps
// Lt, 0xff turns it into Ge). Scalar tail rows invert individually.
func filterPlainLt(raw []byte, n int, lit int64, inv uint64, out *SelVec) {
	i := 0
	for ; i+8 <= n; i += 8 {
		w := ltBit(plainVal(raw, i), lit) |
			ltBit(plainVal(raw, i+1), lit)<<1 |
			ltBit(plainVal(raw, i+2), lit)<<2 |
			ltBit(plainVal(raw, i+3), lit)<<3 |
			ltBit(plainVal(raw, i+4), lit)<<4 |
			ltBit(plainVal(raw, i+5), lit)<<5 |
			ltBit(plainVal(raw, i+6), lit)<<6 |
			ltBit(plainVal(raw, i+7), lit)<<7
		out.orByte(i, w^inv)
	}
	for ; i < n; i++ {
		if (ltBit(plainVal(raw, i), lit)^inv)&1 != 0 {
			out.Set(i)
		}
	}
}

// filterPlainGt writes lt(lit, value) bits, XORed with inv (0 keeps
// Gt, 0xff turns it into Le).
func filterPlainGt(raw []byte, n int, lit int64, inv uint64, out *SelVec) {
	i := 0
	for ; i+8 <= n; i += 8 {
		w := ltBit(lit, plainVal(raw, i)) |
			ltBit(lit, plainVal(raw, i+1))<<1 |
			ltBit(lit, plainVal(raw, i+2))<<2 |
			ltBit(lit, plainVal(raw, i+3))<<3 |
			ltBit(lit, plainVal(raw, i+4))<<4 |
			ltBit(lit, plainVal(raw, i+5))<<5 |
			ltBit(lit, plainVal(raw, i+6))<<6 |
			ltBit(lit, plainVal(raw, i+7))<<7
		out.orByte(i, w^inv)
	}
	for ; i < n; i++ {
		if (ltBit(lit, plainVal(raw, i))^inv)&1 != 0 {
			out.Set(i)
		}
	}
}

// filterPlainEq writes eq(value, lit) bits.
func filterPlainEq(raw []byte, n int, lit int64, out *SelVec) {
	i := 0
	for ; i+8 <= n; i += 8 {
		w := eqBit(plainVal(raw, i), lit) |
			eqBit(plainVal(raw, i+1), lit)<<1 |
			eqBit(plainVal(raw, i+2), lit)<<2 |
			eqBit(plainVal(raw, i+3), lit)<<3 |
			eqBit(plainVal(raw, i+4), lit)<<4 |
			eqBit(plainVal(raw, i+5), lit)<<5 |
			eqBit(plainVal(raw, i+6), lit)<<6 |
			eqBit(plainVal(raw, i+7), lit)<<7
		out.orByte(i, w)
	}
	for ; i < n; i++ {
		if plainVal(raw, i) == lit {
			out.Set(i)
		}
	}
}

// unpack8 returns the eight w-bit codes that start at bit offset bit of
// a packed payload, and the offset just past them. Eight codes and the
// offset's 0..7 bits within its first byte span at most 8w+7 bits, so
// up to width 7 one unaligned 8-byte load holds all eight, and up to
// width 14 two loads hold four each; wider codes take one load each,
// from an offset that grows by w. No row index is multiplied, the width
// test is once per eight codes (never per value), packSlack keeps every
// load in bounds, and mask 0 (width 0) yields zeros.
func unpack8(packed []byte, bit, w uint, mask uint64) (c0, c1, c2, c3, c4, c5, c6, c7 uint64, next uint) {
	next = bit + 8*w
	if w <= 14 {
		x := binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7)
		c0, c1, c2, c3 = x&mask, x>>w&mask, x>>(2*w)&mask, x>>(3*w)&mask
		if w <= 7 {
			x >>= 4 * w
		} else {
			bit += 4 * w
			x = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7)
		}
		c4, c5, c6, c7 = x&mask, x>>w&mask, x>>(2*w)&mask, x>>(3*w)&mask
		return c0, c1, c2, c3, c4, c5, c6, c7, next
	}
	c0 = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
	bit += w
	c1 = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
	bit += w
	c2 = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
	bit += w
	c3 = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
	bit += w
	c4 = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
	bit += w
	c5 = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
	bit += w
	c6 = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
	bit += w
	c7 = binary.LittleEndian.Uint64(packed[bit>>3:]) >> (bit & 7) & mask
	return c0, c1, c2, c3, c4, c5, c6, c7, next
}

// filterPackedLt writes ltu(code, d) bits over packed codes, XORed
// with inv (0 keeps Lt-in-code-space, 0xff turns it into Ge).
func (v *ColVec) filterPackedLt(start, n int, d uint64, inv uint64, out *SelVec) {
	bit := uint(start) * v.width
	i := 0
	for ; i+8 <= n; i += 8 {
		var c0, c1, c2, c3, c4, c5, c6, c7 uint64
		c0, c1, c2, c3, c4, c5, c6, c7, bit = unpack8(v.packed, bit, v.width, v.mask)
		w := ltuBit(c0, d) | ltuBit(c1, d)<<1 | ltuBit(c2, d)<<2 | ltuBit(c3, d)<<3 |
			ltuBit(c4, d)<<4 | ltuBit(c5, d)<<5 | ltuBit(c6, d)<<6 | ltuBit(c7, d)<<7
		out.orByte(i, w^inv)
	}
	for ; i < n; i++ {
		if (ltuBit(v.code(start+i), d)^inv)&1 != 0 {
			out.Set(i)
		}
	}
}

// filterPackedGt writes ltu(d, code) bits, XORed with inv (0 keeps Gt,
// 0xff turns it into Le).
func (v *ColVec) filterPackedGt(start, n int, d uint64, inv uint64, out *SelVec) {
	bit := uint(start) * v.width
	i := 0
	for ; i+8 <= n; i += 8 {
		var c0, c1, c2, c3, c4, c5, c6, c7 uint64
		c0, c1, c2, c3, c4, c5, c6, c7, bit = unpack8(v.packed, bit, v.width, v.mask)
		w := ltuBit(d, c0) | ltuBit(d, c1)<<1 | ltuBit(d, c2)<<2 | ltuBit(d, c3)<<3 |
			ltuBit(d, c4)<<4 | ltuBit(d, c5)<<5 | ltuBit(d, c6)<<6 | ltuBit(d, c7)<<7
		out.orByte(i, w^inv)
	}
	for ; i < n; i++ {
		if (ltuBit(d, v.code(start+i))^inv)&1 != 0 {
			out.Set(i)
		}
	}
}

// filterPackedEq writes eq(code, d) bits.
func (v *ColVec) filterPackedEq(start, n int, d uint64, out *SelVec) {
	bit, di := uint(start)*v.width, int64(d)
	i := 0
	for ; i+8 <= n; i += 8 {
		var c0, c1, c2, c3, c4, c5, c6, c7 uint64
		c0, c1, c2, c3, c4, c5, c6, c7, bit = unpack8(v.packed, bit, v.width, v.mask)
		w := eqBit(int64(c0), di) | eqBit(int64(c1), di)<<1 | eqBit(int64(c2), di)<<2 |
			eqBit(int64(c3), di)<<3 | eqBit(int64(c4), di)<<4 | eqBit(int64(c5), di)<<5 |
			eqBit(int64(c6), di)<<6 | eqBit(int64(c7), di)<<7
		out.orByte(i, w)
	}
	for ; i < n; i++ {
		if v.code(start+i) == d {
			out.Set(i)
		}
	}
}

// filterPackedInBitmap writes membership bits of each code in bm, a
// code-space bitmap; the caller guarantees every code is below 4096, so
// the word index masked to 63 never drops a bit.
func (v *ColVec) filterPackedInBitmap(start, n int, bm *[inBitmapWords]uint64, out *SelVec) {
	bit := uint(start) * v.width
	i := 0
	for ; i+8 <= n; i += 8 {
		var c0, c1, c2, c3, c4, c5, c6, c7 uint64
		c0, c1, c2, c3, c4, c5, c6, c7, bit = unpack8(v.packed, bit, v.width, v.mask)
		w := bmBit(bm, c0) | bmBit(bm, c1)<<1 | bmBit(bm, c2)<<2 | bmBit(bm, c3)<<3 |
			bmBit(bm, c4)<<4 | bmBit(bm, c5)<<5 | bmBit(bm, c6)<<6 | bmBit(bm, c7)<<7
		out.orByte(i, w)
	}
	for ; i < n; i++ {
		if bmBit(bm, v.code(start+i)) != 0 {
			out.Set(i)
		}
	}
}

// filterPackedInSorted writes membership bits of each value base+code in
// set, a sorted slice, with a binary search per code.
func (v *ColVec) filterPackedInSorted(start, n int, set []int64, out *SelVec) {
	bit, base := uint(start)*v.width, v.base
	i := 0
	for ; i+8 <= n; i += 8 {
		var c0, c1, c2, c3, c4, c5, c6, c7 uint64
		c0, c1, c2, c3, c4, c5, c6, c7, bit = unpack8(v.packed, bit, v.width, v.mask)
		w := inSorted(set, base+int64(c0)) | inSorted(set, base+int64(c1))<<1 |
			inSorted(set, base+int64(c2))<<2 | inSorted(set, base+int64(c3))<<3 |
			inSorted(set, base+int64(c4))<<4 | inSorted(set, base+int64(c5))<<5 |
			inSorted(set, base+int64(c6))<<6 | inSorted(set, base+int64(c7))<<7
		out.orByte(i, w)
	}
	for ; i < n; i++ {
		if inSorted(set, base+int64(v.code(start+i))) != 0 {
			out.Set(i)
		}
	}
}

// inBitmapWords sizes the packed IN kernel's code-space bitmap: 4096
// codes in 512 bytes, small enough to build on the stack per call.
const inBitmapWords = 64

// bmBit returns bit c of a code-space bitmap (c < 64*inBitmapWords).
func bmBit(bm *[inBitmapWords]uint64, c uint64) uint64 {
	return bm[(c>>6)&(inBitmapWords-1)] >> (c & 63) & 1
}

// inSorted returns 1 if x is a member of the non-empty sorted set, else
// 0. The search keeps the last member <= x, and its loop count depends
// only on len(set). (An arithmetic step in place of the if measured
// slower.)
func inSorted(set []int64, x int64) uint64 {
	lo := 0
	for n := len(set); n > 1; {
		half := n >> 1
		if set[lo+half] <= x {
			lo += half
		}
		n -= half
	}
	return eqBit(set[lo], x)
}

// CmpSelect writes the selection of a[i] op b[i] over rows [0, n) into
// out (which must be zeroed) with the same 8-wide branch-free bodies —
// the advanced-cut (column vs column) kernel.
func CmpSelect(op expr.Op, a, b []int64, n int, out *SelVec) {
	var inv uint64
	switch op {
	case expr.Ge, expr.Le:
		inv = 0xff
	}
	switch op {
	case expr.Lt, expr.Ge: // Ge = not(Lt)
		i := 0
		for ; i+8 <= n; i += 8 {
			w := ltBit(a[i], b[i]) |
				ltBit(a[i+1], b[i+1])<<1 |
				ltBit(a[i+2], b[i+2])<<2 |
				ltBit(a[i+3], b[i+3])<<3 |
				ltBit(a[i+4], b[i+4])<<4 |
				ltBit(a[i+5], b[i+5])<<5 |
				ltBit(a[i+6], b[i+6])<<6 |
				ltBit(a[i+7], b[i+7])<<7
			out.orByte(i, w^inv)
		}
		for ; i < n; i++ {
			if (ltBit(a[i], b[i])^inv)&1 != 0 {
				out.Set(i)
			}
		}
	case expr.Gt, expr.Le: // Gt = Lt swapped, Le = not(Gt)
		i := 0
		for ; i+8 <= n; i += 8 {
			w := ltBit(b[i], a[i]) |
				ltBit(b[i+1], a[i+1])<<1 |
				ltBit(b[i+2], a[i+2])<<2 |
				ltBit(b[i+3], a[i+3])<<3 |
				ltBit(b[i+4], a[i+4])<<4 |
				ltBit(b[i+5], a[i+5])<<5 |
				ltBit(b[i+6], a[i+6])<<6 |
				ltBit(b[i+7], a[i+7])<<7
			out.orByte(i, w^inv)
		}
		for ; i < n; i++ {
			if (ltBit(b[i], a[i])^inv)&1 != 0 {
				out.Set(i)
			}
		}
	case expr.Eq:
		i := 0
		for ; i+8 <= n; i += 8 {
			w := eqBit(a[i], b[i]) |
				eqBit(a[i+1], b[i+1])<<1 |
				eqBit(a[i+2], b[i+2])<<2 |
				eqBit(a[i+3], b[i+3])<<3 |
				eqBit(a[i+4], b[i+4])<<4 |
				eqBit(a[i+5], b[i+5])<<5 |
				eqBit(a[i+6], b[i+6])<<6 |
				eqBit(a[i+7], b[i+7])<<7
			out.orByte(i, w)
		}
		for ; i < n; i++ {
			if a[i] == b[i] {
				out.Set(i)
			}
		}
	}
}
