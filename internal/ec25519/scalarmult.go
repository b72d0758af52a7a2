package ec25519

import (
	"math/big"
	"sync"

	"repro/internal/field/limb"
)

// reduceScalar returns k mod L as 32 big-endian bytes.
func reduceScalar(k *big.Int) (buf [PointLen]byte) {
	if k.Sign() < 0 || k.Cmp(orderL) >= 0 {
		k = new(big.Int).Mod(k, orderL)
	}
	k.FillBytes(buf[:])
	return buf
}

// nafWidth is the window of the variable-base ladder: digits are odd, in
// (−2^(w−1), 2^(w−1)), and any w consecutive digits hold at most one
// non-zero one, so a 253-bit scalar costs about 253/(w+1) additions on top
// of its doublings, from a table of 2^(w−2) odd multiples.
const nafWidth = 5

// nafLen bounds the digit count: a scalar below 2^253 recodes into at most
// 254 digits.
const nafLen = 256

// wnaf recodes the scalar (32 big-endian bytes, below 2^253) into
// width-nafWidth non-adjacent form, least significant digit first, and
// returns the index of the highest non-zero digit (−1 for zero).
func wnaf(naf *[nafLen]int8, scalar *[PointLen]byte) (top int) {
	var w [5]uint64 // little-endian words, one spare so reads never run off
	for i := 0; i < PointLen; i++ {
		w[i/8] |= uint64(scalar[PointLen-1-i]) << (8 * uint(i%8))
	}
	top = -1
	carry := uint64(0)
	for pos := 0; pos < nafLen; {
		idx, off := pos/64, uint(pos%64)
		window := w[idx] >> off
		if off > 64-nafWidth {
			window |= w[idx+1] << (64 - off)
		}
		window = window&(1<<nafWidth-1) + carry
		if window&1 == 0 {
			// An even window keeps its carry (0 + 0 or 1 + 1) for the next bit.
			pos++
			continue
		}
		carry = 0
		digit := int8(window)
		if window > 1<<(nafWidth-1) {
			digit = int8(int64(window) - 1<<nafWidth)
			carry = 1
		}
		naf[pos] = digit
		top = pos
		pos += nafWidth
	}
	return top
}

// ScalarMult sets v = [k mod L]·p and returns v: a width-5 signed-digit
// ladder over the odd multiples p, 3p, …, 15p (variable time; see the
// package comment). v may alias p.
func (v *Point) ScalarMult(k *big.Int, p *Point) *Point {
	scalar := reduceScalar(k)
	var naf [nafLen]int8
	top := wnaf(&naf, &scalar)

	var table [1 << (nafWidth - 2)]cached
	var p2 cached
	var acc Point
	p2.set(acc.Double(p))
	table[0].set(acc.Set(p))
	for i := 1; i < len(table); i++ {
		table[i].set(acc.addCached(&acc, &p2))
	}

	acc.SetIdentity()
	for i := top; i >= 0; i-- {
		d := naf[i]
		// T is read only by an addition and by the caller.
		acc.double(&acc, d != 0 || i == 0)
		switch {
		case d > 0:
			acc.addCached(&acc, &table[d>>1])
		case d < 0:
			var neg cached
			acc.addCached(&acc, neg.neg(&table[(-d)>>1]))
		}
	}
	return v.Set(&acc)
}

// baseTable caches affine multiples of the basepoint, one row per scalar
// byte: rows[j][n−1] = n·256^j·B for n in [1, 128]. With signed byte
// digits in [−128, 128] a fixed-base multiplication is at most 32 mixed
// additions and no doublings. 32·128 entries of three field elements are
// 384 KiB, built once on first use.
var baseTable struct {
	once sync.Once
	rows [PointLen][128]affineCached
}

func buildBaseTable() {
	base := basepoint
	var multiples [128]Point
	zs := make([]limb.Element, 2*len(multiples))
	for j := range baseTable.rows {
		var bc cached
		bc.set(&base)
		multiples[0] = base
		for n := 1; n < len(multiples); n++ {
			multiples[n].addCached(&multiples[n-1], &bc)
		}
		// Next row's base: 256^(j+1)·B = 2·(128·256^j·B).
		base.Double(&multiples[len(multiples)-1])

		// Normalize the row to Z = 1 with one shared inversion.
		for n := range multiples {
			zs[n] = multiples[n].z
		}
		if err := limb.BatchInvertScratch(zs[:len(multiples)], zs[len(multiples):]); err != nil {
			panic("ec25519: basepoint multiple with Z = 0")
		}
		for n := range multiples {
			var x, y limb.Element
			x.Mul(&multiples[n].x, &zs[n])
			y.Mul(&multiples[n].y, &zs[n])
			e := &baseTable.rows[j][n]
			e.yPlusX.Add(&y, &x)
			e.yMinusX.Sub(&y, &x)
			e.xy2d.Mul(&x, &y)
			e.xy2d.Mul(&e.xy2d, &constD2)
		}
	}
}

// ScalarBaseMult sets v = [k mod L]·B from the basepoint table (one mixed
// addition per non-zero signed byte of the scalar, no doublings) and
// returns v.
func (v *Point) ScalarBaseMult(k *big.Int) *Point {
	baseTable.once.Do(buildBaseTable)
	scalar := reduceScalar(k)
	var acc Point
	acc.SetIdentity()
	carry := 0
	for j := range baseTable.rows {
		// Byte j counts from the least significant end. A byte above 128
		// becomes byte − 256 and carries one into the next; the top byte
		// of a reduced scalar is at most 0x10, so the last carry is zero.
		d := int(scalar[PointLen-1-j]) + carry
		carry = 0
		if d > 128 {
			d -= 256
			carry = 1
		}
		switch {
		case d > 0:
			acc.addAffine(&acc, &baseTable.rows[j][d-1])
		case d < 0:
			var neg affineCached
			acc.addAffine(&acc, neg.neg(&baseTable.rows[j][-d-1]))
		}
	}
	return v.Set(&acc)
}
