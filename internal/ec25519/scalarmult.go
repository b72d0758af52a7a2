package ec25519

import (
	"fmt"
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

// Table holds affine multiples of one point P for fixed-base
// multiplication with signed w-bit digits: row j holds n·2^(w·j)·P for n
// in [1, 2^(w−1)]. A multiplication is then one mixed addition per
// non-zero digit and no doublings. Width trades build cost and memory for
// speed: width 8 (32 rows × 128 entries, 384 KiB, at most 32 additions)
// is the basepoint's table, built once; width 4 (64 rows × 8 entries,
// 48 KiB, at most 64 additions) costs about as much to build as five
// ladder multiplications, so it pays for a point that is multiplied more
// times than that and then dropped.
type Table struct {
	w       uint
	rows    int
	entries []affineCached // row-major, 2^(w−1) entries per row
}

// NewTable builds the width-w table of p, 1 ≤ w ≤ 8. Its rows cover 254
// bits, one more than a reduced scalar, so the signed recoding's last
// carry always lands in a row.
func NewTable(p *Point, w int) *Table {
	if w < 1 || w > 8 {
		panic(fmt.Sprintf("ec25519: table width %d outside [1, 8]", w))
	}
	half := 1 << (w - 1)
	t := &Table{w: uint(w), rows: (254 + w - 1) / w}
	multiples := make([]Point, t.rows*half)
	base := *p
	for j := 0; j < t.rows; j++ {
		row := multiples[j*half : (j+1)*half]
		var bc cached
		bc.set(&base)
		row[0] = base
		for n := 1; n < half; n++ {
			row[n].addCached(&row[n-1], &bc)
		}
		// Next row's base: 2^w·base = 2·(2^(w−1)·base).
		base.Double(&row[half-1])
	}

	// Normalize every entry to Z = 1 with one shared inversion.
	zs := make([]limb.Element, 2*len(multiples))
	for n := range multiples {
		zs[n] = multiples[n].z
	}
	if err := limb.BatchInvertScratch(zs[:len(multiples)], zs[len(multiples):]); err != nil {
		panic("ec25519: table of invalid point")
	}
	t.entries = make([]affineCached, len(multiples))
	for n := range multiples {
		var x, y limb.Element
		x.Mul(&multiples[n].x, &zs[n])
		y.Mul(&multiples[n].y, &zs[n])
		e := &t.entries[n]
		e.yPlusX.Add(&y, &x)
		e.yMinusX.Sub(&y, &x)
		e.xy2d.Mul(&x, &y)
		e.xy2d.Mul(&e.xy2d, &constD2)
	}
	return t
}

// ScalarMultTable sets v = [k mod L]·P for the point P that t was built
// from (one mixed addition per non-zero signed digit of the scalar, no
// doublings) and returns v.
func (v *Point) ScalarMultTable(k *big.Int, t *Table) *Point {
	scalar := reduceScalar(k)
	var words [5]uint64 // little-endian, one spare so reads never run off
	for i := 0; i < PointLen; i++ {
		words[i/8] |= uint64(scalar[PointLen-1-i]) << (8 * uint(i%8))
	}
	half := uint64(1) << (t.w - 1)
	mask := half<<1 - 1
	var acc Point
	acc.SetIdentity()
	carry := uint64(0)
	for j := 0; j < t.rows; j++ {
		pos := uint(j) * t.w
		idx, off := pos/64, pos%64
		window := words[idx] >> off
		if off > 64-t.w {
			window |= words[idx+1] << (64 - off)
		}
		// A digit above 2^(w−1) becomes digit − 2^w and carries one into
		// the next window.
		d := window&mask + carry
		carry = 0
		row := t.entries[uint64(j)*half:]
		switch {
		case d == 0:
		case d <= half:
			acc.addAffine(&acc, &row[d-1])
		default:
			carry = 1
			if n := mask + 1 - d; n != 0 {
				var neg affineCached
				acc.addAffine(&acc, neg.neg(&row[n-1]))
			}
		}
	}
	return v.Set(&acc)
}

// baseTable is the basepoint's width-8 table, built on first use.
var baseTable = sync.OnceValue(func() *Table { return NewTable(&basepoint, 8) })

// ScalarBaseMult sets v = [k mod L]·B from the basepoint table (at most 32
// mixed additions, no doublings) and returns v.
func (v *Point) ScalarBaseMult(k *big.Int) *Point {
	return v.ScalarMultTable(k, baseTable())
}
