// Package ec25519 implements the twisted Edwards curve edwards25519
// (−x² + y² = 1 + d·x²y² over F_p, p = 2^255 − 19) on the fixed-width
// limb field. It is the oblivious-transfer layer's group: the
// prime-order subgroup generated by the standard basepoint (order
// L ≈ 2^252) is a DDH group, which is all the Naor–Pinkas construction
// asks for, and its exponentiations cost microseconds.
//
// Points use extended homogeneous coordinates (X : Y : Z : T) with
// x = X/Z, y = Y/Z, T = XY/Z. Addition is the unified Hisil–Wong–Carter–
// Dawson formula, which is complete on this curve (a = −1 is a square,
// d is not), so it handles doublings, the identity, and inverses without
// case analysis; the second operand is first brought into the cached form
// (Y+X, Y−X, Z, 2d·T), which is also how table entries are stored.
// Doubling has its own formula (four squarings, no curve constant).
// Scalar multiplication is variable time — a width-5 signed-digit ladder
// for an arbitrary point, and one Table type of affine multiples with a
// width parameter for fixed-base work (scalarmult.go): the basepoint's is
// its cached width-8 instance, and a caller that multiplies one point many
// times builds a width-4 one — which is fine in the honest-but-curious
// model of the paper, where OT exponents protect only against the *other*
// protocol party, not against a local timing observer.
//
// The wire encoding is the RFC 8032 compressed form: 32 bytes, the
// little-endian y coordinate with the parity of x in the top bit of the
// last byte.
package ec25519

import (
	"errors"
	"fmt"
	"math/big"

	"repro/internal/field/limb"
)

// PointLen is the compressed point encoding size in bytes.
const PointLen = 32

// ErrNotOnCurve reports an encoding that is not a canonical compressed
// point of the curve.
var ErrNotOnCurve = errors.New("ec25519: invalid point encoding")

// Point is a curve point in extended coordinates. The zero value is NOT a
// valid point; use SetIdentity, Decode, or one of the multiplication
// methods to initialize it.
type Point struct {
	x, y, z, t limb.Element
}

// Curve constants, computed once from small integers so there are no
// hand-transcribed 255-bit literals to get wrong (tests pin the standard
// basepoint encoding).
var (
	constD      limb.Element // d = −121665/121666
	constD2     limb.Element // 2d
	constSqrtM1 limb.Element // √−1 = 2^((p−1)/4)
	basepoint   Point        // y = 4/5, even x
	orderL      *big.Int     // subgroup order L = 2^252 + δ
)

func init() {
	var num, den limb.Element
	num.SetUint64(121665)
	num.Neg(&num)
	den.SetUint64(121666)
	if _, err := den.Inv(&den); err != nil {
		panic(err)
	}
	constD.Mul(&num, &den)
	constD2.Add(&constD, &constD)

	// p ≡ 5 (mod 8), so 2 is a quadratic non-residue and 2^((p−1)/4) is a
	// square root of −1.
	p := limb.Modulus()
	e := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 2)
	if err := constSqrtM1.SetBig(new(big.Int).Exp(big.NewInt(2), e, p)); err != nil {
		panic(err)
	}

	orderL, _ = new(big.Int).SetString("27742317777372353535851937790883648493", 10)
	orderL.Add(orderL, new(big.Int).Lsh(big.NewInt(1), 252))

	// Basepoint: y = 4/5 with the even square root for x.
	var y, five limb.Element
	y.SetUint64(4)
	five.SetUint64(5)
	if _, err := five.Inv(&five); err != nil {
		panic(err)
	}
	y.Mul(&y, &five)
	if err := basepoint.fromY(&y, 0); err != nil {
		panic(err)
	}
}

// Order returns the prime order L of the basepoint subgroup.
func Order() *big.Int { return new(big.Int).Set(orderL) }

// Basepoint returns the standard generator B.
func Basepoint() Point { return basepoint }

// SetIdentity sets v to the neutral element (0, 1) and returns v.
func (v *Point) SetIdentity() *Point {
	v.x.SetZero()
	v.y.SetOne()
	v.z.SetOne()
	v.t.SetZero()
	return v
}

// Set copies p into v and returns v.
func (v *Point) Set(p *Point) *Point {
	*v = *p
	return v
}

// IsIdentity reports whether v is the neutral element.
func (v *Point) IsIdentity() bool {
	return v.x.IsZero() && v.y.Equal(&v.z)
}

// Equal reports whether v and p are the same projective point.
func (v *Point) Equal(p *Point) bool {
	var a, b limb.Element
	a.Mul(&v.x, &p.z)
	b.Mul(&p.x, &v.z)
	if !a.Equal(&b) {
		return false
	}
	a.Mul(&v.y, &p.z)
	b.Mul(&p.y, &v.z)
	return a.Equal(&b)
}

// Neg sets v = −p (the additive inverse) and returns v.
func (v *Point) Neg(p *Point) *Point {
	v.x.Neg(&p.x)
	v.y.Set(&p.y)
	v.z.Set(&p.z)
	v.t.Neg(&p.t)
	return v
}

// cached is a point prepared as the second operand of an addition:
// (Y+X, Y−X, Z, 2d·T). Preparing it costs the one multiplication by 2d
// that the unified formula would otherwise spend on every addition.
type cached struct {
	yPlusX, yMinusX, z, t2d limb.Element
}

// affineCached is a cached point with Z = 1, the form of the basepoint
// table's entries: (y+x, y−x, 2d·x·y). Adding one saves the Z1·Z2 product.
type affineCached struct {
	yPlusX, yMinusX, xy2d limb.Element
}

func (c *cached) set(p *Point) *cached {
	c.yPlusX.Add(&p.y, &p.x)
	c.yMinusX.Sub(&p.y, &p.x)
	c.z.Set(&p.z)
	c.t2d.Mul(&p.t, &constD2)
	return c
}

// neg sets c = −q: negating x swaps the two sums and flips the sign of T.
func (c *cached) neg(q *cached) *cached {
	c.yPlusX, c.yMinusX = q.yMinusX, q.yPlusX
	c.z.Set(&q.z)
	c.t2d.Neg(&q.t2d)
	return c
}

func (c *affineCached) neg(q *affineCached) *affineCached {
	c.yPlusX, c.yMinusX = q.yMinusX, q.yPlusX
	c.xy2d.Neg(&q.xy2d)
	return c
}

// Add sets v = p + q by the unified extended-coordinate formula and
// returns v. It is complete: p, q, and v may alias, and identity and
// inverse inputs need no special casing.
func (v *Point) Add(p, q *Point) *Point {
	var qc cached
	return v.addCached(p, qc.set(q))
}

// addCached sets v = p + q (eight multiplications); v may alias p.
func (v *Point) addCached(p *Point, q *cached) *Point {
	var a, b, c, d limb.Element
	a.Sub(&p.y, &p.x)
	a.Mul(&a, &q.yMinusX) // A = (Y1−X1)(Y2−X2)
	b.Add(&p.y, &p.x)
	b.Mul(&b, &q.yPlusX) // B = (Y1+X1)(Y2+X2)
	c.Mul(&p.t, &q.t2d)  // C = 2d·T1·T2
	d.Mul(&p.z, &q.z)
	d.Add(&d, &d) // D = 2·Z1·Z2
	return v.finishAdd(&a, &b, &c, &d)
}

// addAffine sets v = p + q for a table entry (seven multiplications); v
// may alias p.
func (v *Point) addAffine(p *Point, q *affineCached) *Point {
	var a, b, c, d limb.Element
	a.Sub(&p.y, &p.x)
	a.Mul(&a, &q.yMinusX)
	b.Add(&p.y, &p.x)
	b.Mul(&b, &q.yPlusX)
	c.Mul(&p.t, &q.xy2d)
	d.Add(&p.z, &p.z) // D = 2·Z1, Z2 = 1
	return v.finishAdd(&a, &b, &c, &d)
}

// finishAdd is the shared tail of the addition formulas.
func (v *Point) finishAdd(a, b, c, d *limb.Element) *Point {
	var e, f, g, h limb.Element
	e.Sub(b, a)
	f.Sub(d, c)
	g.Add(d, c)
	h.Add(b, a)
	v.x.Mul(&e, &f)
	v.y.Mul(&g, &h)
	v.t.Mul(&e, &h)
	v.z.Mul(&f, &g)
	return v
}

// Double sets v = 2p and returns v.
func (v *Point) Double(p *Point) *Point { return v.double(p, true) }

// double sets v = 2p by the dedicated a = −1 doubling (four squarings and
// three multiplications, reading only X, Y, Z). The fourth multiplication,
// for T, is spent only when withT: a ladder needs T just before an
// addition, and without it v is valid only as the input of another double.
func (v *Point) double(p *Point, withT bool) *Point {
	var a, b, c, e, f, g, h limb.Element
	a.Square(&p.x)
	b.Square(&p.y)
	c.Square(&p.z)
	c.Add(&c, &c) // C = 2·Z²
	h.Add(&a, &b) // H = X² + Y²
	e.Add(&p.x, &p.y)
	e.Square(&e)
	e.Sub(&e, &h) // E = 2·X·Y
	g.Sub(&b, &a) // G = Y² − X²
	f.Sub(&c, &g) // F = C − G
	v.x.Mul(&e, &f)
	v.y.Mul(&g, &h)
	v.z.Mul(&f, &g)
	if withT {
		v.t.Mul(&e, &h)
	}
	return v
}

// MulByCofactor sets v = 8p and returns v, projecting any curve point
// into the prime-order subgroup.
func (v *Point) MulByCofactor(p *Point) *Point {
	v.double(p, false)
	v.double(v, false)
	return v.double(v, true)
}

// PutBytes writes the 32-byte compressed encoding of v into dst.
func (v *Point) PutBytes(dst []byte) {
	_ = dst[PointLen-1]
	var zinv limb.Element
	// Z is never zero for a point produced by Decode or curve arithmetic.
	if _, err := zinv.Inv(&v.z); err != nil {
		panic("ec25519: encode of invalid point")
	}
	v.putAffine(dst, &zinv)
}

// putAffine writes the encoding of (X·zinv, Y·zinv).
func (v *Point) putAffine(dst []byte, zinv *limb.Element) {
	var x, y limb.Element
	x.Mul(&v.x, zinv)
	y.Mul(&v.y, zinv)
	var be [PointLen]byte
	y.PutBytes(be[:])
	for i := 0; i < PointLen; i++ {
		dst[i] = be[PointLen-1-i]
	}
	x.PutBytes(be[:])
	dst[PointLen-1] |= (be[PointLen-1] & 1) << 7
}

// EncodeBatch writes the compressed encodings of pts into dst, PointLen
// bytes each in order, sharing one field inversion across the batch
// (Montgomery's trick) — byte-identical to calling PutBytes per point. A
// point with Z = 0, which no decode or curve operation produces, is an
// error rather than PutBytes' panic, since batches are encoded inside
// worker pools.
func EncodeBatch(dst []byte, pts []*Point) error {
	n := len(pts)
	if len(dst) != n*PointLen {
		return fmt.Errorf("ec25519: encode: %d bytes for %d points", len(dst), n)
	}
	zs := make([]limb.Element, 2*n)
	for i, p := range pts {
		zs[i] = p.z
	}
	if err := limb.BatchInvertScratch(zs[:n], zs[n:]); err != nil {
		return fmt.Errorf("ec25519: encode of invalid point: %w", err)
	}
	for i, p := range pts {
		p.putAffine(dst[i*PointLen:], &zs[i])
	}
	return nil
}

// Bytes returns the 32-byte compressed encoding of v.
func (v *Point) Bytes() []byte {
	out := make([]byte, PointLen)
	v.PutBytes(out)
	return out
}

// Decode parses a canonical compressed encoding: little-endian y < p with
// the parity of x in the top bit. It rejects y ≥ p, encodings whose y is
// not on the curve, and the non-canonical "negative zero" x.
func (v *Point) Decode(b []byte) error {
	if len(b) != PointLen {
		return fmt.Errorf("%w: need %d bytes, got %d", ErrNotOnCurve, PointLen, len(b))
	}
	sign := b[PointLen-1] >> 7
	var be [PointLen]byte
	for i := 0; i < PointLen; i++ {
		be[i] = b[PointLen-1-i]
	}
	be[0] &= 0x7f
	var y limb.Element
	if err := y.SetBytes(be[:]); err != nil {
		return fmt.Errorf("%w: y out of range", ErrNotOnCurve)
	}
	return v.fromY(&y, sign)
}

// fromY recovers x from y and the sign bit: x = ±√((y²−1)/(d·y²+1)).
func (v *Point) fromY(y *limb.Element, sign byte) error {
	var y2, u, den, x limb.Element
	y2.Square(y)
	one := limb.One()
	u.Sub(&y2, &one)      // u = y² − 1
	den.Mul(&y2, &constD) //
	den.Add(&den, &one)   // v = d·y² + 1 (never 0: −1/d is not a square)
	if !sqrtRatio(&x, &u, &den) {
		return ErrNotOnCurve
	}
	if x.IsZero() && sign == 1 {
		return fmt.Errorf("%w: negative zero", ErrNotOnCurve)
	}
	var xb [PointLen]byte
	x.PutBytes(xb[:])
	if xb[PointLen-1]&1 != sign {
		x.Neg(&x)
	}
	v.x.Set(&x)
	v.y.Set(y)
	v.z.SetOne()
	v.t.Mul(&x, y)
	return nil
}

// sqrtRatio sets x to a square root of u/v, reporting whether one exists.
// It uses the classic trick for p ≡ 5 (mod 8): the candidate is
// r = u·v³·(u·v⁷)^((p−5)/8), correct up to a factor of √−1.
func sqrtRatio(x, u, v *limb.Element) bool {
	var v3, v7, r, check limb.Element
	v3.Square(v)
	v3.Mul(&v3, v) // v³
	v7.Square(&v3)
	v7.Mul(&v7, v) // v⁷
	r.Mul(u, &v7)
	pow22523(&r, &r) // (u·v⁷)^((p−5)/8)
	r.Mul(&r, &v3)
	r.Mul(&r, u) // u·v³·(u·v⁷)^((p−5)/8)

	check.Square(&r)
	check.Mul(&check, v) // v·r²
	var negU limb.Element
	negU.Neg(u)
	switch {
	case check.Equal(u):
		// r is the root.
	case check.Equal(&negU):
		r.Mul(&r, &constSqrtM1)
	default:
		return false
	}
	x.Set(&r)
	return true
}

// pow22523 sets z = x^(2^252 − 3) = x^((p−5)/8), the exponentiation at the
// heart of square-root extraction, via the standard 2^255−19 addition
// chain: 2^252 − 3 = (2^250 − 1)·4 + 1.
func pow22523(z, x *limb.Element) {
	sqn := func(e *limb.Element, n int) {
		for i := 0; i < n; i++ {
			e.Square(e)
		}
	}
	var z2, z9, z11, z2x5, z2x10, z2x20, z2x50, z2x100, t limb.Element
	z2.Square(x)           // 2
	t.Square(&z2)          //
	t.Square(&t)           // 8
	z9.Mul(&t, x)          // 9
	z11.Mul(&z9, &z2)      // 11
	t.Square(&z11)         // 22
	z2x5.Mul(&t, &z9)      // 2^5 − 1
	t.Set(&z2x5)           //
	sqn(&t, 5)             //
	z2x10.Mul(&t, &z2x5)   // 2^10 − 1
	t.Set(&z2x10)          //
	sqn(&t, 10)            //
	z2x20.Mul(&t, &z2x10)  // 2^20 − 1
	t.Set(&z2x20)          //
	sqn(&t, 20)            //
	t.Mul(&t, &z2x20)      // 2^40 − 1
	sqn(&t, 10)            //
	z2x50.Mul(&t, &z2x10)  // 2^50 − 1
	t.Set(&z2x50)          //
	sqn(&t, 50)            //
	z2x100.Mul(&t, &z2x50) // 2^100 − 1
	t.Set(&z2x100)         //
	sqn(&t, 100)           //
	t.Mul(&t, &z2x100)     // 2^200 − 1
	sqn(&t, 50)            //
	t.Mul(&t, &z2x50)      // 2^250 − 1
	sqn(&t, 2)             // (2^250 − 1)·4
	z.Mul(&t, x)           // (2^250 − 1)·4 + 1 = 2^252 − 3
}
