// Package limb implements fixed-width arithmetic in F_p for the default
// protocol prime p = 2^255 − 19 on four 64-bit limbs. It is the fast
// engine every protocol over that field runs on (field.SupportsLimb):
// every operation works on stack values with
// zero heap allocations, in contrast to the math/big path where each Mul
// carries a division and at least one allocation.
//
// An Element holds the plain canonical residue in [0, p), so the limbs are
// the integer itself and serialization is a byte swap: the encoding is the
// same canonical fixed-width big-endian byte string the math/big field
// produces, and wire bytes are backend-independent representations of the
// same residues. Multiplication forms the full 512-bit product and reduces
// it with the shape of the prime instead of a generic Montgomery loop:
// 2^256 = 2·(p + 19) ≡ 38 (mod p) folds the high half onto the low in four
// word multiplications, 2^255 ≡ 19 folds the few bits left above the
// modulus, and one conditional subtraction restores the canonical range.
package limb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// ElementLen is the canonical encoded size in bytes, matching
// field.Default().ElementLen().
const ElementLen = 32

// Limbs is the fixed limb count of an element.
const Limbs = 4

// p = 2^255 − 19, little-endian limbs; the two middle limbs are equal.
const (
	p0 = 0xffffffffffffffed
	p1 = 0xffffffffffffffff
	p3 = 0x7fffffffffffffff
)

var (
	// ErrNotCanonical reports an encoding or integer outside [0, p).
	ErrNotCanonical = errors.New("limb: value not a canonical field element")
	// ErrNoInverse reports an attempt to invert zero.
	ErrNoInverse = errors.New("limb: zero has no multiplicative inverse")
)

// Element is a field element: the canonical residue in [0, p) as four
// little-endian 64-bit limbs. The zero value is the additive identity and
// ready to use.
type Element [Limbs]uint64

var one = Element{1, 0, 0, 0}

// Modulus returns p as a big integer.
func Modulus() *big.Int {
	return new(big.Int).SetBytes([]byte{
		0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xed,
	})
}

// One returns the multiplicative identity.
func One() Element { return one }

// SetZero sets z to 0 and returns it.
func (z *Element) SetZero() *Element {
	*z = Element{}
	return z
}

// SetOne sets z to 1 and returns it.
func (z *Element) SetOne() *Element {
	*z = one
	return z
}

// Set copies x into z and returns z.
func (z *Element) Set(x *Element) *Element {
	*z = *x
	return z
}

// IsZero reports whether z is the additive identity.
func (z *Element) IsZero() bool {
	return z[0]|z[1]|z[2]|z[3] == 0
}

// Equal reports whether z and x represent the same residue.
func (z *Element) Equal(x *Element) bool {
	return z[0] == x[0] && z[1] == x[1] && z[2] == x[2] && z[3] == x[3]
}

// Add sets z = x + y mod p and returns z.
func (z *Element) Add(x, y *Element) *Element {
	// x, y < p < 2^255, so the raw sum fits 256 bits (the last carry is
	// always 0) and a single conditional subtraction restores the canonical
	// range.
	s0, c := bits.Add64(x[0], y[0], 0)
	s1, c := bits.Add64(x[1], y[1], c)
	s2, c := bits.Add64(x[2], y[2], c)
	s3, _ := bits.Add64(x[3], y[3], c)
	z.condSubP(s0, s1, s2, s3)
	return z
}

// Sub sets z = x − y mod p and returns z.
func (z *Element) Sub(x, y *Element) *Element {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		z[0], c = bits.Add64(z[0], p0, 0)
		z[1], c = bits.Add64(z[1], p1, c)
		z[2], c = bits.Add64(z[2], p1, c)
		z[3], _ = bits.Add64(z[3], p3, c)
	}
	return z
}

// Neg sets z = −x mod p and returns z.
func (z *Element) Neg(x *Element) *Element {
	if x.IsZero() {
		return z.SetZero()
	}
	var b uint64
	z[0], b = bits.Sub64(p0, x[0], 0)
	z[1], b = bits.Sub64(p1, x[1], b)
	z[2], b = bits.Sub64(p1, x[2], b)
	z[3], _ = bits.Sub64(p3, x[3], b)
	return z
}

// condSubP sets z to the 256-bit integer (v3 v2 v1 v0), less p when it is
// at least p. The branch is deliberate: after reduce it is taken with
// probability ≈ 2^-250, and a mask-select measured slower.
func (z *Element) condSubP(v0, v1, v2, v3 uint64) {
	*z = Element{v0, v1, v2, v3}
	s0, b := bits.Sub64(v0, p0, 0)
	s1, b := bits.Sub64(v1, p1, b)
	s2, b := bits.Sub64(v2, p1, b)
	s3, b := bits.Sub64(v3, p3, b)
	if b == 0 {
		*z = Element{s0, s1, s2, s3}
	}
}

// reduce sets z to the 512-bit integer (t7 … t0) mod p and returns z.
//
// 2^256 ≡ 38, so the value is congruent to lo + 38·hi: one more row
// product, at most 38 in its fifth word. The bits of that sum at and above
// 2^255 (seven at most) fold back by 2^255 ≡ 19, leaving a value below
// 2^255 + 19·78 < 2p that the single conditional subtraction makes
// canonical.
func (z *Element) reduce(t0, t1, t2, t3, t4, t5, t6, t7 uint64) *Element {
	h0, l0 := bits.Mul64(38, t4)
	h1, l1 := bits.Mul64(38, t5)
	h2, l2 := bits.Mul64(38, t6)
	t4, l3 := bits.Mul64(38, t7)
	var c uint64
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	t4, c = bits.Add64(t4, 0, c) // leaves c = 0: see Mul
	t0, c = bits.Add64(t0, l0, c)
	t1, c = bits.Add64(t1, l1, c)
	t2, c = bits.Add64(t2, l2, c)
	t3, c = bits.Add64(t3, l3, c)
	t4, _ = bits.Add64(t4, 0, c)
	top := t4<<1 | t3>>63
	t0, c = bits.Add64(t0, 19*top, 0)
	t1, c = bits.Add64(t1, 0, c)
	t2, c = bits.Add64(t2, 0, c)
	t3 = t3&(1<<63-1) + c
	z.condSubP(t0, t1, t2, t3)
	return z
}

// Mul sets z = x·y mod p and returns z: mul512's product, reduced.
func (z *Element) Mul(x, y *Element) *Element {
	return z.reduce(mul512(x, y))
}

// mul512 returns the 512-bit product x·y as eight little-endian words. It
// is the sum of four row products x[i]·y, each added one word higher than
// the last: the sixteen multiplications are independent of one another,
// and nothing of the modulus enters.
//
// Each row is one carry chain. Its first half joins the four partial
// products into the five-word row (a word times four words is below 2^320,
// so the chain's carry out of the fifth word is always 0); its second half
// adds the row into t and takes that zero carry as its carry in. The link
// costs nothing and keeps the compiler from interleaving the two halves,
// which would make it recompute the flags of one after every step of the
// other.
func mul512(x, y *Element) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	y0, y1, y2, y3 := y[0], y[1], y[2], y[3]
	var c uint64

	a := x[0]
	h0, t0 := bits.Mul64(a, y0)
	h1, t1 := bits.Mul64(a, y1)
	h2, t2 := bits.Mul64(a, y2)
	t4, t3 := bits.Mul64(a, y3)
	t1, c = bits.Add64(t1, h0, 0)
	t2, c = bits.Add64(t2, h1, c)
	t3, c = bits.Add64(t3, h2, c)
	t4, _ = bits.Add64(t4, 0, c)

	a = x[1]
	h0, l0 := bits.Mul64(a, y0)
	h1, l1 := bits.Mul64(a, y1)
	h2, l2 := bits.Mul64(a, y2)
	t5, l3 := bits.Mul64(a, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	t5, c = bits.Add64(t5, 0, c)
	t1, c = bits.Add64(t1, l0, c)
	t2, c = bits.Add64(t2, l1, c)
	t3, c = bits.Add64(t3, l2, c)
	t4, c = bits.Add64(t4, l3, c)
	t5, _ = bits.Add64(t5, 0, c)

	a = x[2]
	h0, l0 = bits.Mul64(a, y0)
	h1, l1 = bits.Mul64(a, y1)
	h2, l2 = bits.Mul64(a, y2)
	t6, l3 := bits.Mul64(a, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	t6, c = bits.Add64(t6, 0, c)
	t2, c = bits.Add64(t2, l0, c)
	t3, c = bits.Add64(t3, l1, c)
	t4, c = bits.Add64(t4, l2, c)
	t5, c = bits.Add64(t5, l3, c)
	t6, _ = bits.Add64(t6, 0, c)

	a = x[3]
	h0, l0 = bits.Mul64(a, y0)
	h1, l1 = bits.Mul64(a, y1)
	h2, l2 = bits.Mul64(a, y2)
	t7, l3 := bits.Mul64(a, y3)
	l1, c = bits.Add64(l1, h0, 0)
	l2, c = bits.Add64(l2, h1, c)
	l3, c = bits.Add64(l3, h2, c)
	t7, c = bits.Add64(t7, 0, c)
	t3, c = bits.Add64(t3, l0, c)
	t4, c = bits.Add64(t4, l1, c)
	t5, c = bits.Add64(t5, l2, c)
	t6, c = bits.Add64(t6, l3, c)
	t7, _ = bits.Add64(t7, 0, c)
	return t0, t1, t2, t3, t4, t5, t6, t7
}

// Sum is an unreduced sum of elements and products of elements: a 576-bit
// integer in nine little-endian words, reduced mod p only by Reduce. A
// product costs Mul's sixteen word multiplications and a nine-word
// addition, without Mul's reduction and conditional subtraction, so a dot
// product of n terms pays one reduction instead of n. Every term is below
// p² < 2^510, so up to 2^64 terms cannot overflow the nine words. The zero
// value is the empty sum.
type Sum struct{ w [9]uint64 }

// Add adds x to s.
func (s *Sum) Add(x *Element) {
	var c uint64
	for i := range x {
		s.w[i], c = bits.Add64(s.w[i], x[i], c)
	}
	for i := Limbs; i < len(s.w); i++ {
		s.w[i], c = bits.Add64(s.w[i], 0, c)
	}
}

// MulAdd adds the product x·y to s.
func (s *Sum) MulAdd(x, y *Element) {
	t0, t1, t2, t3, t4, t5, t6, t7 := mul512(x, y)
	var c uint64
	s.w[0], c = bits.Add64(s.w[0], t0, 0)
	s.w[1], c = bits.Add64(s.w[1], t1, c)
	s.w[2], c = bits.Add64(s.w[2], t2, c)
	s.w[3], c = bits.Add64(s.w[3], t3, c)
	s.w[4], c = bits.Add64(s.w[4], t4, c)
	s.w[5], c = bits.Add64(s.w[5], t5, c)
	s.w[6], c = bits.Add64(s.w[6], t6, c)
	s.w[7], c = bits.Add64(s.w[7], t7, c)
	s.w[8] += c
}

// Reduce sets z to s mod p and returns z; s is unchanged. The ninth word
// folds onto the low two by 2^512 ≡ 38² = 1444. A carry out of the eighth
// word is 2^512 once more, and leaves the words below it under 2^75, so
// its 1444 is added without a further carry; reduce does the rest.
func (s *Sum) Reduce(z *Element) *Element {
	h, l := bits.Mul64(1444, s.w[8])
	t0, c := bits.Add64(s.w[0], l, 0)
	t1, c := bits.Add64(s.w[1], h, c)
	t2, c := bits.Add64(s.w[2], 0, c)
	t3, c := bits.Add64(s.w[3], 0, c)
	t4, c := bits.Add64(s.w[4], 0, c)
	t5, c := bits.Add64(s.w[5], 0, c)
	t6, c := bits.Add64(s.w[6], 0, c)
	t7, c := bits.Add64(s.w[7], 0, c)
	t0, c = bits.Add64(t0, 1444*c, 0)
	t1 += c
	return z.reduce(t0, t1, t2, t3, t4, t5, t6, t7)
}

// Square sets z = x² mod p and returns z. It forms the 512-bit square with
// ten 64×64 multiplications (each cross product once, doubled by a shift)
// instead of Mul's sixteen and ends in the same reduce.
func (z *Element) Square(x *Element) *Element {
	h01, l01 := bits.Mul64(x[0], x[1])
	h02, l02 := bits.Mul64(x[0], x[2])
	h03, l03 := bits.Mul64(x[0], x[3])
	h12, l12 := bits.Mul64(x[1], x[2])
	h13, l13 := bits.Mul64(x[1], x[3])
	h23, l23 := bits.Mul64(x[2], x[3])

	// s = Σ_{i<j} x_i·x_j·2^(64(i+j)), words 1..6. No sum below carries out
	// of its top word: s < x²/2 < 2^509.
	var c uint64
	s1 := l01
	s2, c := bits.Add64(h01, l02, 0)
	s3, c := bits.Add64(h02, l03, c)
	s4 := h03 + c
	s3, c = bits.Add64(s3, l12, 0)
	s4, c = bits.Add64(s4, h12, c)
	s5, c := bits.Add64(h13, l23, c)
	s6 := h23 + c
	s4, c = bits.Add64(s4, l13, 0)
	s5, c = bits.Add64(s5, 0, c)
	s6 += c

	// t = 2s + Σ x_i²·2^(128i).
	h00, l00 := bits.Mul64(x[0], x[0])
	h11, l11 := bits.Mul64(x[1], x[1])
	h22, l22 := bits.Mul64(x[2], x[2])
	h33, l33 := bits.Mul64(x[3], x[3])
	w0 := l00
	w1, c := bits.Add64(s1<<1, h00, 0)
	w2, c := bits.Add64(s2<<1|s1>>63, l11, c)
	w3, c := bits.Add64(s3<<1|s2>>63, h11, c)
	t4, c := bits.Add64(s4<<1|s3>>63, l22, c)
	t5, c := bits.Add64(s5<<1|s4>>63, h22, c)
	t6, c := bits.Add64(s6<<1|s5>>63, l33, c)
	t7 := s6>>63 + h33 + c
	return z.reduce(w0, w1, w2, w3, t4, t5, t6, t7)
}

// sqn squares z in place n times.
func (z *Element) sqn(n int) *Element {
	for i := 0; i < n; i++ {
		z.Square(z)
	}
	return z
}

// Inv sets z = x⁻¹ mod p via Fermat's little theorem (x^(p−2), using the
// standard 2^255−19 addition chain: 254 squarings and 11 multiplications),
// and reports ErrNoInverse for zero. Constant work for all non-zero inputs.
func (z *Element) Inv(x *Element) (*Element, error) {
	if x.IsZero() {
		return nil, ErrNoInverse
	}
	// p − 2 = 2^255 − 21 = (2^250 − 1)·2^5 + 11.
	var z2, z9, z11, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t Element
	z2.Square(x)                // 2
	t.Square(&z2).Square(&t)    // 8
	z9.Mul(&t, x)               // 9
	z11.Mul(&z9, &z2)           // 11
	t.Square(&z11)              // 22
	z2_5_0.Mul(&t, &z9)         // 31 = 2^5 − 1
	t.Set(&z2_5_0).sqn(5)       // 2^10 − 2^5
	z2_10_0.Mul(&t, &z2_5_0)    // 2^10 − 1
	t.Set(&z2_10_0).sqn(10)     // 2^20 − 2^10
	z2_20_0.Mul(&t, &z2_10_0)   // 2^20 − 1
	t.Set(&z2_20_0).sqn(20)     // 2^40 − 2^20
	t.Mul(&t, &z2_20_0)         // 2^40 − 1
	t.sqn(10)                   // 2^50 − 2^10
	z2_50_0.Mul(&t, &z2_10_0)   // 2^50 − 1
	t.Set(&z2_50_0).sqn(50)     // 2^100 − 2^50
	z2_100_0.Mul(&t, &z2_50_0)  // 2^100 − 1
	t.Set(&z2_100_0).sqn(100)   // 2^200 − 2^100
	t.Mul(&t, &z2_100_0)        // 2^200 − 1
	t.sqn(50)                   // 2^250 − 2^50
	t.Mul(&t, &z2_50_0)         // 2^250 − 1
	t.sqn(5)                    // 2^255 − 2^5
	return z.Mul(&t, &z11), nil // 2^255 − 21
}

// BatchInvertScratch inverts every element of xs in place with
// Montgomery's trick: one Inv plus 3(n−1) multiplications, using
// caller-provided scratch of len(xs) elements so hot loops amortize the
// allocation. Any zero input yields ErrNoInverse and leaves xs unmodified.
func BatchInvertScratch(xs, scratch []Element) error {
	n := len(xs)
	if n == 0 {
		return nil
	}
	if len(scratch) < n {
		return fmt.Errorf("limb: batch-invert scratch %d < %d", len(scratch), n)
	}
	// prods[i] = xs[0]·…·xs[i]
	prods := scratch[:n]
	prods[0] = xs[0]
	for i := 1; i < n; i++ {
		prods[i].Mul(&prods[i-1], &xs[i])
	}
	var inv Element
	if _, err := inv.Inv(&prods[n-1]); err != nil {
		// Distinguish "some element is zero" for a precise error; the
		// aggregated product is zero iff one factor is.
		for i := range xs {
			if xs[i].IsZero() {
				return ErrNoInverse
			}
		}
		return err
	}
	for i := n - 1; i > 0; i-- {
		var xi Element
		xi.Mul(&inv, &prods[i-1]) // xs[i]⁻¹
		inv.Mul(&inv, &xs[i])     // (xs[0]·…·xs[i−1])⁻¹
		xs[i] = xi
	}
	xs[0] = inv
	return nil
}

// load sets z to the 32 big-endian bytes of b read as an integer below
// 2^256, canonical or not.
func (z *Element) load(b []byte) {
	_ = b[ElementLen-1]
	z[0] = binary.BigEndian.Uint64(b[24:])
	z[1] = binary.BigEndian.Uint64(b[16:])
	z[2] = binary.BigEndian.Uint64(b[8:])
	z[3] = binary.BigEndian.Uint64(b[0:])
}

// SetBytes parses the canonical fixed-width big-endian encoding (the same
// 32-byte form field.Field.Bytes produces), rejecting values >= p and
// leaving z unmodified when it does.
func (z *Element) SetBytes(b []byte) error {
	if len(b) != ElementLen {
		return fmt.Errorf("limb: element must be %d bytes, got %d", ElementLen, len(b))
	}
	var v Element
	v.load(b)
	// v is canonical exactly when v − p borrows.
	_, bw := bits.Sub64(v[0], p0, 0)
	_, bw = bits.Sub64(v[1], p1, bw)
	_, bw = bits.Sub64(v[2], p1, bw)
	_, bw = bits.Sub64(v[3], p3, bw)
	if bw == 0 {
		return ErrNotCanonical
	}
	*z = v
	return nil
}

// PutBytes writes the canonical fixed-width big-endian encoding — the
// limbs, byte-swapped — into dst, which must be at least ElementLen bytes.
// It allocates nothing.
func (z *Element) PutBytes(dst []byte) {
	_ = dst[ElementLen-1]
	binary.BigEndian.PutUint64(dst[24:], z[0])
	binary.BigEndian.PutUint64(dst[16:], z[1])
	binary.BigEndian.PutUint64(dst[8:], z[2])
	binary.BigEndian.PutUint64(dst[0:], z[3])
}

// Bytes returns the canonical fixed-width big-endian encoding.
func (z *Element) Bytes() []byte {
	out := make([]byte, ElementLen)
	z.PutBytes(out)
	return out
}

// SetUint64 sets z to the given small integer.
func (z *Element) SetUint64(v uint64) *Element {
	*z = Element{v, 0, 0, 0}
	return z
}

// SetBig sets z from a canonical big integer in [0, p), rejecting anything
// else (mirroring field.FromBytes semantics).
func (z *Element) SetBig(v *big.Int) error {
	if v == nil || v.Sign() < 0 || v.BitLen() > 255 {
		return ErrNotCanonical
	}
	var buf [ElementLen]byte
	v.FillBytes(buf[:])
	return z.SetBytes(buf[:])
}

// SetBigReduce sets z to v mod p for an arbitrary big integer (mirroring
// field.FromBig semantics).
func (z *Element) SetBigReduce(v *big.Int) *Element {
	r := new(big.Int).Mod(v, Modulus())
	var buf [ElementLen]byte
	r.FillBytes(buf[:])
	// r is canonical by construction.
	_ = z.SetBytes(buf[:])
	return z
}

// ToBig returns the residue as a canonical big integer.
func (z *Element) ToBig() *big.Int {
	return new(big.Int).SetBytes(z.Bytes())
}

// setWide sets z to the 32 big-endian bytes of b reduced mod p: the integer
// is below 2^256 = 2p + 38, so at most two subtractions.
func (z *Element) setWide(b []byte) {
	z.load(b)
	z.condSubP(z[0], z[1], z[2], z[3])
	z.condSubP(z[0], z[1], z[2], z[3])
}

// Rand sets z to a field element derived from 32 rng bytes reduced mod p.
// The 2^−250 sampling bias against the smallest residues is cryptographically
// irrelevant for masks and decoys; what matters for the protocol is that the
// draw consumes a fixed number of rng bytes, keeping the stream — and hence
// the wire bytes — deterministic at any worker count.
// Its buffer escapes through the io.Reader, so every call allocates: code
// that draws many elements per query reads them at once (RandElements,
// RandBytes).
func (z *Element) Rand(rng io.Reader) error {
	var buf [ElementLen]byte
	if _, err := io.ReadFull(rng, buf[:]); err != nil {
		return fmt.Errorf("limb: sample element: %w", err)
	}
	z.setWide(buf[:])
	return nil
}

// RandNonZero sets z to a non-zero field element (rejection on zero).
func (z *Element) RandNonZero(rng io.Reader) error {
	for {
		if err := z.Rand(rng); err != nil {
			return err
		}
		if !z.IsZero() {
			return nil
		}
	}
}

// RandElements sets every element of dst from the rng — the same rng bytes
// in the same order, and the same residues, as one Rand per element — with
// one read into one buffer.
func RandElements(rng io.Reader, dst []Element) error {
	buf := make([]byte, len(dst)*ElementLen)
	if _, err := io.ReadFull(rng, buf); err != nil {
		return fmt.Errorf("limb: sample elements: %w", err)
	}
	for i := range dst {
		dst[i].setWide(buf[i*ElementLen:])
	}
	return nil
}

// RandBytes fills dst, whose length must be a multiple of ElementLen, with
// the canonical encodings of len(dst)/ElementLen uniform field elements —
// the same rng bytes in the same order, and the same residues, as one Rand
// and PutBytes per slot. The rng is read once, straight into dst, and each
// slot is then reduced in place: for elements that only exist to be
// serialized (decoy records) that is one interface call per record instead
// of one per element.
func RandBytes(rng io.Reader, dst []byte) error {
	if len(dst)%ElementLen != 0 {
		return fmt.Errorf("limb: element buffer must be a multiple of %d bytes, got %d", ElementLen, len(dst))
	}
	if _, err := io.ReadFull(rng, dst); err != nil {
		return fmt.Errorf("limb: sample elements: %w", err)
	}
	var e Element
	for ; len(dst) > 0; dst = dst[ElementLen:] {
		e.setWide(dst)
		e.PutBytes(dst)
	}
	return nil
}
