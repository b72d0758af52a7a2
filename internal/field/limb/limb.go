// Package limb implements fixed-width arithmetic in F_p for the default
// protocol prime p = 2^255 − 19 on four 64-bit limbs. It is the fast
// backend behind field.Backend: every operation works on stack values with
// zero heap allocations, in contrast to the math/big path where each Mul
// carries a division and at least one allocation.
//
// Elements are kept in Montgomery form (x·R mod p with R = 2^256)
// internally; multiplication is a 4-limb CIOS Montgomery reduction whose
// final conditional subtraction is the only normalization step (the lazy
// reduction of the classic algorithm). Conversion in and out of Montgomery
// form happens only at the serialization boundary, where the encoding is
// the same canonical fixed-width big-endian byte string the math/big field
// produces — so wire bytes are backend-independent representations of the
// same residues.
//
// The Montgomery constants collapse for this prime: R mod p = 38 and
// R² mod p = 1444, because 2^256 = 2·(p + 19) ≡ 38 (mod p).
package limb

import (
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

// p = 2^255 − 19, little-endian limbs.
var pLimbs = [Limbs]uint64{
	0xffffffffffffffed,
	0xffffffffffffffff,
	0xffffffffffffffff,
	0x7fffffffffffffff,
}

// montInv = −p⁻¹ mod 2^64, derived from the low limb by Newton iteration
// (five doublings of precision reach 64 bits).
var montInv = func() uint64 {
	inv := pLimbs[0] // correct mod 2^4 already for odd p
	for i := 0; i < 5; i++ {
		inv *= 2 - pLimbs[0]*inv
	}
	return -inv
}()

var (
	// ErrNotCanonical reports an encoding or integer outside [0, p).
	ErrNotCanonical = errors.New("limb: value not a canonical field element")
	// ErrNoInverse reports an attempt to invert zero.
	ErrNoInverse = errors.New("limb: zero has no multiplicative inverse")
)

// Element is a field element in Montgomery form. The zero value is the
// additive identity and ready to use.
type Element [Limbs]uint64

// rSquared is R² mod p in plain form — multiplying by it through montMul
// converts a plain residue into Montgomery form.
var rSquared = Element{1444, 0, 0, 0}

// one is 1 in Montgomery form: R mod p = 38.
var one = Element{38, 0, 0, 0}

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
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	// x, y < p < 2^255, so the raw sum fits 256 bits (c is always 0) and a
	// single conditional subtraction restores the canonical range.
	_ = c
	z.condSubP()
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
		z[0], c = bits.Add64(z[0], pLimbs[0], 0)
		z[1], c = bits.Add64(z[1], pLimbs[1], c)
		z[2], c = bits.Add64(z[2], pLimbs[2], c)
		z[3], _ = bits.Add64(z[3], pLimbs[3], c)
	}
	return z
}

// Neg sets z = −x mod p and returns z.
func (z *Element) Neg(x *Element) *Element {
	if x.IsZero() {
		return z.SetZero()
	}
	var b uint64
	z[0], b = bits.Sub64(pLimbs[0], x[0], 0)
	z[1], b = bits.Sub64(pLimbs[1], x[1], b)
	z[2], b = bits.Sub64(pLimbs[2], x[2], b)
	z[3], _ = bits.Sub64(pLimbs[3], x[3], b)
	return z
}

// condSubP subtracts p once when z >= p.
func (z *Element) condSubP() {
	var b uint64
	var t Element
	t[0], b = bits.Sub64(z[0], pLimbs[0], 0)
	t[1], b = bits.Sub64(z[1], pLimbs[1], b)
	t[2], b = bits.Sub64(z[2], pLimbs[2], b)
	t[3], b = bits.Sub64(z[3], pLimbs[3], b)
	if b == 0 {
		*z = t
	}
}

// madd returns the 128-bit value t + a·b + c as (hi, lo). The sum cannot
// overflow: (2^64−1)² + 2·(2^64−1) = 2^128 − 1.
func madd(a, b, t, c uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var carry uint64
	lo, carry = bits.Add64(lo, t, 0)
	hi += carry
	lo, carry = bits.Add64(lo, c, 0)
	hi += carry
	return hi, lo
}

// Mul sets z = x·y mod p (inputs and output in Montgomery form) by the
// 4-limb CIOS method: interleaved multiply and Montgomery reduction with a
// single final conditional subtraction.
//
// The reduction step exploits p = 2^255 − 19: adding m·p is adding
// (m << 255) − 19·m, which costs one 64×64 multiply (19·m), a borrow
// chain, and two word-shifted adds — instead of the four madds a generic
// modulus needs. The intermediate t − 19·m may dip negative before the
// (m << 255) term lands; the chain runs in two's complement over the
// six-word window, and the final sum is exact because the true value is
// non-negative and fits the window.
func (z *Element) Mul(x, y *Element) *Element {
	var t [Limbs + 1]uint64
	var tExtra uint64 // the (s+2)-th word of CIOS; always 0 or 1
	for i := 0; i < Limbs; i++ {
		// t += x[i] · y
		var c uint64
		c, t[0] = madd(x[i], y[0], t[0], 0)
		c, t[1] = madd(x[i], y[1], t[1], c)
		c, t[2] = madd(x[i], y[2], t[2], c)
		c, t[3] = madd(x[i], y[3], t[3], c)
		var o uint64
		t[4], o = bits.Add64(t[4], c, 0)
		tExtra += o
		// Reduce: add m·p = (m << 255) − 19·m with m chosen so the low
		// word cancels, then shift one word.
		m := t[0] * montInv
		hi19, lo19 := bits.Mul64(m, 19)
		var b uint64
		_, b = bits.Sub64(t[0], lo19, 0) // ≡ 0 mod 2^64 by choice of m
		r1, b := bits.Sub64(t[1], hi19, b)
		r2, b := bits.Sub64(t[2], 0, b)
		r3, b := bits.Sub64(t[3], 0, b)
		r4, b := bits.Sub64(t[4], 0, b)
		r5 := tExtra - b
		r3, c = bits.Add64(r3, m<<63, 0)
		r4, c = bits.Add64(r4, m>>1, c)
		r5 += c
		t[0], t[1], t[2], t[3], t[4] = r1, r2, r3, r4, r5
		tExtra = 0
	}
	z[0], z[1], z[2], z[3] = t[0], t[1], t[2], t[3]
	if t[4] != 0 {
		var b uint64
		z[0], b = bits.Sub64(z[0], pLimbs[0], 0)
		z[1], b = bits.Sub64(z[1], pLimbs[1], b)
		z[2], b = bits.Sub64(z[2], pLimbs[2], b)
		z[3], _ = bits.Sub64(z[3], pLimbs[3], b)
		return z
	}
	z.condSubP()
	return z
}

// Square sets z = x² mod p and returns z. It forms the 512-bit square with
// ten 64×64 multiplications (each cross product once, doubled by a shift)
// instead of Mul's sixteen, then Montgomery-reduces the low half on its
// own: REDC(lo + 2^256·hi) = REDC(lo) + hi, and REDC(lo) ≤ p while
// hi < p/2, so the sum fits four words and needs one conditional
// subtraction.
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

	// Four reduction rounds over the low half, the same m·p =
	// (m << 255) − 19·m step as Mul. The running value stays below
	// 2^192 + p, so the window is four words and the transient fifth
	// (r4) always cancels.
	for i := 0; i < Limbs; i++ {
		m := w0 * montInv
		hi19, _ := bits.Mul64(m, 19) // low word equals w0 by choice of m
		r1, b := bits.Sub64(w1, hi19, 0)
		r2, b := bits.Sub64(w2, 0, b)
		r3, b := bits.Sub64(w3, 0, b)
		r4 := -b
		r3, c = bits.Add64(r3, m<<63, 0)
		r4 += m>>1 + c
		w0, w1, w2, w3 = r1, r2, r3, r4
	}

	z[0], c = bits.Add64(w0, t4, 0)
	z[1], c = bits.Add64(w1, t5, c)
	z[2], c = bits.Add64(w2, t6, c)
	z[3], _ = bits.Add64(w3, t7, c)
	z.condSubP()
	return z
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

// ExpUint sets z = x^e mod p for a small non-negative exponent by
// square-and-multiply (variable time in e; e is public protocol structure).
func (z *Element) ExpUint(x *Element, e uint64) *Element {
	if e == 0 {
		return z.SetOne()
	}
	base := *x
	acc := one
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			acc.Mul(&acc, &base)
		}
		base.Square(&base)
	}
	return z.Set(&acc)
}

// BatchInvert inverts every element of xs in place with Montgomery's trick:
// one Inv plus 3(n−1) multiplications. Any zero input yields ErrNoInverse
// and leaves xs unmodified.
func BatchInvert(xs []Element) error {
	if len(xs) == 0 {
		return nil
	}
	return BatchInvertScratch(xs, make([]Element, len(xs)))
}

// BatchInvertScratch is BatchInvert with caller-provided scratch of
// len(xs) elements, for hot loops that amortize the allocation.
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

// isCanonicalPlain reports whether the plain (non-Montgomery) limbs are < p.
func isCanonicalPlain(v *[Limbs]uint64) bool {
	var b uint64
	_, b = bits.Sub64(v[0], pLimbs[0], 0)
	_, b = bits.Sub64(v[1], pLimbs[1], b)
	_, b = bits.Sub64(v[2], pLimbs[2], b)
	_, b = bits.Sub64(v[3], pLimbs[3], b)
	return b != 0
}

// SetBytes parses the canonical fixed-width big-endian encoding (the same
// 32-byte form field.Field.Bytes produces), rejecting values >= p.
func (z *Element) SetBytes(b []byte) error {
	if len(b) != ElementLen {
		return fmt.Errorf("limb: element must be %d bytes, got %d", ElementLen, len(b))
	}
	var v [Limbs]uint64
	for i := 0; i < Limbs; i++ {
		v[i] = uint64(b[31-8*i]) | uint64(b[30-8*i])<<8 | uint64(b[29-8*i])<<16 | uint64(b[28-8*i])<<24 |
			uint64(b[27-8*i])<<32 | uint64(b[26-8*i])<<40 | uint64(b[25-8*i])<<48 | uint64(b[24-8*i])<<56
	}
	if !isCanonicalPlain(&v) {
		return ErrNotCanonical
	}
	*z = v
	z.Mul(z, &rSquared)
	return nil
}

// PutBytes writes the canonical fixed-width big-endian encoding into dst,
// which must be at least ElementLen bytes. It allocates nothing.
func (z *Element) PutBytes(dst []byte) {
	_ = dst[ElementLen-1]
	var t Element
	t.Mul(z, &one1) // Montgomery reduction by 1 leaves the plain residue
	for i := 0; i < Limbs; i++ {
		v := t[i]
		dst[31-8*i] = byte(v)
		dst[30-8*i] = byte(v >> 8)
		dst[29-8*i] = byte(v >> 16)
		dst[28-8*i] = byte(v >> 24)
		dst[27-8*i] = byte(v >> 32)
		dst[26-8*i] = byte(v >> 40)
		dst[25-8*i] = byte(v >> 48)
		dst[24-8*i] = byte(v >> 56)
	}
}

// one1 is the plain integer 1, used to strip the Montgomery factor.
var one1 = Element{1, 0, 0, 0}

// Bytes returns the canonical fixed-width big-endian encoding.
func (z *Element) Bytes() []byte {
	out := make([]byte, ElementLen)
	z.PutBytes(out)
	return out
}

// SetUint64 sets z to the given small integer.
func (z *Element) SetUint64(v uint64) *Element {
	*z = Element{v, 0, 0, 0}
	return z.Mul(z, &rSquared)
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

// Rand sets z to a field element derived from 32 rng bytes reduced mod p.
// The 2^−250 sampling bias against the smallest residues is cryptographically
// irrelevant for masks and decoys; what matters for the protocol is that the
// draw consumes a fixed number of rng bytes, keeping the stream — and hence
// the wire bytes — deterministic at any parallelism degree.
func (z *Element) Rand(rng io.Reader) error {
	var buf [ElementLen]byte
	if _, err := io.ReadFull(rng, buf[:]); err != nil {
		return fmt.Errorf("limb: sample element: %w", err)
	}
	var v [Limbs]uint64
	for i := 0; i < Limbs; i++ {
		v[i] = uint64(buf[31-8*i]) | uint64(buf[30-8*i])<<8 | uint64(buf[29-8*i])<<16 | uint64(buf[28-8*i])<<24 |
			uint64(buf[27-8*i])<<32 | uint64(buf[26-8*i])<<40 | uint64(buf[25-8*i])<<48 | uint64(buf[24-8*i])<<56
	}
	// v < 2^256 = 2p + 38, so at most two conditional subtractions.
	*z = v
	z.condSubP()
	z.condSubP()
	z.Mul(z, &rSquared)
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

// RandBytes writes a uniform field element directly in canonical encoded
// form into dst (exactly ElementLen bytes), consuming the same 32 rng bytes
// and producing the same residue as Rand followed by PutBytes — but without
// the two Montgomery domain conversions, which the caller does not need
// when the element only exists to be serialized (decoy records).
func RandBytes(rng io.Reader, dst []byte) error {
	if len(dst) != ElementLen {
		return fmt.Errorf("limb: element must be %d bytes, got %d", ElementLen, len(dst))
	}
	var buf [ElementLen]byte
	if _, err := io.ReadFull(rng, buf[:]); err != nil {
		return fmt.Errorf("limb: sample element: %w", err)
	}
	var v [Limbs]uint64
	for i := 0; i < Limbs; i++ {
		v[i] = uint64(buf[31-8*i]) | uint64(buf[30-8*i])<<8 | uint64(buf[29-8*i])<<16 | uint64(buf[28-8*i])<<24 |
			uint64(buf[27-8*i])<<32 | uint64(buf[26-8*i])<<40 | uint64(buf[25-8*i])<<48 | uint64(buf[24-8*i])<<56
	}
	// v < 2^256 = 2p + 38, so at most two conditional subtractions; the
	// limbs stay in the plain (non-Montgomery) domain throughout.
	e := (*Element)(&v)
	e.condSubP()
	e.condSubP()
	for i := 0; i < Limbs; i++ {
		w := e[i]
		dst[31-8*i] = byte(w)
		dst[30-8*i] = byte(w >> 8)
		dst[29-8*i] = byte(w >> 16)
		dst[28-8*i] = byte(w >> 24)
		dst[27-8*i] = byte(w >> 32)
		dst[26-8*i] = byte(w >> 40)
		dst[25-8*i] = byte(w >> 48)
		dst[24-8*i] = byte(w >> 56)
	}
	return nil
}
