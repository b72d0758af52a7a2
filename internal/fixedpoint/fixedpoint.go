// Package fixedpoint provides exact fixed-point encoding of real values
// into prime-field elements, the numeric bridge between the SVM layer
// (float64 models and samples) and the protocol layer (field arithmetic).
//
// A real x is encoded as round(x * 2^fracBits) mod p. Sums of encodings at
// one scale decode exactly; a product of two encodings carries the product
// of their scales. Because OMPE evaluates polynomials whose monomials have
// different degrees, the Codec supports "scale-normalized" coefficient
// encoding: the coefficient of a degree-k monomial is encoded at scale
// 2^(target - k*input), so every monomial — and hence the whole polynomial
// value — decodes at the single target scale. See DESIGN.md §3.
package fixedpoint

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"

	"repro/internal/field"
)

var (
	// ErrNotFinite reports an attempt to encode NaN or ±Inf.
	ErrNotFinite = errors.New("fixedpoint: value is not finite")
	// ErrOverflow reports a value whose encoding would leave the centered
	// range of the field and therefore lose its sign.
	ErrOverflow = errors.New("fixedpoint: encoded value overflows field")
)

// Codec encodes and decodes reals at a fixed fractional precision over a
// given field. It is immutable and safe for concurrent use.
type Codec struct {
	f        *field.Field
	fracBits uint
	scale    *big.Int // 2^fracBits
	// maxAbs bounds |x*scale| so encodings stay strictly inside (-p/2, p/2).
	maxAbs *big.Int
	// modulus is a private copy of the field modulus so the power-of-two
	// encode can reduce a negative value by one subtraction instead of a
	// division.
	modulus *big.Int
}

// NewCodec returns a codec with the given fractional precision.
func NewCodec(f *field.Field, fracBits uint) (*Codec, error) {
	if f == nil {
		return nil, errors.New("fixedpoint: nil field")
	}
	if fracBits == 0 || fracBits >= uint(f.Bits()-2) {
		return nil, fmt.Errorf("fixedpoint: fracBits %d out of range for %d-bit field", fracBits, f.Bits())
	}
	half := new(big.Int).Rsh(f.Modulus(), 1)
	return &Codec{
		f:        f,
		fracBits: fracBits,
		scale:    new(big.Int).Lsh(big.NewInt(1), fracBits),
		maxAbs:   half,
		modulus:  f.Modulus(),
	}, nil
}

// Field returns the underlying field.
func (c *Codec) Field() *field.Field { return c.f }

// FracBits returns the fractional precision in bits.
func (c *Codec) FracBits() uint { return c.fracBits }

// Scale returns a copy of 2^fracBits.
func (c *Codec) Scale() *big.Int { return new(big.Int).Set(c.scale) }

// ScalePow returns a copy of 2^(k*fracBits), the scale of a degree-k
// product of data encodings.
func (c *Codec) ScalePow(k uint) *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), c.fracBits*k)
}

// EncodeAtScale maps a real to round(x*scale) mod p for a power-of-two
// scale, the only kind the codec hands out (Scale, ScalePow);
// scale-normalized polynomial coefficients use scale = 2^(target -
// degree*input). Any other scale is refused.
func (c *Codec) EncodeAtScale(x float64, scale *big.Int) (*big.Int, error) {
	if scale.Sign() <= 0 || scale.TrailingZeroBits() != uint(scale.BitLen()-1) {
		return nil, fmt.Errorf("fixedpoint: scale %v is not a power of two", scale)
	}
	v := new(big.Int)
	if err := c.encodePow2(v, x, scale.BitLen()-1); err != nil {
		return nil, err
	}
	return v, nil
}

// encodePow2 sets z to round(x·2^shift) mod p exactly, half away from
// zero. With |x| = m·2^e for the 53-bit integer mantissa m, the magnitude
// is m·2^(e+shift): an exact left shift, or a right shift rounded on the
// dropped bits. A magnitude at or above p/2 is ErrOverflow, so a negative
// value is p minus it. z needs at most one word more than p; given that
// capacity, encodePow2 allocates nothing.
func (c *Codec) encodePow2(z *big.Int, x float64, shift int) error {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return ErrNotFinite
	}
	z.SetUint64(0)
	if x == 0 {
		return nil
	}
	fr, exp := math.Frexp(math.Abs(x))
	m := uint64(fr * (1 << 53)) // exact: fr has at most 53 mantissa bits
	t := exp - 53 + shift
	switch {
	case t >= 0:
	case t >= -63:
		r := uint(-t)
		m, t = (m+1<<(r-1))>>r, 0
	default:
		// |x·2^shift| < 2^-10: rounds to zero (m < 2^53, r ≥ 64).
		return nil
	}
	if m == 0 {
		return nil
	}
	if bits.Len64(m)+t > c.modulus.BitLen() { // past p/2 before it is built
		return ErrOverflow
	}
	if z.SetUint64(m).Lsh(z, uint(t)).Cmp(c.maxAbs) >= 0 {
		return ErrOverflow
	}
	if x < 0 {
		z.Sub(c.modulus, z)
	}
	return nil
}

// EncodeVec encodes a float vector at the base scale, element i as
// EncodeAtScale(xs[i], Scale()) would, into one word backing: three
// allocations at any length. Each element's slice is capped, so one that
// later grows moves instead of overwriting its neighbour.
func (c *Codec) EncodeVec(xs []float64) (field.Vec, error) {
	w := len(c.modulus.Bits()) + 1
	words := make([]big.Word, len(xs)*w)
	ints := make([]big.Int, len(xs))
	out := make(field.Vec, len(xs))
	for i, x := range xs {
		out[i] = ints[i].SetBits(words[i*w : i*w : (i+1)*w])
		if err := c.encodePow2(out[i], x, int(c.fracBits)); err != nil {
			return nil, fmt.Errorf("component %d: %w", i, err)
		}
	}
	return out, nil
}

// DecodeAtScale recovers the real value of an element at the given scale,
// interpreting the element in centered representation.
func (c *Codec) DecodeAtScale(e *big.Int, scale *big.Int) (float64, error) {
	if !c.f.Contains(e) {
		return 0, field.ErrNotInField
	}
	if scale == nil || scale.Sign() <= 0 {
		return 0, errors.New("fixedpoint: scale must be positive")
	}
	centered := c.f.Centered(e)
	r := new(big.Rat).SetFrac(centered, scale)
	out, _ := r.Float64()
	if math.IsInf(out, 0) {
		return 0, ErrOverflow
	}
	return out, nil
}

// Sign returns the sign (-1, 0, +1) of an encoded value in centered
// representation, regardless of its scale. Classification only needs this.
func (c *Codec) Sign(e *big.Int) (int, error) {
	if !c.f.Contains(e) {
		return 0, field.ErrNotInField
	}
	return c.f.Centered(e).Sign(), nil
}
