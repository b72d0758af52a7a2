// Package field implements arithmetic in a prime field F_p on top of
// math/big. It is the exact substrate on which every protocol in this
// repository (OMPE, oblivious transfer payloads, fixed-point encodings)
// operates: all masking polynomials, cover polynomials, and amplified
// decision values are elements of one shared field.
//
// Elements are canonical *big.Int values in [0, p). The Field type is
// immutable after construction and safe for concurrent use; element values
// returned by its methods are freshly allocated.
package field

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/field/limb"
)

// Well-known primes usable as protocol fields.
const (
	// P25519Hex is 2^255 - 19 (the Curve25519 base-field prime). It is the
	// default protocol field: large enough that fixed-point values with a
	// 2^40 scale and degree-4 polynomials never wrap, small enough that
	// element operations stay cheap.
	P25519Hex = "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed"
)

var (
	// ErrNotInField reports a value outside [0, p).
	ErrNotInField = errors.New("field: value not a canonical field element")
	// ErrNoInverse reports an attempt to invert zero.
	ErrNoInverse = errors.New("field: zero has no multiplicative inverse")
)

// Field is a prime field F_p.
type Field struct {
	p    *big.Int // the modulus, prime
	half *big.Int // floor(p/2), used for centered decoding
	bits int
	limb bool // p = 2^255−19 (SupportsLimb)
}

// New returns the field with the given prime modulus. The primality of p is
// the caller's responsibility; NewFromHex validates the library's built-in
// constants in tests.
func New(p *big.Int) (*Field, error) {
	if p == nil || p.Sign() <= 0 || p.Cmp(big.NewInt(2)) < 0 {
		return nil, errors.New("field: modulus must be a prime >= 2")
	}
	f := &Field{
		p:    new(big.Int).Set(p),
		half: new(big.Int).Rsh(p, 1),
		bits: p.BitLen(),
		limb: p.Cmp(limb.Modulus()) == 0,
	}
	return f, nil
}

// NewFromHex constructs a field from a hexadecimal modulus string.
func NewFromHex(hexModulus string) (*Field, error) {
	p, ok := new(big.Int).SetString(hexModulus, 16)
	if !ok {
		return nil, fmt.Errorf("field: invalid hex modulus %q", hexModulus)
	}
	return New(p)
}

// Default returns the default protocol field F_{2^255-19}.
func Default() *Field {
	f, err := NewFromHex(P25519Hex)
	if err != nil {
		// The constant is compile-time fixed; failure is a programming error.
		panic(err)
	}
	return f
}

// Modulus returns a copy of p.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(f.p) }

// Bits returns the bit length of the modulus.
func (f *Field) Bits() int { return f.bits }

// ElementLen returns the fixed byte length of a serialized element.
func (f *Field) ElementLen() int { return (f.bits + 7) / 8 }

// Contains reports whether x is a canonical element, i.e. 0 <= x < p.
func (f *Field) Contains(x *big.Int) bool {
	return x != nil && x.Sign() >= 0 && x.Cmp(f.p) < 0
}

// Reduce returns x mod p as a canonical element.
func (f *Field) Reduce(x *big.Int) *big.Int {
	r := new(big.Int).Mod(x, f.p)
	return r
}

// Zero returns the additive identity.
func (f *Field) Zero() *big.Int { return new(big.Int) }

// One returns the multiplicative identity.
func (f *Field) One() *big.Int { return big.NewInt(1) }

// Add returns a+b mod p.
func (f *Field) Add(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Add(a, b))
}

// Sub returns a-b mod p.
func (f *Field) Sub(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Sub(a, b))
}

// Neg returns -a mod p.
func (f *Field) Neg(a *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Neg(a))
}

// Mul returns a*b mod p.
func (f *Field) Mul(a, b *big.Int) *big.Int {
	return f.Reduce(new(big.Int).Mul(a, b))
}

// Inv returns the multiplicative inverse of a, or ErrNoInverse for zero.
func (f *Field) Inv(a *big.Int) (*big.Int, error) {
	if f.Reduce(a).Sign() == 0 {
		return nil, ErrNoInverse
	}
	inv := new(big.Int).ModInverse(a, f.p)
	if inv == nil {
		return nil, fmt.Errorf("field: %v and modulus not coprime", a)
	}
	return inv, nil
}

// Rand returns a uniform element of [0, p) using the given entropy source
// (crypto/rand.Reader in production code).
func (f *Field) Rand(rng io.Reader) (*big.Int, error) {
	x, err := rand.Int(rng, f.p)
	if err != nil {
		return nil, fmt.Errorf("field: sample element: %w", err)
	}
	return x, nil
}

// RandNonZero returns a uniform element of [1, p).
func (f *Field) RandNonZero(rng io.Reader) (*big.Int, error) {
	pm1 := new(big.Int).Sub(f.p, big.NewInt(1))
	x, err := rand.Int(rng, pm1)
	if err != nil {
		return nil, fmt.Errorf("field: sample nonzero element: %w", err)
	}
	return x.Add(x, big.NewInt(1)), nil
}

// RandBounded returns a uniform integer in [1, bound] as a field element.
// Protocol amplifiers (r_a, r_am, r_aw) use this: they must be positive and
// small enough that amplified fixed-point values stay within the centered
// range, so the classification sign survives amplification.
func (f *Field) RandBounded(rng io.Reader, bound *big.Int) (*big.Int, error) {
	if bound == nil || bound.Sign() <= 0 {
		return nil, errors.New("field: amplifier bound must be positive")
	}
	if bound.Cmp(f.half) >= 0 {
		return nil, errors.New("field: amplifier bound exceeds centered range")
	}
	x, err := rand.Int(rng, bound)
	if err != nil {
		return nil, fmt.Errorf("field: sample bounded element: %w", err)
	}
	return x.Add(x, big.NewInt(1)), nil
}

// Centered maps a canonical element into the symmetric interval
// (-p/2, p/2]. Fixed-point decodings use this to recover signed values.
func (f *Field) Centered(x *big.Int) *big.Int {
	c := new(big.Int).Set(x)
	if c.Cmp(f.half) > 0 {
		c.Sub(c, f.p)
	}
	return c
}

// FromInt64 embeds a signed integer into the field.
func (f *Field) FromInt64(v int64) *big.Int {
	return f.Reduce(big.NewInt(v))
}

// FromBig embeds a (possibly negative or oversized) integer into the field.
func (f *Field) FromBig(v *big.Int) *big.Int { return f.Reduce(v) }

// Bytes serializes a canonical element as a fixed-width big-endian slice.
func (f *Field) Bytes(x *big.Int) ([]byte, error) {
	if !f.Contains(x) {
		return nil, ErrNotInField
	}
	out := make([]byte, f.ElementLen())
	x.FillBytes(out)
	return out, nil
}

// FromBytes parses a fixed-width big-endian element, rejecting values >= p.
func (f *Field) FromBytes(b []byte) (*big.Int, error) {
	if len(b) != f.ElementLen() {
		return nil, fmt.Errorf("field: element must be %d bytes, got %d", f.ElementLen(), len(b))
	}
	x := new(big.Int).SetBytes(b)
	if !f.Contains(x) {
		return nil, ErrNotInField
	}
	return x, nil
}

// String implements fmt.Stringer.
func (f *Field) String() string {
	return fmt.Sprintf("F_p (%d bits)", f.bits)
}
