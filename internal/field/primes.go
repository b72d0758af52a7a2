package field

import (
	"fmt"
	"math/big"
)

// Mersenne exponents of the built-in large fields. 2^521-1, 2^607-1 and
// 2^1279-1 are Mersenne primes; they give cheap reduction and plenty of
// headroom for high-degree fixed-point products (a degree-d protocol
// polynomial at 40 fractional bits needs roughly 40·(d+1) bits plus
// amplifier and value headroom; see DESIGN.md §3).
const (
	MersenneExp521  = 521
	MersenneExp607  = 607
	MersenneExp1279 = 1279
)

// Mersenne returns the field F_{2^exp - 1}. The caller must pass a Mersenne
// prime exponent; the built-in constants are verified by tests.
func Mersenne(exp uint) (*Field, error) {
	p := new(big.Int).Lsh(big.NewInt(1), exp)
	p.Sub(p, big.NewInt(1))
	return New(p)
}

// ByBits returns the smallest built-in prime field with at least minBits
// bits, for protocols that compute their own headroom requirement. Every
// need up to 255 bits lands on 2^255−19, so any protocol that fits it runs
// on the limb engine.
func ByBits(minBits int) (*Field, error) {
	switch {
	case minBits <= 255:
		return NewFromHex(P25519Hex)
	case minBits <= MersenneExp521:
		return Mersenne(MersenneExp521)
	case minBits <= MersenneExp607:
		return Mersenne(MersenneExp607)
	case minBits <= MersenneExp1279:
		return Mersenne(MersenneExp1279)
	default:
		return nil, fmt.Errorf("field: no built-in prime with %d bits (max %d)", minBits, MersenneExp1279)
	}
}
