package field

import (
	"errors"
	"io"
	"math/big"
)

// ErrDimensionMismatch reports vectors of different lengths.
var ErrDimensionMismatch = errors.New("field: vector dimension mismatch")

// Vec is a vector of canonical field elements.
type Vec []*big.Int

// RandVec samples a uniform vector of dimension n.
func (f *Field) RandVec(rng io.Reader, n int) (Vec, error) {
	v := make(Vec, n)
	for i := range v {
		x, err := f.Rand(rng)
		if err != nil {
			return nil, err
		}
		v[i] = x
	}
	return v, nil
}

// Dot returns the inner product of a and b in the field.
func (f *Field) Dot(a, b Vec) (*big.Int, error) {
	if len(a) != len(b) {
		return nil, ErrDimensionMismatch
	}
	acc := new(big.Int)
	tmp := new(big.Int)
	for i := range a {
		tmp.Mul(a[i], b[i])
		acc.Add(acc, tmp)
	}
	return acc.Mod(acc, f.p), nil
}
