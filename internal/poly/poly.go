// Package poly implements univariate polynomials over a prime field. It
// supplies the two polynomial primitives the OMPE protocol is built from:
// random masking polynomials with a fixed value at zero (the sender's h(u)
// with h(0)=0 and the receiver's covers g_i(v) with g_i(0)=t̃_i), and exact
// Lagrange interpolation at zero used to reconstruct B(0) from the
// oblivious transfer output (paper Eq. 3).
package poly

import (
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/field"
)

var (
	// ErrDuplicateNode reports repeated x-coordinates in interpolation input.
	ErrDuplicateNode = errors.New("poly: duplicate interpolation node")
	// ErrEmptyInput reports an interpolation call with no points.
	ErrEmptyInput = errors.New("poly: no interpolation points")
)

// Poly is a univariate polynomial over a field. Coefficients are stored in
// ascending degree order; coeffs[i] multiplies x^i.
type Poly struct {
	f      *field.Field
	coeffs []*big.Int
}

// Random returns a uniform polynomial of exactly the given degree (its
// leading coefficient is non-zero) with the prescribed value at x=0.
//
// OMPE masking polynomials are Random(f, rng, deg, 0); receiver covers are
// Random(f, rng, deg, encodedSample_i).
func Random(f *field.Field, rng io.Reader, degree int, valueAtZero *big.Int) (*Poly, error) {
	if degree < 0 {
		return nil, fmt.Errorf("poly: negative degree %d", degree)
	}
	coeffs := make([]*big.Int, degree+1)
	coeffs[0] = f.FromBig(valueAtZero)
	for i := 1; i < degree; i++ {
		c, err := f.Rand(rng)
		if err != nil {
			return nil, err
		}
		coeffs[i] = c
	}
	if degree >= 1 {
		lead, err := f.RandNonZero(rng)
		if err != nil {
			return nil, err
		}
		coeffs[degree] = lead
	}
	return &Poly{f: f, coeffs: coeffs}, nil
}

// Eval evaluates p at x by Horner's rule with a single in-place
// accumulator: one Mul/Add/Mod per coefficient, no per-step allocation.
func (p *Poly) Eval(x *big.Int) *big.Int {
	acc := new(big.Int)
	if len(p.coeffs) == 0 {
		return acc
	}
	m := p.f.Modulus()
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, x)
		acc.Add(acc, p.coeffs[i])
		acc.Mod(acc, m)
	}
	return acc
}

// Point is an (x, y) evaluation pair used for interpolation.
type Point struct {
	X *big.Int
	Y *big.Int
}

// InterpolateAtZero evaluates the interpolating polynomial at x=0 without
// materializing it: R(0) = sum_j y_j * prod_{i != j} x_i / (x_i - x_j).
// This is the hot path of OMPE result retrieval (B(0) = r_a·d(t̃)).
func InterpolateAtZero(f *field.Field, points []Point) (*big.Int, error) {
	if len(points) == 0 {
		return nil, ErrEmptyInput
	}
	// All basis scratch is allocated once and reused across terms; the
	// inner products run on raw big.Int ops against a single modulus copy.
	m := f.Modulus()
	var (
		acc = new(big.Int)
		num = new(big.Int)
		den = new(big.Int)
		tmp = new(big.Int)
	)
	for j := range points {
		num.SetInt64(1)
		den.SetInt64(1)
		for i := range points {
			if i == j {
				continue
			}
			num.Mul(num, points[i].X)
			num.Mod(num, m)
			tmp.Sub(points[i].X, points[j].X)
			den.Mul(den, tmp)
			den.Mod(den, m)
		}
		invDen, err := f.Inv(den)
		if err != nil {
			if errors.Is(err, field.ErrNoInverse) {
				return nil, ErrDuplicateNode
			}
			return nil, err
		}
		tmp.Mul(num, invDen)
		tmp.Mod(tmp, m)
		tmp.Mul(tmp, points[j].Y)
		tmp.Mod(tmp, m)
		acc.Add(acc, tmp)
	}
	return acc.Mod(acc, m), nil
}
