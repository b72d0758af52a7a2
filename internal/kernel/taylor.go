// Package kernel provides polynomial approximations of the RBF and sigmoid
// kernels (paper §IV-B): both are transcendental, so before the OMPE
// protocol can evaluate them obliviously they are truncated to Taylor
// polynomials of a configurable order, "using a large number p to
// approximate the infinity".
package kernel

import (
	"errors"
	"fmt"
)

// ErrOrder reports an unsupported truncation order.
var ErrOrder = errors.New("kernel: unsupported truncation order")

// ExpSeries returns the coefficients c_0..c_terms of the truncated series
// exp(a·u) ≈ Σ_i c_i·uⁱ with c_i = aⁱ/i!. The RBF kernel uses a = −γ and
// u = ‖x−t‖², making the truncated kernel a polynomial of degree 2·terms
// in t.
func ExpSeries(a float64, terms int) ([]float64, error) {
	if terms < 1 {
		return nil, fmt.Errorf("%w: %d exp terms", ErrOrder, terms)
	}
	coeffs := make([]float64, terms+1)
	coeffs[0] = 1
	for i := 1; i <= terms; i++ {
		coeffs[i] = coeffs[i-1] * a / float64(i)
	}
	return coeffs, nil
}

// tanhCoeffs holds the Taylor coefficients of tanh(u) at odd degrees
// 1, 3, 5, ...: tanh u = u − u³/3 + 2u⁵/15 − 17u⁷/315 + 62u⁹/2835 − ...
// (the closed form uses Bernoulli numbers, as the paper's §IV-B notes).
var tanhCoeffs = []float64{
	1,
	-1.0 / 3,
	2.0 / 15,
	-17.0 / 315,
	62.0 / 2835,
	-1382.0 / 155925,
	21844.0 / 6081075,
	-929569.0 / 638512875,
}

// TanhSeries returns the odd-degree coefficients of tanh truncated to the
// given number of terms (degree 2·terms−1). At most 8 terms are tabulated;
// the series only converges for |u| < π/2, so deeper truncations are not
// useful in practice.
func TanhSeries(terms int) ([]float64, error) {
	if terms < 1 || terms > len(tanhCoeffs) {
		return nil, fmt.Errorf("%w: %d tanh terms (1..%d)", ErrOrder, terms, len(tanhCoeffs))
	}
	out := make([]float64, terms)
	copy(out, tanhCoeffs[:terms])
	return out, nil
}

// TanhApprox evaluates the truncated tanh series at u.
func TanhApprox(u float64, terms int) (float64, error) {
	coeffs, err := TanhSeries(terms)
	if err != nil {
		return 0, err
	}
	u2 := u * u
	acc := 0.0
	pow := u
	for _, c := range coeffs {
		acc += c * pow
		pow *= u2
	}
	return acc, nil
}

// RBFApprox evaluates the truncated RBF kernel exp(−γ·d²) ≈ Σ (−γ·d²)ⁱ/i!
// where d² is the squared distance.
func RBFApprox(gamma, sqDist float64, terms int) (float64, error) {
	coeffs, err := ExpSeries(-gamma, terms)
	if err != nil {
		return 0, err
	}
	acc := 0.0
	pow := 1.0
	for _, c := range coeffs {
		acc += c * pow
		pow *= sqDist
	}
	return acc, nil
}
