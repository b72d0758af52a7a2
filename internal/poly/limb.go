package poly

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/field/limb"
)

// LimbPoly is a univariate polynomial over the 2^255−19 field with
// fixed-width limb coefficients. It is the limb-engine counterpart of
// Poly: coefficients are stored by value in ascending degree order, so
// construction performs the only allocations and evaluation is
// allocation-free. The zero polynomial has an empty coefficient slice.
type LimbPoly struct {
	coeffs []limb.Element
}

// NewLimb constructs a polynomial from ascending-degree coefficients,
// copying the slice and trimming leading zeros.
func NewLimb(coeffs []limb.Element) *LimbPoly {
	n := len(coeffs)
	for n > 0 && coeffs[n-1].IsZero() {
		n--
	}
	cs := make([]limb.Element, n)
	copy(cs, coeffs[:n])
	return &LimbPoly{coeffs: cs}
}

// RandomLimb returns a uniform polynomial of exactly the given degree (its
// leading coefficient is non-zero) with the prescribed value at x=0. The
// rng draw order mirrors Random: constant term fixed, then the middle
// coefficients in ascending order, then the leading coefficient — one
// fixed-width 32-byte draw per coefficient, so the stream position after a
// call is input-independent.
func RandomLimb(rng io.Reader, degree int, valueAtZero *limb.Element) (*LimbPoly, error) {
	if degree < 0 {
		return nil, fmt.Errorf("poly: negative degree %d", degree)
	}
	coeffs := make([]limb.Element, degree+1)
	coeffs[0].Set(valueAtZero)
	for i := 1; i < degree; i++ {
		if err := coeffs[i].Rand(rng); err != nil {
			return nil, err
		}
	}
	if degree >= 1 {
		if err := coeffs[degree].RandNonZero(rng); err != nil {
			return nil, err
		}
	}
	return &LimbPoly{coeffs: coeffs}, nil
}

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p *LimbPoly) Degree() int { return len(p.coeffs) - 1 }

// Coeff copies the coefficient of x^i into out (zero beyond the degree).
func (p *LimbPoly) Coeff(i int, out *limb.Element) {
	if i < 0 || i >= len(p.coeffs) {
		out.SetZero()
		return
	}
	out.Set(&p.coeffs[i])
}

// EvalInto evaluates p at x by Horner's rule into out. out and x may
// alias. It allocates nothing.
func (p *LimbPoly) EvalInto(out, x *limb.Element) {
	var acc limb.Element
	for i := len(p.coeffs) - 1; i >= 0; i-- {
		acc.Mul(&acc, x)
		acc.Add(&acc, &p.coeffs[i])
	}
	out.Set(&acc)
}

// LimbInterpolator evaluates interpolating polynomials at x=0 over limb
// elements, reusing its scratch buffers across calls so the per-sample
// steady state allocates nothing. The zero value is ready to use; it must
// not be shared between goroutines.
type LimbInterpolator struct {
	den []limb.Element // per-node denominators, batch-inverted in place
	pre []limb.Element // pre[j] = x_0·…·x_{j−1}
	suf []limb.Element // suf[j] = x_{j+1}·…·x_{n−1}
	inv []limb.Element // batch-inversion scratch
}

func (ip *LimbInterpolator) grow(n int) {
	if cap(ip.den) < n {
		ip.den = make([]limb.Element, n)
		ip.pre = make([]limb.Element, n)
		ip.suf = make([]limb.Element, n)
		ip.inv = make([]limb.Element, n)
	}
	ip.den = ip.den[:n]
	ip.pre = ip.pre[:n]
	ip.suf = ip.suf[:n]
	ip.inv = ip.inv[:n]
}

// AtZero evaluates the unique polynomial through (xs[j], ys[j]) at x=0:
// R(0) = Σ_j y_j · Π_{i≠j} x_i / (x_i − x_j). This is the limb-backend
// counterpart of InterpolateAtZero, replacing the per-node modular
// inversion with a single batch inversion (Montgomery's trick): one
// Fermat inversion plus O(n) multiplications for the whole sample.
func (ip *LimbInterpolator) AtZero(xs, ys []limb.Element) (limb.Element, error) {
	var acc limb.Element
	n := len(xs)
	if n == 0 {
		return acc, ErrEmptyInput
	}
	if len(ys) != n {
		return acc, fmt.Errorf("poly: %d nodes but %d values", n, len(ys))
	}
	ip.grow(n)
	// Π_{i≠j} x_i as prefix·suffix products: 2n multiplications total
	// instead of n² in the per-term loop of the big path.
	ip.pre[0].SetOne()
	for j := 1; j < n; j++ {
		ip.pre[j].Mul(&ip.pre[j-1], &xs[j-1])
	}
	ip.suf[n-1].SetOne()
	for j := n - 2; j >= 0; j-- {
		ip.suf[j].Mul(&ip.suf[j+1], &xs[j+1])
	}
	var t limb.Element
	for j := 0; j < n; j++ {
		d := &ip.den[j]
		d.SetOne()
		for i := 0; i < n; i++ {
			if i == j {
				continue
			}
			t.Sub(&xs[i], &xs[j])
			if t.IsZero() {
				return acc, ErrDuplicateNode
			}
			d.Mul(d, &t)
		}
	}
	if err := limb.BatchInvertScratch(ip.den, ip.inv); err != nil {
		// Unreachable given the zero check above, but translate anyway.
		if errors.Is(err, limb.ErrNoInverse) {
			return acc, ErrDuplicateNode
		}
		return acc, err
	}
	for j := 0; j < n; j++ {
		t.Mul(&ip.pre[j], &ip.suf[j])
		t.Mul(&t, &ip.den[j])
		t.Mul(&t, &ys[j])
		acc.Add(&acc, &t)
	}
	return acc, nil
}

// InterpolateAtZeroLimb is a convenience wrapper over LimbInterpolator for
// one-shot calls.
func InterpolateAtZeroLimb(xs, ys []limb.Element) (limb.Element, error) {
	var ip LimbInterpolator
	return ip.AtZero(xs, ys)
}

// LimbNodes is one sample's interpolation input: equal-length node and
// value slices.
type LimbNodes struct {
	Xs, Ys []limb.Element
}

// AtZeroBatch interpolates every sample at x=0 into out (len(out) ==
// len(samples)). The denominators of ALL samples share one batch
// inversion, so a whole batch costs a single Fermat inversion plus O(total
// nodes) multiplications — the inversion was the dominant per-sample cost
// of AtZero in batched serving.
func (ip *LimbInterpolator) AtZeroBatch(samples []LimbNodes, out []limb.Element) error {
	if len(out) != len(samples) {
		return fmt.Errorf("poly: %d outputs for %d samples", len(out), len(samples))
	}
	total := 0
	for s, sm := range samples {
		if len(sm.Xs) == 0 {
			return ErrEmptyInput
		}
		if len(sm.Ys) != len(sm.Xs) {
			return fmt.Errorf("poly: sample %d: %d nodes but %d values", s, len(sm.Xs), len(sm.Ys))
		}
		total += len(sm.Xs)
	}
	ip.grow(total)
	var t limb.Element
	off := 0
	for _, sm := range samples {
		xs := sm.Xs
		n := len(xs)
		pre, suf, den := ip.pre[off:off+n], ip.suf[off:off+n], ip.den[off:off+n]
		pre[0].SetOne()
		for j := 1; j < n; j++ {
			pre[j].Mul(&pre[j-1], &xs[j-1])
		}
		suf[n-1].SetOne()
		for j := n - 2; j >= 0; j-- {
			suf[j].Mul(&suf[j+1], &xs[j+1])
		}
		for j := 0; j < n; j++ {
			d := &den[j]
			d.SetOne()
			for i := 0; i < n; i++ {
				if i == j {
					continue
				}
				t.Sub(&xs[i], &xs[j])
				if t.IsZero() {
					return ErrDuplicateNode
				}
				d.Mul(d, &t)
			}
		}
		off += n
	}
	if err := limb.BatchInvertScratch(ip.den, ip.inv); err != nil {
		if errors.Is(err, limb.ErrNoInverse) {
			return ErrDuplicateNode
		}
		return err
	}
	off = 0
	for s, sm := range samples {
		n := len(sm.Xs)
		acc := &out[s]
		acc.SetZero()
		for j := 0; j < n; j++ {
			t.Mul(&ip.pre[off+j], &ip.suf[off+j])
			t.Mul(&t, &ip.den[off+j])
			t.Mul(&t, &sm.Ys[j])
			acc.Add(acc, &t)
		}
		off += n
	}
	return nil
}
