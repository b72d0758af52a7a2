package poly

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/field/limb"
)

// LimbPoly is a univariate polynomial over the 2^255−19 field with
// fixed-width limb coefficients, the limb-engine form of the sender's
// masking polynomial h. RandomLimb or LimbPolyOf builds it; coefficients
// are stored by value in ascending degree order, so construction
// performs the only allocations and evaluation is allocation-free.
type LimbPoly struct {
	coeffs []limb.Element
}

// RandomLimb returns a uniform polynomial of exactly the given degree (its
// leading coefficient is non-zero) with the prescribed value at x=0. The
// rng draw order mirrors Random: coefficients 1..degree in ascending order,
// in one read of 32 bytes each, so the stream position after a call is
// input-independent; a zero leading coefficient is drawn again.
func RandomLimb(rng io.Reader, degree int, valueAtZero *limb.Element) (*LimbPoly, error) {
	if degree < 0 {
		return nil, fmt.Errorf("poly: negative degree %d", degree)
	}
	coeffs := make([]limb.Element, degree+1)
	coeffs[0].Set(valueAtZero)
	if err := limb.RandElements(rng, coeffs[1:]); err != nil {
		return nil, err
	}
	if degree >= 1 && coeffs[degree].IsZero() {
		if err := coeffs[degree].RandNonZero(rng); err != nil {
			return nil, err
		}
	}
	return &LimbPoly{coeffs: coeffs}, nil
}

// LimbPolyOf returns the polynomial with the given coefficients, in
// ascending degree order, keeping the slice: a caller that draws many
// polynomials' coefficients into one slab wraps each run of it.
func LimbPolyOf(coeffs []limb.Element) LimbPoly { return LimbPoly{coeffs: coeffs} }

// EvalInto evaluates p at x by Horner's rule into out, starting from the
// leading coefficient: degree multiplications. out and x may alias. It
// allocates nothing.
func (p *LimbPoly) EvalInto(out, x *limb.Element) {
	acc := p.coeffs[len(p.coeffs)-1]
	for i := len(p.coeffs) - 2; i >= 0; i-- {
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

// LimbNodes is one sample's interpolation input: equal-length node and
// value slices.
type LimbNodes struct {
	Xs, Ys []limb.Element
}

// AtZeroBatch evaluates, for every sample, the unique polynomial through
// its nodes at x=0 into out (len(out) == len(samples)):
// R(0) = Σ_j y_j · Π_{i≠j} x_i / (x_i − x_j). It is the limb counterpart
// of InterpolateAtZero. Π_{i≠j} x_i comes from prefix·suffix products,
// and the denominators of ALL samples share one batch inversion
// (Montgomery's trick), so a whole batch costs a single Fermat inversion
// plus O(total nodes) multiplications.
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
		var acc limb.Sum
		for j := 0; j < n; j++ {
			t.Mul(&ip.pre[off+j], &ip.suf[off+j])
			t.Mul(&t, &ip.den[off+j])
			acc.MulAdd(&t, &sm.Ys[j])
		}
		acc.Reduce(&out[s])
		off += n
	}
	return nil
}
