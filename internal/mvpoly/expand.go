package mvpoly

import (
	"fmt"
	"math"
	"math/big"
)

// FloatExpansion is an expanded decision function over monomial variates:
// d(τ) = Σ_j Coeffs[j]·τ_j + Bias, where τ_j = Π_i t_i^Exps[j][i].
// This is the τ-space linearization of §IV-B: a client who computes its own
// τ̃ monomials can run the *linear* protocol over n' variates.
type FloatExpansion struct {
	// Exps enumerates the monomial exponent vectors (the τ variates).
	Exps [][]uint
	// Coeffs holds one coefficient per variate.
	Coeffs []float64
	// Bias is the additive constant.
	Bias float64
}

// MonomialValues maps a raw sample t to its τ̃ vector.
func (e *FloatExpansion) MonomialValues(t []float64) ([]float64, error) {
	out := make([]float64, len(e.Exps))
	for j, exps := range e.Exps {
		if len(exps) != len(t) {
			return nil, fmt.Errorf("%w: sample dim %d, variate arity %d", ErrArity, len(t), len(exps))
		}
		v := 1.0
		for i, k := range exps {
			for c := uint(0); c < k; c++ {
				v *= t[i]
			}
		}
		out[j] = v
	}
	return out, nil
}

// Eval evaluates the expansion directly on a raw sample.
func (e *FloatExpansion) Eval(t []float64) (float64, error) {
	tau, err := e.MonomialValues(t)
	if err != nil {
		return 0, err
	}
	acc := e.Bias
	for j, c := range e.Coeffs {
		acc += c * tau[j]
	}
	return acc, nil
}

// ExpandPolyKernel expands the polynomial-kernel decision function
//
//	d(t) = Σ_s α_s y_s (a0·x_s·t + b0)^p + b
//
// into a FloatExpansion over the τ variates of total degree <= p (exactly p
// when b0 == 0). alphaY[s] carries α_s·y_s for support vector sv[s].
func ExpandPolyKernel(sv [][]float64, alphaY []float64, a0, b0 float64, p int, bias float64) (*FloatExpansion, error) {
	if p < 1 {
		return nil, ErrBadDegree
	}
	if len(sv) != len(alphaY) {
		return nil, fmt.Errorf("mvpoly: %d support vectors but %d multipliers", len(sv), len(alphaY))
	}
	if len(sv) == 0 {
		return nil, fmt.Errorf("mvpoly: no support vectors")
	}
	n := len(sv[0])

	var exps [][]uint
	if b0 == 0 {
		exps = Compositions(n, p)
	} else {
		exps = CompositionsUpTo(n, p)
	}
	coeffIdx := make(map[string]int, len(exps))
	for j, e := range exps {
		coeffIdx[expsKey(e)] = j
	}
	coeffs := make([]float64, len(exps))
	biasOut := bias

	// (a0·x·t + b0)^p = Σ_{j=0..p} C(p,j)·b0^(p-j)·a0^j·(x·t)^j, and each
	// (x·t)^j expands by the multinomial theorem.
	for s, x := range sv {
		if len(x) != n {
			return nil, fmt.Errorf("mvpoly: support vector %d has dim %d, want %d", s, len(x), n)
		}
		lo := p
		if b0 != 0 {
			lo = 0
		}
		for j := p; j >= lo; j-- {
			outer := alphaY[s] * float64FromBig(binomial(p, j)) * math.Pow(b0, float64(p-j)) * math.Pow(a0, float64(j))
			if outer == 0 {
				continue
			}
			if j == 0 {
				biasOut += outer
				continue
			}
			for _, ks := range Compositions(n, j) {
				c := outer * float64FromBig(Multinomial(j, ks))
				for i, k := range ks {
					for cnt := uint(0); cnt < k; cnt++ {
						c *= x[i]
					}
				}
				if c == 0 {
					continue
				}
				idx, ok := coeffIdx[expsKey(ks)]
				if !ok {
					// Degree-j exponent vectors with j < p only exist when
					// b0 != 0, in which case exps covers all of them.
					return nil, fmt.Errorf("mvpoly: internal: missing variate for %v", ks)
				}
				coeffs[idx] += c
			}
		}
	}

	// The constant variate (all-zero exponents) duplicates the bias when
	// b0 != 0; fold it in so the expansion has a single constant.
	if b0 != 0 {
		if idx, ok := coeffIdx[expsKey(make([]uint, n))]; ok {
			biasOut += coeffs[idx]
			coeffs[idx] = 0
		}
	}
	return &FloatExpansion{Exps: exps, Coeffs: coeffs, Bias: biasOut}, nil
}

func float64FromBig(v *big.Int) float64 {
	f, _ := new(big.Float).SetInt(v).Float64()
	return f
}
