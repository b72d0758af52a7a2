// Package mvpoly implements sparse multivariate polynomials, both over a
// prime field (the sender-side objects OMPE evaluates obliviously) and the
// float-coefficient expansion utilities of paper §IV-B: a polynomial-kernel
// decision function (a0·xᵀt + b0)^p over n variables expands into
// n' = C(n+p-1, n-1) monomial variates τ_j = Π t_i^{k_i}, turning the
// nonlinear protocol into the linear one over τ-space. KernelSum is the
// same expansion kept on the trainer over the field, where it only
// changes how the decision function is computed.
package mvpoly

import (
	"errors"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/field"
	"repro/internal/field/limb"
)

var (
	// ErrArity reports an evaluation point of the wrong dimension.
	ErrArity = errors.New("mvpoly: evaluation point has wrong arity")
	// ErrBadDegree reports a non-positive expansion degree.
	ErrBadDegree = errors.New("mvpoly: degree must be >= 1")
)

// Term is one monomial: Coeff * Π x_i^Exps[i].
type Term struct {
	Coeff *big.Int
	Exps  []uint
}

// Poly is a sparse multivariate polynomial over a prime field.
type Poly struct {
	f     *field.Field
	nvars int
	terms []Term

	// Limb-encoded coefficients, built lazily on the first EvalLimb call
	// (only valid over the 2^255−19 field).
	limbOnce   sync.Once
	limbCoeffs []limb.Element
	limbErr    error
}

// New builds a polynomial from terms, reducing coefficients into the field
// and dropping zero terms. Every term must have exactly nvars exponents.
func New(f *field.Field, nvars int, terms []Term) (*Poly, error) {
	if nvars < 0 {
		return nil, fmt.Errorf("mvpoly: negative arity %d", nvars)
	}
	out := make([]Term, 0, len(terms))
	for i, t := range terms {
		if len(t.Exps) != nvars {
			return nil, fmt.Errorf("mvpoly: term %d has %d exponents, want %d", i, len(t.Exps), nvars)
		}
		c := f.FromBig(t.Coeff)
		if c.Sign() == 0 {
			continue
		}
		exps := make([]uint, nvars)
		copy(exps, t.Exps)
		out = append(out, Term{Coeff: c, Exps: exps})
	}
	return &Poly{f: f, nvars: nvars, terms: out}, nil
}

// NewLinear builds w·x + b, the linear SVM decision shape of §IV-A.
func NewLinear(f *field.Field, w field.Vec, b *big.Int) (*Poly, error) {
	terms := make([]Term, 0, len(w)+1)
	for i, wi := range w {
		exps := make([]uint, len(w))
		exps[i] = 1
		terms = append(terms, Term{Coeff: wi, Exps: exps})
	}
	terms = append(terms, Term{Coeff: b, Exps: make([]uint, len(w))})
	return New(f, len(w), terms)
}

// NumVars returns the polynomial's arity.
func (p *Poly) NumVars() int { return p.nvars }

// NumTerms returns the number of non-zero monomials.
func (p *Poly) NumTerms() int { return len(p.terms) }

// TotalDegree returns the maximum term degree (0 for constants and the zero
// polynomial).
func (p *Poly) TotalDegree() int {
	maxDeg := 0
	for _, t := range p.terms {
		d := 0
		for _, e := range t.Exps {
			d += int(e)
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// Terms returns a deep copy of the term list.
func (p *Poly) Terms() []Term {
	out := make([]Term, len(p.terms))
	for i, t := range p.terms {
		exps := make([]uint, len(t.Exps))
		copy(exps, t.Exps)
		out[i] = Term{Coeff: new(big.Int).Set(t.Coeff), Exps: exps}
	}
	return out
}

// Eval evaluates the polynomial at a field point.
func (p *Poly) Eval(x field.Vec) (*big.Int, error) {
	if len(x) != p.nvars {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrArity, len(x), p.nvars)
	}
	acc := new(big.Int)
	mono := new(big.Int)
	for _, t := range p.terms {
		mono.Set(t.Coeff)
		for i, e := range t.Exps {
			for k := uint(0); k < e; k++ {
				mono.Mul(mono, x[i])
				mono = p.f.Reduce(mono)
			}
		}
		acc.Add(acc, mono)
		acc = p.f.Reduce(acc)
	}
	return p.f.Reduce(acc), nil
}

// EvalLimb evaluates the polynomial at a fixed-width limb point (the
// ompe.LimbEvaluator contract). The coefficient encodings are built once
// on first use; after that the evaluation allocates nothing. Only valid
// when the polynomial's field is 2^255−19.
func (p *Poly) EvalLimb(x []limb.Element, out *limb.Element) error {
	if len(x) != p.nvars {
		return fmt.Errorf("%w: got %d, want %d", ErrArity, len(x), p.nvars)
	}
	p.limbOnce.Do(func() {
		if !p.f.SupportsLimb() {
			p.limbErr = fmt.Errorf("mvpoly: limb evaluation requires the 2^255−19 field")
			return
		}
		cs := make([]limb.Element, len(p.terms))
		for i, t := range p.terms {
			if err := cs[i].SetBig(t.Coeff); err != nil {
				p.limbErr = fmt.Errorf("mvpoly: term %d coefficient: %w", i, err)
				return
			}
		}
		p.limbCoeffs = cs
	})
	if p.limbErr != nil {
		return p.limbErr
	}
	var acc, mono limb.Element
	for ti := range p.terms {
		mono = p.limbCoeffs[ti]
		for i, e := range p.terms[ti].Exps {
			for k := uint(0); k < e; k++ {
				mono.Mul(&mono, &x[i])
			}
		}
		acc.Add(&acc, &mono)
	}
	out.Set(&acc)
	return nil
}

// Add returns p+q (same arity required).
func (p *Poly) Add(q *Poly) (*Poly, error) {
	if p.nvars != q.nvars {
		return nil, ErrArity
	}
	merged := append(p.Terms(), q.Terms()...)
	return New(p.f, p.nvars, normalizeTerms(p.f, merged))
}

// ScalarMul returns s*p.
func (p *Poly) ScalarMul(s *big.Int) (*Poly, error) {
	terms := p.Terms()
	for i := range terms {
		terms[i].Coeff = p.f.Mul(terms[i].Coeff, s)
	}
	return New(p.f, p.nvars, terms)
}

// normalizeTerms merges duplicate exponent vectors.
func normalizeTerms(f *field.Field, terms []Term) []Term {
	index := make(map[string]int, len(terms))
	out := make([]Term, 0, len(terms))
	for _, t := range terms {
		key := expsKey(t.Exps)
		if i, ok := index[key]; ok {
			out[i].Coeff = f.Add(out[i].Coeff, t.Coeff)
			continue
		}
		index[key] = len(out)
		out = append(out, t)
	}
	return out
}

func expsKey(exps []uint) string {
	b := make([]byte, 0, len(exps)*3)
	for _, e := range exps {
		b = append(b, byte(e), byte(e>>8), ',')
	}
	return string(b)
}

// Compositions enumerates every way to write total as an ordered sum of n
// non-negative integers, i.e. all exponent vectors of homogeneous degree
// `total` monomials in n variables.
func Compositions(n, total int) [][]uint {
	if n == 0 {
		if total == 0 {
			return [][]uint{{}}
		}
		return nil
	}
	var out [][]uint
	cur := make([]uint, n)
	var rec func(pos, remaining int)
	rec = func(pos, remaining int) {
		if pos == n-1 {
			cur[pos] = uint(remaining)
			c := make([]uint, n)
			copy(c, cur)
			out = append(out, c)
			return
		}
		for v := 0; v <= remaining; v++ {
			cur[pos] = uint(v)
			rec(pos+1, remaining-v)
		}
	}
	rec(0, total)
	return out
}

// CompositionsUpTo enumerates exponent vectors of total degree <= maxTotal,
// the variate set of an inhomogeneous degree-p expansion.
func CompositionsUpTo(n, maxTotal int) [][]uint {
	var out [][]uint
	for d := 0; d <= maxTotal; d++ {
		out = append(out, Compositions(n, d)...)
	}
	return out
}

// Multinomial returns p! / (k_1! · ... · k_n!) for sum(k)=p.
func Multinomial(p int, ks []uint) *big.Int {
	result := big.NewInt(1)
	remaining := p
	for _, k := range ks {
		result.Mul(result, binomial(remaining, int(k)))
		remaining -= int(k)
	}
	return result
}

// NumMonomials returns C(n+p-1, n-1), the paper's n' variate count for a
// homogeneous degree-p expansion over n variables.
func NumMonomials(n, p int) *big.Int {
	return binomial(n+p-1, n-1)
}

func binomial(n, k int) *big.Int {
	if k < 0 || k > n {
		return new(big.Int)
	}
	return new(big.Int).Binomial(int64(n), int64(k))
}
