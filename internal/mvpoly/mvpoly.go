// Package mvpoly holds the sender's secret polynomial over a prime field,
// KernelSum (the object OMPE evaluates obliviously), and the
// float-coefficient expansion utilities of paper §IV-B: a polynomial-kernel
// decision function (a0·xᵀt + b0)^p over n variables expands into
// n' = C(n+p-1, n-1) monomial variates τ_j = Π t_i^{k_i}, turning the
// nonlinear protocol into the linear one over τ-space. KernelSum's trie is
// the same expansion kept on the trainer over the field, where it only
// changes how the decision function is computed.
package mvpoly

import (
	"errors"
	"math/big"

	"repro/internal/field"
)

var (
	// ErrArity reports an evaluation point of the wrong dimension.
	ErrArity = errors.New("mvpoly: evaluation point has wrong arity")
	// ErrBadDegree reports a non-positive expansion degree.
	ErrBadDegree = errors.New("mvpoly: degree must be >= 1")
)

// NewLinear builds w·x + b, the linear SVM decision shape of §IV-A, as
// the one-row degree-1 KernelSum. w and b are reduced into the field.
func NewLinear(f *field.Field, w field.Vec, b *big.Int) (*KernelSum, error) {
	row := make(field.Vec, len(w))
	for i, wi := range w {
		row[i] = f.FromBig(wi)
	}
	return NewKernelSum(f, [][]*big.Int{{f.Zero(), f.One()}}, []field.Vec{row}, f.Zero(), 1, f.FromBig(b))
}

// expsKey is a map key for an exponent vector.
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
