package poly

import (
	"math/big"

	"repro/internal/field"
)

// FromCoeffs builds the polynomial with the given ascending-degree
// coefficients, reduced into f, for the external tests.
func FromCoeffs(f *field.Field, coeffs ...*big.Int) *Poly {
	cs := make([]*big.Int, len(coeffs))
	for i, c := range coeffs {
		cs[i] = f.FromBig(c)
	}
	return &Poly{f: f, coeffs: cs}
}

// Degree returns the index of p's last coefficient, which Random draws
// non-zero.
func (p *Poly) Degree() int { return len(p.coeffs) - 1 }
