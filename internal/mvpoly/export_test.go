package mvpoly

import (
	"math/big"

	"repro/internal/field"
)

// NewKernelSumForm builds a KernelSum in the requested form, bypassing
// the size rule: the trie when expand is set, else the kernel form.
func NewKernelSumForm(f *field.Field, coeffs [][]*big.Int, rows []field.Vec, b0 *big.Int, p int, bias *big.Int, expand bool) (*KernelSum, error) {
	return newKernelSum(f, coeffs, rows, b0, p, 0, bias, func(int, int, int) bool { return expand })
}

// ExpandCheaper is NewKernelSum's size rule.
var ExpandCheaper = expandCheaper
