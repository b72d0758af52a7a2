// Package dataset supplies the evaluation data substrate of §VI-B. The
// paper uses 17 LIBSVM datasets; real data cannot ship with an offline
// module, so this package provides (a) deterministic synthetic generators
// whose dimensionality, size, and linear-vs-nonlinear separability match
// each paper dataset's character, and (b) a LIBSVM-format parser so the
// genuine files can be dropped in when available. DESIGN.md §5 documents
// the substitution.
package dataset

import (
	"errors"
	"fmt"
)

// Dataset is a labeled binary-classification sample set with labels ±1.
type Dataset struct {
	// Name identifies the dataset (for reports).
	Name string
	// X is the sample matrix.
	X [][]float64
	// Y holds one ±1 label per sample.
	Y []int
}

// ErrEmpty reports an operation on an empty dataset.
var ErrEmpty = errors.New("dataset: empty dataset")

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.X) }

// Dim returns the feature dimension (0 when empty).
func (d *Dataset) Dim() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Validate checks structural consistency.
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return ErrEmpty
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("dataset %q: %d samples but %d labels", d.Name, len(d.X), len(d.Y))
	}
	dim := len(d.X[0])
	for i, row := range d.X {
		if len(row) != dim {
			return fmt.Errorf("dataset %q: row %d has dim %d, want %d", d.Name, i, len(row), dim)
		}
	}
	for i, y := range d.Y {
		if y != 1 && y != -1 {
			return fmt.Errorf("dataset %q: label %d at row %d; want ±1", d.Name, y, i)
		}
	}
	return nil
}

// Slice returns the half-open row range [lo, hi) as a view-copy.
func (d *Dataset) Slice(lo, hi int) (*Dataset, error) {
	if lo < 0 || hi > d.Len() || lo >= hi {
		return nil, fmt.Errorf("dataset %q: invalid slice [%d, %d) of %d", d.Name, lo, hi, d.Len())
	}
	out := &Dataset{
		Name: fmt.Sprintf("%s[%d:%d]", d.Name, lo, hi),
		X:    make([][]float64, hi-lo),
		Y:    make([]int, hi-lo),
	}
	for i := lo; i < hi; i++ {
		row := make([]float64, len(d.X[i]))
		copy(row, d.X[i])
		out.X[i-lo] = row
		out.Y[i-lo] = d.Y[i]
	}
	return out, nil
}
