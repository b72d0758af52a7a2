package svm

import (
	"errors"
	"fmt"
)

// Scaler linearly maps each feature into [-1, 1], the preprocessing the
// paper applies to every dataset ("all the data have been scaled to
// [−1,1]", §VI-B). Fit it on training data and apply it to both splits.
type Scaler struct {
	// Min and Max are the per-feature training ranges.
	Min []float64
	Max []float64
}

// FitScaler learns per-feature ranges from x.
func FitScaler(x [][]float64) (*Scaler, error) {
	if len(x) == 0 {
		return nil, errors.New("svm: cannot fit scaler on empty data")
	}
	dim := len(x[0])
	s := &Scaler{Min: make([]float64, dim), Max: make([]float64, dim)}
	copy(s.Min, x[0])
	copy(s.Max, x[0])
	for _, row := range x[1:] {
		if len(row) != dim {
			return nil, fmt.Errorf("%w: row dim %d, want %d", ErrDimension, len(row), dim)
		}
		for j, v := range row {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return s, nil
}

// Apply maps one sample into [-1, 1] per feature. Constant features map
// to 0. Values outside the training range extrapolate linearly, matching
// LIBSVM's svm-scale behaviour.
func (s *Scaler) Apply(row []float64) ([]float64, error) {
	if len(row) != len(s.Min) {
		return nil, fmt.Errorf("%w: row dim %d, want %d", ErrDimension, len(row), len(s.Min))
	}
	out := make([]float64, len(row))
	for j, v := range row {
		span := s.Max[j] - s.Min[j]
		if span == 0 {
			out[j] = 0
			continue
		}
		out[j] = -1 + 2*(v-s.Min[j])/span
	}
	return out, nil
}
