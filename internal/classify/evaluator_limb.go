package classify

import (
	"errors"
	"fmt"

	"repro/internal/field"
	"repro/internal/field/limb"
)

// RBF's limb evaluation path. A session over 2^255−19 runs the limb engine,
// and there every evaluator has an allocation-free EvalLimb, so the
// trainer's entire arithmetic runs without math/big. Every kernel but RBF
// is an mvpoly.KernelSum, which keeps its own limb copy of its constants;
// RBF's EvalLimb below mirrors its Eval — same scale bookkeeping, same
// term order — on the same residues.

// rbfLimb holds an rbfEvaluator's constants as limb elements.
type rbfLimb struct {
	x, coeff [][]limb.Element
	norm     []limb.Element
	bias     limb.Element
}

func newRBFLimb(e *rbfEvaluator) (*rbfLimb, error) {
	l := &rbfLimb{x: make([][]limb.Element, len(e.x)), coeff: make([][]limb.Element, len(e.coeff))}
	var err error
	for s := range e.x {
		if l.x[s], err = limbVec(e.x[s]); err != nil {
			return nil, err
		}
		if l.coeff[s], err = limbVec(e.coeff[s]); err != nil {
			return nil, err
		}
	}
	if l.norm, err = limbVec(e.norm); err != nil {
		return nil, err
	}
	if err := l.bias.SetBig(e.bias); err != nil {
		return nil, fmt.Errorf("classify: limb-encode constant: %w", err)
	}
	return l, nil
}

// limbVec encodes a vector of canonical field elements as limb elements.
func limbVec(xs field.Vec) ([]limb.Element, error) {
	out := make([]limb.Element, len(xs))
	for i, x := range xs {
		if err := out[i].SetBig(x); err != nil {
			return nil, fmt.Errorf("classify: limb-encode component %d: %w", i, err)
		}
	}
	return out, nil
}

// EvalLimb evaluates the Taylor-truncated RBF series on limb elements
// without allocating. Only valid when the field is 2^255−19.
func (e *rbfEvaluator) EvalLimb(z []limb.Element, out *limb.Element) error {
	l := e.limb
	if l == nil {
		return errors.New("classify: limb evaluation requires the 2^255−19 field")
	}
	if len(z) != e.NumVars() {
		return fmt.Errorf("classify: arity %d, want %d", len(z), e.NumVars())
	}
	var zNorm, t limb.Element
	for i := range z {
		t.Square(&z[i])
		zNorm.Add(&zNorm, &t)
	}
	acc := l.bias
	var cross, dist, pow limb.Element
	for s, row := range l.x {
		cross.SetZero()
		for i := range row {
			t.Mul(&row[i], &z[i])
			cross.Add(&cross, &t)
		}
		dist.Add(&l.norm[s], &zNorm)
		t.Add(&cross, &cross)
		dist.Sub(&dist, &t)
		pow.SetOne()
		for i := range l.coeff[s] {
			t.Mul(&l.coeff[s][i], &pow)
			acc.Add(&acc, &t)
			pow.Mul(&pow, &dist)
		}
	}
	out.Set(&acc)
	return nil
}
