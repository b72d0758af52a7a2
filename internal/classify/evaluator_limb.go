package classify

import (
	"fmt"
	"math/big"

	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/ompe"
)

// Limb evaluation paths. Whenever the protocol field is 2^255−19 the
// builders in evaluator.go also encode their constants as fixed-width limb
// elements and attach an allocation-free evalLimbFn, so a limb-backend
// session runs the trainer's entire arithmetic without math/big. The
// closures compute exactly the formulas of their math/big twins — same
// scale bookkeeping, same term order — on the same residues.

// evaluator implements ompe.LimbEvaluator; sessions on the big backend
// simply never call EvalLimb.
var _ ompe.LimbEvaluator = (*evaluator)(nil)

// EvalLimb evaluates the decision function on limb elements. When the
// kernel builder attached no native limb path (e.g. a field other than
// 2^255−19), it falls back to converting through math/big — correct but
// slow, and never hit by negotiated sessions.
func (e *evaluator) EvalLimb(z []limb.Element, out *limb.Element) error {
	if e.evalLimbFn != nil {
		return e.evalLimbFn(z, out)
	}
	x := make(field.Vec, len(z))
	for i := range z {
		x[i] = z[i].ToBig()
	}
	v, err := e.evalFn(x)
	if err != nil {
		return err
	}
	out.SetBigReduce(v)
	return nil
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

func limbScalar(x *big.Int) (limb.Element, error) {
	var out limb.Element
	if err := out.SetBig(x); err != nil {
		return out, fmt.Errorf("classify: limb-encode constant: %w", err)
	}
	return out, nil
}

// attachLinearLimb mirrors buildLinearEvaluator's closure: w·z + b.
func attachLinearLimb(ev *evaluator, encW field.Vec, encB *big.Int) error {
	lw, err := limbVec(encW)
	if err != nil {
		return err
	}
	lb, err := limbScalar(encB)
	if err != nil {
		return err
	}
	n := ev.numVars
	ev.evalLimbFn = func(z []limb.Element, out *limb.Element) error {
		if len(z) != n {
			return fmt.Errorf("classify: arity %d, want %d", len(z), n)
		}
		acc := lb
		var t limb.Element
		for i := range lw {
			t.Mul(&lw[i], &z[i])
			acc.Add(&acc, &t)
		}
		out.Set(&acc)
		return nil
	}
	return nil
}

// attachPolyDirectLimb mirrors kernelFormEvaluator's closure:
// Σ_s αy_s·(a0·x_s·z + b0)^p + b.
func attachPolyDirectLimb(ev *evaluator, encA0X []field.Vec, encB0 *big.Int, encAlphaY []*big.Int, encBias *big.Int, p int) error {
	lX := make([][]limb.Element, len(encA0X))
	for s, enc := range encA0X {
		v, err := limbVec(enc)
		if err != nil {
			return err
		}
		lX[s] = v
	}
	lB0, err := limbScalar(encB0)
	if err != nil {
		return err
	}
	lAlphaY, err := limbVec(encAlphaY)
	if err != nil {
		return err
	}
	lBias, err := limbScalar(encBias)
	if err != nil {
		return err
	}
	n := ev.numVars
	ev.evalLimbFn = func(z []limb.Element, out *limb.Element) error {
		if len(z) != n {
			return fmt.Errorf("classify: arity %d, want %d", len(z), n)
		}
		acc := lBias
		var inner, pow, t limb.Element
		for s := range lX {
			inner = lB0
			row := lX[s]
			for i := range row {
				t.Mul(&row[i], &z[i])
				inner.Add(&inner, &t)
			}
			pow.SetOne()
			for i := 0; i < p; i++ {
				pow.Mul(&pow, &inner)
			}
			t.Mul(&lAlphaY[s], &pow)
			acc.Add(&acc, &t)
		}
		out.Set(&acc)
		return nil
	}
	return nil
}

// attachRBFLimb mirrors buildRBFEvaluator's closure over the
// Taylor-truncated RBF series.
func attachRBFLimb(ev *evaluator, encX []field.Vec, encNorm []*big.Int, encCoeff [][]*big.Int, encBias *big.Int) error {
	lX := make([][]limb.Element, len(encX))
	for s, enc := range encX {
		v, err := limbVec(enc)
		if err != nil {
			return err
		}
		lX[s] = v
	}
	lNorm, err := limbVec(encNorm)
	if err != nil {
		return err
	}
	lCoeff := make([][]limb.Element, len(encCoeff))
	for s, cs := range encCoeff {
		v, err := limbVec(cs)
		if err != nil {
			return err
		}
		lCoeff[s] = v
	}
	lBias, err := limbScalar(encBias)
	if err != nil {
		return err
	}
	var lTwo limb.Element
	lTwo.SetUint64(2)
	n := ev.numVars
	ev.evalLimbFn = func(z []limb.Element, out *limb.Element) error {
		if len(z) != n {
			return fmt.Errorf("classify: arity %d, want %d", len(z), n)
		}
		var zNorm, t limb.Element
		for i := range z {
			t.Square(&z[i])
			zNorm.Add(&zNorm, &t)
		}
		acc := lBias
		var cross, dist, pow limb.Element
		for s := range lX {
			cross.SetZero()
			row := lX[s]
			for i := range row {
				t.Mul(&row[i], &z[i])
				cross.Add(&cross, &t)
			}
			dist.Add(&lNorm[s], &zNorm)
			t.Mul(&lTwo, &cross)
			dist.Sub(&dist, &t)
			pow.SetOne()
			cs := lCoeff[s]
			for i := range cs {
				t.Mul(&cs[i], &pow)
				acc.Add(&acc, &t)
				pow.Mul(&pow, &dist)
			}
		}
		out.Set(&acc)
		return nil
	}
	return nil
}

// attachSigmoidLimb mirrors buildSigmoidEvaluator's closure over the
// Taylor-truncated tanh series.
func attachSigmoidLimb(ev *evaluator, encA0X []field.Vec, encCoeff [][]*big.Int, encC0, encBias *big.Int) error {
	lX := make([][]limb.Element, len(encA0X))
	for s, enc := range encA0X {
		v, err := limbVec(enc)
		if err != nil {
			return err
		}
		lX[s] = v
	}
	lCoeff := make([][]limb.Element, len(encCoeff))
	for s, cs := range encCoeff {
		v, err := limbVec(cs)
		if err != nil {
			return err
		}
		lCoeff[s] = v
	}
	lC0, err := limbScalar(encC0)
	if err != nil {
		return err
	}
	lBias, err := limbScalar(encBias)
	if err != nil {
		return err
	}
	n := ev.numVars
	ev.evalLimbFn = func(z []limb.Element, out *limb.Element) error {
		if len(z) != n {
			return fmt.Errorf("classify: arity %d, want %d", len(z), n)
		}
		acc := lBias
		var u, u2, pow, t limb.Element
		for s := range lX {
			u = lC0
			row := lX[s]
			for i := range row {
				t.Mul(&row[i], &z[i])
				u.Add(&u, &t)
			}
			u2.Square(&u)
			pow = u
			cs := lCoeff[s]
			for i := range cs {
				t.Mul(&cs[i], &pow)
				acc.Add(&acc, &t)
				pow.Mul(&pow, &u2)
			}
		}
		out.Set(&acc)
		return nil
	}
	return nil
}
