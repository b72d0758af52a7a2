package classify

import (
	"fmt"
	"math/big"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/kernel"
	"repro/internal/mvpoly"
	"repro/internal/ompe"
	"repro/internal/svm"
)

// The trainer's secret decision function is encoded into the protocol
// field with scale-normalized coefficients: every monomial of the
// polynomial decodes at the common scale 2^(scaleExp·fracBits), so field
// addition is scale-consistent (DESIGN.md §3). Every kernel but RBF gives
// a sum of the mvpoly.KernelSum shape,
// Σ_s Σ_j c_{s,j}·(a_s·t + b0)^j + bias. A direct-mode polynomial whose
// shape is rescalable is held as the rescaled trie at per-degree scales
// (polyDirectSum); every other sum is held by NewKernelSum in whichever of
// its two forms its size rule picks; both give the same residue at every
// point, so that choice never reaches the wire. The scale exponent, and
// so the field, depends on the shape (n, p) alone, which the client knows.

// linearSum encodes d(t) = w·t + b as one row with c = (0, 1). Inputs
// arrive at scale S, weights are encoded at S, the bias at S²; the result
// decodes at S².
func linearSum(codec *fixedpoint.Codec, w []float64, b float64) (*mvpoly.KernelSum, error) {
	f := codec.Field()
	encW, err := codec.EncodeVec(w)
	if err != nil {
		return nil, fmt.Errorf("classify: encode weights: %w", err)
	}
	encB, err := codec.EncodeAtScale(b, codec.ScalePow(2))
	if err != nil {
		return nil, fmt.Errorf("classify: encode bias: %w", err)
	}
	return mvpoly.NewLinear(f, encW, encB)
}

// encodeA0X encodes the rows a0·x_s at the base scale.
func encodeA0X(codec *fixedpoint.Codec, m *svm.Model) ([]field.Vec, error) {
	rows := make([]field.Vec, len(m.SupportVectors))
	for s, sv := range m.SupportVectors {
		scaled := make([]float64, len(sv))
		for j, v := range sv {
			scaled[j] = m.Kernel.A0 * v
		}
		enc, err := codec.EncodeVec(scaled)
		if err != nil {
			return nil, fmt.Errorf("classify: encode support vector %d: %w", s, err)
		}
		rows[s] = enc
	}
	return rows, nil
}

// polyDirectScaleExp is the scale exponent a direct-mode polynomial of
// degree p over n variables decodes at, from the shape alone: p+1 when
// its monomial trie is mvpoly.Rescalable, else 2p+1.
func polyDirectScaleExp(n, p int) uint {
	if mvpoly.Rescalable(n, p) {
		return uint(p + 1)
	}
	return uint(2*p + 1)
}

// polyDirectSum encodes a polynomial-kernel model's decision function
// d(t) = Σ_s αy_s·(a0·x_s·t + b0)^p + b, the paper's nonlinear
// construction: rows a0·x_s at scale exponent 1, b0 at 2 and
// c_{s,p} = αy_s at 1. The sum without bias then decodes at scale
// exponent 2p+1, and each degree-d monomial's coefficient sits at 2p+1−d.
//
// When the shape is rescalable the trie divides every node by S^p after
// computing it exactly, so a degree-d coefficient sits at p+1−d, every
// term and the bias (encoded there) decode at p+1, and the field needs p
// fewer multiples of fracBits. Otherwise the bias is encoded at 2p+1 and
// NewKernelSum's own rule picks the form.
func polyDirectSum(codec *fixedpoint.Codec, m *svm.Model) (*mvpoly.KernelSum, error) {
	f := codec.Field()
	p := m.Kernel.Degree
	rows, err := encodeA0X(codec, m)
	if err != nil {
		return nil, err
	}
	encB0, err := codec.EncodeAtScale(m.Kernel.B0, codec.ScalePow(2))
	if err != nil {
		return nil, err
	}
	coeffs := make([][]*big.Int, len(m.AlphaY))
	for s, a := range m.AlphaY {
		c := make([]*big.Int, p+1)
		for j := range c[:p] {
			c[j] = f.Zero()
		}
		if c[p], err = codec.EncodeAtScale(a, codec.Scale()); err != nil {
			return nil, fmt.Errorf("classify: encode multiplier %d: %w", s, err)
		}
		coeffs[s] = c
	}
	scaleExp := polyDirectScaleExp(m.Dim, p)
	encBias, err := codec.EncodeAtScale(m.Bias, codec.ScalePow(scaleExp))
	if err != nil {
		return nil, err
	}
	if scaleExp == uint(2*p+1) {
		return mvpoly.NewKernelSum(f, coeffs, rows, encB0, p, encBias)
	}
	return mvpoly.NewRescaledKernelSum(f, coeffs, rows, encB0, p, uint(p)*codec.FracBits(), encBias)
}

// rbfEvaluator is the Taylor-truncated RBF decision function
// d(t) ≈ Σ_s αy_s Σ_{i=0}^{T} c_i·dist_s(t)ⁱ + b with c_i = (−γ)ⁱ/i! and
// dist_s(t) = |x_s|² + |t|² − 2·x_s·t. The |t|² term is not a linear form
// in t, so RBF is the one kernel outside mvpoly.KernelSum, and on
// 2^255−19 it runs through ompe's math/big bridge. The result decodes at
// scale exponent 2T+2; protocol degree is 2T.
type rbfEvaluator struct {
	f    *field.Field
	x    []field.Vec
	norm []*big.Int // |x_s|² at scale exponent 2
	// coeff[s][i] carries αy_s·c_i at scale exponent 2T+2 − 2i, so each
	// term αy·c_i·distⁱ lands at 2T+2.
	coeff [][]*big.Int
	bias  *big.Int
}

func newRBFEvaluator(codec *fixedpoint.Codec, m *svm.Model, terms int) (*rbfEvaluator, error) {
	coeffs, err := kernel.ExpSeries(-m.Kernel.Gamma, terms)
	if err != nil {
		return nil, err
	}
	scaleExp := uint(2*terms + 2)
	n := len(m.SupportVectors)
	e := &rbfEvaluator{f: codec.Field(), x: make([]field.Vec, n), norm: make([]*big.Int, n), coeff: make([][]*big.Int, n)}
	for s, sv := range m.SupportVectors {
		if e.x[s], err = codec.EncodeVec(sv); err != nil {
			return nil, fmt.Errorf("classify: encode support vector %d: %w", s, err)
		}
		norm := 0.0
		for _, v := range sv {
			norm += v * v
		}
		if e.norm[s], err = codec.EncodeAtScale(norm, codec.ScalePow(2)); err != nil {
			return nil, err
		}
		e.coeff[s] = make([]*big.Int, terms+1)
		for i := 0; i <= terms; i++ {
			e.coeff[s][i], err = codec.EncodeAtScale(m.AlphaY[s]*coeffs[i], codec.ScalePow(scaleExp-uint(2*i)))
			if err != nil {
				return nil, fmt.Errorf("classify: encode rbf coefficient (%d,%d): %w", s, i, err)
			}
		}
	}
	if e.bias, err = codec.EncodeAtScale(m.Bias, codec.ScalePow(scaleExp)); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *rbfEvaluator) NumVars() int { return len(e.x[0]) }

func (e *rbfEvaluator) Eval(z field.Vec) (*big.Int, error) {
	f := e.f
	if len(z) != e.NumVars() {
		return nil, fmt.Errorf("classify: arity %d, want %d", len(z), e.NumVars())
	}
	zNorm, err := f.Dot(z, z) // scale exp 2
	if err != nil {
		return nil, err
	}
	two := big.NewInt(2)
	acc := new(big.Int).Set(e.bias)
	for s := range e.x {
		cross, err := f.Dot(e.x[s], z)
		if err != nil {
			return nil, err
		}
		dist := f.Sub(f.Add(e.norm[s], zNorm), f.Mul(two, cross)) // scale exp 2
		pow := f.One()
		for _, c := range e.coeff[s] {
			acc = f.Add(acc, f.Mul(c, pow))
			pow = f.Mul(pow, dist)
		}
	}
	return acc, nil
}

// sigmoidSum encodes the Taylor-truncated sigmoid decision function
// d(t) ≈ Σ_s αy_s Σ_{i=1}^{T} tc_i·u_s(t)^{2i−1} + b with
// u_s(t) = a0·x_s·t + c0: c_{s,2i−1} = αy_s·tc_i and the even powers are
// zero. The result decodes at scale exponent 4T; protocol degree is 2T−1.
func sigmoidSum(codec *fixedpoint.Codec, m *svm.Model, terms int) (*mvpoly.KernelSum, error) {
	f := codec.Field()
	tcoeffs, err := kernel.TanhSeries(terms)
	if err != nil {
		return nil, err
	}
	scaleExp := uint(4 * terms)
	rows, err := encodeA0X(codec, m)
	if err != nil {
		return nil, err
	}
	coeffs := make([][]*big.Int, len(m.AlphaY))
	for s := range coeffs {
		c := make([]*big.Int, 2*terms)
		for j := 0; j < len(c); j += 2 {
			c[j] = f.Zero()
		}
		for i := 1; i <= terms; i++ {
			// u^{2i-1} has scale exponent 2(2i-1); the coefficient tops it
			// up to scaleExp.
			c[2*i-1], err = codec.EncodeAtScale(m.AlphaY[s]*tcoeffs[i-1], codec.ScalePow(scaleExp-uint(2*(2*i-1))))
			if err != nil {
				return nil, fmt.Errorf("classify: encode sigmoid coefficient (%d,%d): %w", s, i, err)
			}
		}
		coeffs[s] = c
	}
	encC0, err := codec.EncodeAtScale(m.Kernel.C0, codec.ScalePow(2))
	if err != nil {
		return nil, err
	}
	encBias, err := codec.EncodeAtScale(m.Bias, codec.ScalePow(scaleExp))
	if err != nil {
		return nil, err
	}
	return mvpoly.NewKernelSum(f, coeffs, rows, encC0, 2*terms-1, encBias)
}

// buildEvaluator dispatches on the model's kernel and the protocol mode.
// It returns the evaluator and, for ModeExpanded, the float expansion the
// client needs to compute τ̃ (nil otherwise). ModeExpanded linearizes a
// polynomial-kernel model over its τ monomial variates and encodes the
// resulting linear form; the client sends τ̃ covers (see ExpandSample).
func buildEvaluator(codec *fixedpoint.Codec, m *svm.Model, params Params) (ompe.Evaluator, *mvpoly.FloatExpansion, error) {
	var (
		ev  ompe.Evaluator
		exp *mvpoly.FloatExpansion
		err error
	)
	switch m.Kernel.Kind {
	case svm.KernelLinear:
		var w []float64
		if w, err = m.LinearWeights(); err == nil {
			ev, err = linearSum(codec, w, m.Bias)
		}
	case svm.KernelPolynomial:
		if params.Mode != ModeExpanded {
			ev, err = polyDirectSum(codec, m)
			break
		}
		exp, err = mvpoly.ExpandPolyKernel(m.SupportVectors, m.AlphaY, m.Kernel.A0, m.Kernel.B0, m.Kernel.Degree, m.Bias)
		if err != nil {
			return nil, nil, fmt.Errorf("classify: expand kernel: %w", err)
		}
		ev, err = linearSum(codec, exp.Coeffs, exp.Bias)
	case svm.KernelRBF:
		ev, err = newRBFEvaluator(codec, m, params.TaylorTerms)
	case svm.KernelSigmoid:
		ev, err = sigmoidSum(codec, m, params.TaylorTerms)
	default:
		return nil, nil, fmt.Errorf("classify: unsupported kernel %v", m.Kernel.Kind)
	}
	if err != nil {
		return nil, nil, err
	}
	return ev, exp, nil
}

// protocolShape reports the evaluator shape (degree, scale exponent) a
// model/params combination will use, without building the evaluator. Both
// parties derive it independently from public knowledge: the kernel, the
// dimension and the parameters, never the support-vector count.
func protocolShape(kind svm.Kernel, dim int, params Params) (degree int, scaleExp uint, numVars int, err error) {
	switch kind.Kind {
	case svm.KernelLinear:
		return 1, 2, dim, nil
	case svm.KernelPolynomial:
		if params.Mode == ModeExpanded {
			n := mvpoly.NumMonomials(dim, kind.Degree)
			if !n.IsInt64() || n.Int64() > 1<<20 {
				return 0, 0, 0, fmt.Errorf("classify: expansion too large (%v variates)", n)
			}
			vars := int(n.Int64())
			if kind.B0 != 0 {
				vars = len(mvpoly.CompositionsUpTo(dim, kind.Degree))
			}
			return 1, 2, vars, nil
		}
		return kind.Degree, polyDirectScaleExp(dim, kind.Degree), dim, nil
	case svm.KernelRBF:
		return 2 * params.TaylorTerms, uint(2*params.TaylorTerms + 2), dim, nil
	case svm.KernelSigmoid:
		return 2*params.TaylorTerms - 1, uint(4 * params.TaylorTerms), dim, nil
	default:
		return 0, 0, 0, fmt.Errorf("classify: unsupported kernel %v", kind.Kind)
	}
}
