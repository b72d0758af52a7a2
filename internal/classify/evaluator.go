package classify

import (
	"fmt"
	"math/big"

	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/fixedpoint"
	"repro/internal/kernel"
	"repro/internal/mvpoly"
	"repro/internal/svm"
)

// evaluator is the trainer's secret decision function encoded into the
// protocol field with scale-normalized coefficients: every monomial of the
// polynomial decodes at the common scale 2^(scaleExp·fracBits), so field
// addition is scale-consistent (DESIGN.md §3).
type evaluator struct {
	numVars  int
	degree   int  // total degree in protocol inputs
	scaleExp uint // result scale exponent, in fracBits units
	evalFn   func(z field.Vec) (*big.Int, error)
	// evalLimbFn is the fixed-width twin of evalFn, attached by the
	// builders whenever the protocol field is 2^255−19 (see
	// evaluator_limb.go); nil means EvalLimb falls back through math/big.
	evalLimbFn func(z []limb.Element, out *limb.Element) error
}

func (e *evaluator) NumVars() int { return e.numVars }

func (e *evaluator) Eval(z field.Vec) (*big.Int, error) { return e.evalFn(z) }

// scaleAt returns 2^(exp·fracBits).
func scaleAt(codec *fixedpoint.Codec, exp uint) *big.Int {
	return codec.ScalePow(exp)
}

// buildLinearEvaluator encodes d(t) = w·t + b. Inputs arrive at scale S,
// weights are encoded at S, the bias at S²; the result decodes at S².
func buildLinearEvaluator(codec *fixedpoint.Codec, w []float64, b float64) (*evaluator, error) {
	f := codec.Field()
	encW, err := codec.EncodeVec(w)
	if err != nil {
		return nil, fmt.Errorf("classify: encode weights: %w", err)
	}
	encB, err := codec.EncodeAtScale(b, scaleAt(codec, 2))
	if err != nil {
		return nil, fmt.Errorf("classify: encode bias: %w", err)
	}
	n := len(w)
	ev := &evaluator{
		numVars:  n,
		degree:   1,
		scaleExp: 2,
		evalFn: func(z field.Vec) (*big.Int, error) {
			if len(z) != n {
				return nil, fmt.Errorf("classify: arity %d, want %d", len(z), n)
			}
			dot, err := f.Dot(encW, z)
			if err != nil {
				return nil, err
			}
			return f.Add(dot, encB), nil
		},
	}
	if f.SupportsLimb() {
		if err := attachLinearLimb(ev, encW, encB); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// polyDirect is a polynomial-kernel model's decision function
// d(t) = Σ_s αy_s·(a0·x_s·t + b0)^p + b encoded into the protocol field:
// rows a0·x_s at scale exponent 1, b0 at 2, αy_s at 1 and b at 2p+1, so
// the result decodes at scale exponent 2p+1.
type polyDirect struct {
	f      *field.Field
	n, p   int
	a0x    []field.Vec
	b0     *big.Int
	alphaY []*big.Int
	bias   *big.Int
}

// buildPolyDirectEvaluator builds the direct-mode evaluator of a
// polynomial-kernel model (the paper's nonlinear construction), in
// whichever of two forms of the same polynomial needs fewer
// multiplications per point: the expanded trie (C(n+p, p) − 1) when
// C(n+p, p) ≤ |S|·(n+p), else the kernel form (|S|·(n+p+1)). Both give
// the same residue at every point, so the choice never reaches the wire.
func buildPolyDirectEvaluator(codec *fixedpoint.Codec, m *svm.Model) (*evaluator, error) {
	pd, err := encodePolyDirect(codec, m)
	if err != nil {
		return nil, err
	}
	if useKernelSum(pd.n, pd.p, len(pd.alphaY)) {
		return pd.trieEvaluator()
	}
	return pd.kernelFormEvaluator()
}

// useKernelSum is the size rule: expand when the trie has no more nodes
// than the kernel form spends multiplications, |S|·(n+p). It depends only
// on the model's shape and also bounds the trie's memory by the model's.
func useKernelSum(n, p, numSV int) bool {
	return mvpoly.KernelSumNodes(n, p).Cmp(big.NewInt(int64(numSV)*int64(n+p))) <= 0
}

func encodePolyDirect(codec *fixedpoint.Codec, m *svm.Model) (*polyDirect, error) {
	p := m.Kernel.Degree
	encA0X := make([]field.Vec, len(m.SupportVectors))
	for s, sv := range m.SupportVectors {
		scaled := make([]float64, len(sv))
		for j, v := range sv {
			scaled[j] = m.Kernel.A0 * v
		}
		enc, err := codec.EncodeVec(scaled)
		if err != nil {
			return nil, fmt.Errorf("classify: encode support vector %d: %w", s, err)
		}
		encA0X[s] = enc
	}
	encB0, err := codec.EncodeAtScale(m.Kernel.B0, scaleAt(codec, 2))
	if err != nil {
		return nil, err
	}
	encAlphaY := make([]*big.Int, len(m.AlphaY))
	for s, a := range m.AlphaY {
		enc, err := codec.EncodeAtScale(a, codec.Scale())
		if err != nil {
			return nil, fmt.Errorf("classify: encode multiplier %d: %w", s, err)
		}
		encAlphaY[s] = enc
	}
	encBias, err := codec.EncodeAtScale(m.Bias, scaleAt(codec, uint(2*p+1)))
	if err != nil {
		return nil, err
	}
	return &polyDirect{f: codec.Field(), n: m.Dim, p: p, a0x: encA0X, b0: encB0, alphaY: encAlphaY, bias: encBias}, nil
}

func (pd *polyDirect) shell() *evaluator {
	return &evaluator{numVars: pd.n, degree: pd.p, scaleExp: uint(2*pd.p + 1)}
}

// trieEvaluator expands the decision function once into an
// mvpoly.KernelSum and evaluates that.
func (pd *polyDirect) trieEvaluator() (*evaluator, error) {
	sum, err := mvpoly.NewKernelSum(pd.f, pd.alphaY, pd.a0x, pd.b0, pd.p, pd.bias)
	if err != nil {
		return nil, fmt.Errorf("classify: expand decision function: %w", err)
	}
	ev := pd.shell()
	ev.evalFn = sum.Eval
	if pd.f.SupportsLimb() {
		ev.evalLimbFn = sum.EvalLimb
	}
	return ev, nil
}

// kernelFormEvaluator evaluates the decision function term by term: one
// dot product and p multiplications per support vector.
func (pd *polyDirect) kernelFormEvaluator() (*evaluator, error) {
	f, n, p := pd.f, pd.n, pd.p
	ev := pd.shell()
	ev.evalFn = func(z field.Vec) (*big.Int, error) {
		if len(z) != n {
			return nil, fmt.Errorf("classify: arity %d, want %d", len(z), n)
		}
		acc := new(big.Int).Set(pd.bias)
		for s := range pd.a0x {
			inner, err := f.Dot(pd.a0x[s], z) // scale exp 2
			if err != nil {
				return nil, err
			}
			inner = f.Add(inner, pd.b0)
			pow := f.One()
			for i := 0; i < p; i++ {
				pow = f.Mul(pow, inner)
			} // scale exp 2p
			acc = f.Add(acc, f.Mul(pd.alphaY[s], pow))
		}
		return acc, nil
	}
	if f.SupportsLimb() {
		if err := attachPolyDirectLimb(ev, pd.a0x, pd.b0, pd.alphaY, pd.bias, p); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// buildExpandedEvaluator linearizes a polynomial-kernel model over its τ
// monomial variates and encodes the resulting linear form. The client must
// send τ̃ covers (see ExpandSample).
func buildExpandedEvaluator(codec *fixedpoint.Codec, m *svm.Model) (*evaluator, *mvpoly.FloatExpansion, error) {
	exp, err := mvpoly.ExpandPolyKernel(m.SupportVectors, m.AlphaY, m.Kernel.A0, m.Kernel.B0, m.Kernel.Degree, m.Bias)
	if err != nil {
		return nil, nil, fmt.Errorf("classify: expand kernel: %w", err)
	}
	ev, err := buildLinearEvaluator(codec, exp.Coeffs, exp.Bias)
	if err != nil {
		return nil, nil, err
	}
	return ev, exp, nil
}

// buildRBFEvaluator encodes the Taylor-truncated RBF decision function
// d(t) ≈ Σ_s αy_s Σ_{i=0}^{T} c_i·dist_s(t)ⁱ + b with c_i = (−γ)ⁱ/i! and
// dist_s(t) = |x_s|² + |t|² − 2·x_s·t. The result decodes at scale
// exponent 2T+2; protocol degree is 2T.
func buildRBFEvaluator(codec *fixedpoint.Codec, m *svm.Model, terms int) (*evaluator, error) {
	f := codec.Field()
	coeffs, err := kernel.ExpSeries(-m.Kernel.Gamma, terms)
	if err != nil {
		return nil, err
	}
	scaleExp := uint(2*terms + 2)

	encX := make([]field.Vec, len(m.SupportVectors))
	encNorm := make([]*big.Int, len(m.SupportVectors))
	// encCoeff[s][i] carries αy_s·c_i at scale exponent scaleExp − 2i, so
	// each term αy·c_i·distⁱ lands at scaleExp.
	encCoeff := make([][]*big.Int, len(m.SupportVectors))
	for s, sv := range m.SupportVectors {
		enc, err := codec.EncodeVec(sv)
		if err != nil {
			return nil, fmt.Errorf("classify: encode support vector %d: %w", s, err)
		}
		encX[s] = enc
		norm := 0.0
		for _, v := range sv {
			norm += v * v
		}
		encNorm[s], err = codec.EncodeAtScale(norm, scaleAt(codec, 2))
		if err != nil {
			return nil, err
		}
		encCoeff[s] = make([]*big.Int, terms+1)
		for i := 0; i <= terms; i++ {
			encCoeff[s][i], err = codec.EncodeAtScale(m.AlphaY[s]*coeffs[i], scaleAt(codec, scaleExp-uint(2*i)))
			if err != nil {
				return nil, fmt.Errorf("classify: encode rbf coefficient (%d,%d): %w", s, i, err)
			}
		}
	}
	encBias, err := codec.EncodeAtScale(m.Bias, scaleAt(codec, scaleExp))
	if err != nil {
		return nil, err
	}
	two := big.NewInt(2)

	n := m.Dim
	ev := &evaluator{
		numVars:  n,
		degree:   2 * terms,
		scaleExp: scaleExp,
		evalFn: func(z field.Vec) (*big.Int, error) {
			if len(z) != n {
				return nil, fmt.Errorf("classify: arity %d, want %d", len(z), n)
			}
			zNorm, err := f.Dot(z, z) // scale exp 2
			if err != nil {
				return nil, err
			}
			acc := new(big.Int).Set(encBias)
			for s := range encX {
				cross, err := f.Dot(encX[s], z)
				if err != nil {
					return nil, err
				}
				dist := f.Sub(f.Add(encNorm[s], zNorm), f.Mul(two, cross)) // scale exp 2
				pow := f.One()
				for i := 0; i <= len(encCoeff[s])-1; i++ {
					acc = f.Add(acc, f.Mul(encCoeff[s][i], pow))
					pow = f.Mul(pow, dist)
				}
			}
			return acc, nil
		},
	}
	if f.SupportsLimb() {
		if err := attachRBFLimb(ev, encX, encNorm, encCoeff, encBias); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// buildSigmoidEvaluator encodes the Taylor-truncated sigmoid decision
// function d(t) ≈ Σ_s αy_s Σ_{i=1}^{T} tc_i·u_s(t)^{2i−1} + b with
// u_s(t) = a0·x_s·t + c0. The result decodes at scale exponent 4T;
// protocol degree is 2T−1.
func buildSigmoidEvaluator(codec *fixedpoint.Codec, m *svm.Model, terms int) (*evaluator, error) {
	f := codec.Field()
	tcoeffs, err := kernel.TanhSeries(terms)
	if err != nil {
		return nil, err
	}
	scaleExp := uint(4 * terms)

	encA0X := make([]field.Vec, len(m.SupportVectors))
	encCoeff := make([][]*big.Int, len(m.SupportVectors))
	for s, sv := range m.SupportVectors {
		scaled := make([]float64, len(sv))
		for j, v := range sv {
			scaled[j] = m.Kernel.A0 * v
		}
		enc, err := codec.EncodeVec(scaled)
		if err != nil {
			return nil, fmt.Errorf("classify: encode support vector %d: %w", s, err)
		}
		encA0X[s] = enc
		encCoeff[s] = make([]*big.Int, terms)
		for i := 1; i <= terms; i++ {
			// u^{2i-1} has scale exponent 2(2i-1); the coefficient tops it
			// up to scaleExp.
			encCoeff[s][i-1], err = codec.EncodeAtScale(m.AlphaY[s]*tcoeffs[i-1], scaleAt(codec, scaleExp-uint(2*(2*i-1))))
			if err != nil {
				return nil, fmt.Errorf("classify: encode sigmoid coefficient (%d,%d): %w", s, i, err)
			}
		}
	}
	encC0, err := codec.EncodeAtScale(m.Kernel.C0, scaleAt(codec, 2))
	if err != nil {
		return nil, err
	}
	encBias, err := codec.EncodeAtScale(m.Bias, scaleAt(codec, scaleExp))
	if err != nil {
		return nil, err
	}

	n := m.Dim
	ev := &evaluator{
		numVars:  n,
		degree:   2*terms - 1,
		scaleExp: scaleExp,
		evalFn: func(z field.Vec) (*big.Int, error) {
			if len(z) != n {
				return nil, fmt.Errorf("classify: arity %d, want %d", len(z), n)
			}
			acc := new(big.Int).Set(encBias)
			for s := range encA0X {
				u, err := f.Dot(encA0X[s], z)
				if err != nil {
					return nil, err
				}
				u = f.Add(u, encC0) // scale exp 2
				u2 := f.Mul(u, u)
				pow := new(big.Int).Set(u) // u^{2i-1}, starting at i=1
				for i := 0; i < len(encCoeff[s]); i++ {
					acc = f.Add(acc, f.Mul(encCoeff[s][i], pow))
					pow = f.Mul(pow, u2)
				}
			}
			return acc, nil
		},
	}
	if f.SupportsLimb() {
		if err := attachSigmoidLimb(ev, encA0X, encCoeff, encC0, encBias); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// buildEvaluator dispatches on the model's kernel and the protocol mode.
// It returns the evaluator and, for ModeExpanded, the float expansion the
// client needs to compute τ̃ (nil otherwise).
func buildEvaluator(codec *fixedpoint.Codec, m *svm.Model, params Params) (*evaluator, *mvpoly.FloatExpansion, error) {
	switch m.Kernel.Kind {
	case svm.KernelLinear:
		w, err := m.LinearWeights()
		if err != nil {
			return nil, nil, err
		}
		ev, err := buildLinearEvaluator(codec, w, m.Bias)
		return ev, nil, err
	case svm.KernelPolynomial:
		if params.Mode == ModeExpanded {
			return buildExpandedEvaluator(codec, m)
		}
		ev, err := buildPolyDirectEvaluator(codec, m)
		return ev, nil, err
	case svm.KernelRBF:
		ev, err := buildRBFEvaluator(codec, m, params.TaylorTerms)
		return ev, nil, err
	case svm.KernelSigmoid:
		ev, err := buildSigmoidEvaluator(codec, m, params.TaylorTerms)
		return ev, nil, err
	default:
		return nil, nil, fmt.Errorf("classify: unsupported kernel %v", m.Kernel.Kind)
	}
}

// protocolShape reports the evaluator shape (degree, scale exponent) a
// model/params combination will use, without building the evaluator. Both
// parties derive it independently from public knowledge.
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
		return kind.Degree, uint(2*kind.Degree + 1), dim, nil
	case svm.KernelRBF:
		return 2 * params.TaylorTerms, uint(2*params.TaylorTerms + 2), dim, nil
	case svm.KernelSigmoid:
		return 2*params.TaylorTerms - 1, uint(4 * params.TaylorTerms), dim, nil
	default:
		return 0, 0, 0, fmt.Errorf("classify: unsupported kernel %v", kind.Kind)
	}
}
