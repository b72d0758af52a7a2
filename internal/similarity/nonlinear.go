package similarity

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/mvpoly"
	"repro/internal/obs"
	"repro/internal/ompe"
	"repro/internal/svm"
)

// Nonlinear (kernelized) similarity evaluation, §V-C. Dot products become
// kernel evaluations in feature space:
//
//	T² = ¼[(K(mA,mA)+K(mB,mB)−2K(mA,mB))² + L0⁴]
//	      ·[(1 − K²(wA,wB)/(K(wA,wA)·K(wB,wB))) + sin²θ0]
//
// Round 1 delivers x1 = r_am·K(mA,mB) via one OMPE on Alice's polynomial
// (a0·mA·z + b0)^p with Bob's centroid as input. Round 2 must produce
// K(wA,wB) = Σ_s Σ_t αyA_s·αyB_t·K(xA_s, xB_t), which the paper leaves
// unspecified; here Bob runs one OMPE per own support vector against
// Alice's polynomial P(z) = Σ_s αyA_s·(a0·xA_s·z+b0)^p (all with the same
// pinned amplifier and shift) and combines the outputs with his own
// fixed-point multipliers:
//
//	x2 = Σ_t Enc(αyB_t)·[r_aw·P(xB_t) + r_b] = r_aw·K(wA,wB)·S^e + r_b·A
//
// where A = Σ_t Enc(αyB_t) is an aggregate Bob discloses so Alice can set
// d3 = −r_b·A (a scalar sum of multipliers — comparable in kind to the
// |mB|² the paper already sends in the clear; DESIGN.md §V lists every
// disclosure of both variants).
//
// Both parties first put their model on a unit feature-space normal
// (unitModel), as the hyperplane variant does with unitPlane, so c3 = ¼
// and every exponent of the area round is fixed by the public kernel.
// Everything after construction runs on the hyperplane's round machine
// (rounds.go): the kernel variant only supplies different dot-round
// evaluators, |S_B| RoundNormal instances weighted by Enc(αyB_t), and the
// area-round exponents (2p, 2p+2, 1).
//
// Only the polynomial kernel is supported, matching the paper's nonlinear
// experiments.

// KernelClearShare carries Bob's cleartext values for the kernel variant.
type KernelClearShare struct {
	// KmBmB is K(mB, mB).
	KmBmB float64
	// NumSupport is |S_B|, the number of round-2 executions Bob will run.
	NumSupport int
	// AlphaSum is A = Σ_t Enc(αyB_t) mod p, big-endian at the field's
	// element width.
	AlphaSum []byte
}

// KernelSpec extends the public contract with the kernel.
type KernelSpec struct {
	Spec
	Kernel svm.Kernel
}

// kernelExps returns the scale exponents of x1 and x2: a polynomial-kernel
// value (a0·x·z + b0)^p on base-scale encodings sits at S^2p, and x2
// carries αy on both sides.
func kernelExps(k svm.Kernel) (e1, e2 uint) { return uint(2 * k.Degree), uint(2*k.Degree) + 2 }

// KernelAlice is the responder for the kernelized evaluation.
type KernelAlice struct {
	responder
	spec  KernelSpec
	kmama float64 // K(mA,mA)
	kmab  float64 // bound on |K(mA, m)| over the metric's data box
}

// NewKernelAlice prepares the responder around a polynomial-kernel model.
func NewKernelAlice(model *svm.Model, params Params, rng io.Reader) (*KernelAlice, error) {
	model, err := unitModel(model)
	if err != nil {
		return nil, err
	}
	if model.Kernel.Kind != svm.KernelPolynomial {
		return nil, fmt.Errorf("similarity: kernel variant supports polynomial kernels, got %v", model.Kernel.Kind)
	}
	need, err := kernelFieldBits(model.Kernel, kernelFracBits, ompe.DefaultAmplifierBits)
	if err != nil {
		return nil, err
	}
	base, err := specFor(model.Dim, params.metric(), kernelFracBits, need)
	if err != nil {
		return nil, err
	}
	spec := KernelSpec{Spec: base, Kernel: model.Kernel}
	mA, err := kernelCentroid(model, spec.Metric)
	if err != nil {
		return nil, err
	}
	r, err := newResponder(spec.Spec, model.Kernel.Degree, rng)
	if err != nil {
		return nil, err
	}
	// P(z) = (a0·mA·z + b0)^p and P(z) = Σ_s αyA_s·(a0·xA_s·z + b0)^p.
	if r.centroid, err = kernelSum(r.codec, model.Kernel, [][]float64{mA}, nil); err != nil {
		return nil, err
	}
	if r.normal, err = kernelSum(r.codec, model.Kernel, model.SupportVectors, model.AlphaY); err != nil {
		return nil, err
	}
	kmama, err := model.Kernel.Eval(mA, mA)
	if err != nil {
		return nil, err
	}
	// Bob's centroid lies in the box, so |K(mA,mB)| ≤ (|a0|·|mA|₁·γ + |b0|)^p.
	gamma, l1 := max(math.Abs(spec.Metric.Alpha), math.Abs(spec.Metric.Beta)), 0.0
	for _, x := range mA {
		l1 += math.Abs(x)
	}
	k := model.Kernel
	kmab := math.Pow(math.Abs(k.A0)*l1*gamma+math.Abs(k.B0), float64(k.Degree))
	return &KernelAlice{responder: r, spec: spec, kmama: kmama, kmab: kmab}, nil
}

// kernelFieldBits is the field size, in bits, that the kernel variant's
// rounds need, from its public spec's kernel, precision and amplifier
// width: the normal rounds (e2+1)·fb + amplifier bits, the area round
// areaExp(e1, e2)·fb, plus value-bit slack; 420 bits for the paper's
// cubic at fb = 12. Alice sizes her field with it and Bob refuses a spec
// whose field is smaller. (An amplifier wider than the field fails
// ompe's parameter check whatever this returns.)
func kernelFieldBits(kernel svm.Kernel, fracBits uint, amplifierBits int) (int, error) {
	if fracBits > maxFracBits {
		return 0, fmt.Errorf("%w: %d fractional bits", ErrFieldTooSmall, fracBits)
	}
	e1, e2 := kernelExps(kernel)
	fb := int(fracBits)
	return max(int(e2+1)*fb+amplifierBits, int(areaExp(e1, e2))*fb) + 48 + 24, nil
}

// kernelAreaBits is the field size, in bits, that the kernel area value
// needs once c1 = K(mA,mA) + K(mB,mB) is known, at the fixed scale
// exponent exp = areaExp(2p, 2p+2), given kmab ≥ |K(mA,mB)|. On unit
// normals Eq. (7)'s second bracket is at most ¼(1 + sin²θ0) ≤ 1, so the
// value is bounded by B̂ = (|c1| + 2·kmab)² + L₀⁴ + 1 (the 1 absorbing
// fixed-point rounding), and like linearAreaBits the need is
//
//	exp·fb + ⌈log2 B̂⌉ + 2.
func kernelAreaBits(c1, kmab float64, exp, fracBits uint, l0 float64) (int, error) {
	bHat := math.Pow(math.Abs(c1)+2*kmab, 2) + math.Pow(l0, 4) + 1
	if math.IsInf(bHat, 0) || math.IsNaN(bHat) {
		return 0, fmt.Errorf("%w: the area value is not finite", ErrFieldTooSmall)
	}
	return int(exp)*int(fracBits) + int(math.Ceil(math.Log2(bHat))) + 2, nil
}

// unitModel validates a kernel model and returns a copy with αy and b
// divided by √K(w,w): the same decision boundary, on a unit feature-space
// normal. It is the kernel analogue of unitPlane: on unit normals
// c3 = ¼/(K(wA,wA)·K(wB,wB)) = ¼ whatever the models' scale.
func unitModel(model *svm.Model) (*svm.Model, error) {
	if model == nil {
		return nil, errors.New("similarity: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	k, err := featureDot(model, model)
	if err != nil {
		return nil, err
	}
	norm := math.Sqrt(k)
	if !(norm > 0) || math.IsInf(norm, 0) {
		return nil, errors.New("similarity: non-positive or non-finite feature-space norm")
	}
	unit := *model
	unit.AlphaY = make([]float64, len(model.AlphaY))
	for s, a := range model.AlphaY {
		unit.AlphaY[s] = a / norm
	}
	unit.Bias = model.Bias / norm
	return &unit, nil
}

// kernelCentroid is the centroid of a kernel model's boundary points.
func kernelCentroid(model *svm.Model, m Metric) ([]float64, error) {
	span := obs.Start(obs.PhaseSimBoundary)
	defer span.End()
	pts, err := KernelBoundaryPoints(model, m)
	if err != nil {
		return nil, err
	}
	return Centroid(pts)
}

// Spec returns the public contract.
func (a *KernelAlice) Spec() KernelSpec { return a.spec }

// HandleClearShare stores Bob's cleartext values and fixes the number of
// RoundNormal instances at |S_B|. It refuses, with ErrFieldTooSmall, a
// K(mB,mB) so large that the area value Bob would decode needs more bits
// than Alice's field has (kernelAreaBits): that value would wrap the
// field and decode to a wrong T² without any error.
func (a *KernelAlice) HandleClearShare(cs *KernelClearShare) error {
	if cs == nil || cs.NumSupport < 1 || math.IsNaN(cs.KmBmB) || math.IsInf(cs.KmBmB, 0) {
		return errors.New("similarity: invalid kernel clear share")
	}
	f := a.codec.Field()
	alphaSum, err := f.FromBytes(cs.AlphaSum)
	if err != nil {
		return fmt.Errorf("similarity: alpha sum: %w", err)
	}
	e1, e2 := kernelExps(a.spec.Kernel)
	c1 := a.kmama + cs.KmBmB
	need, err := kernelAreaBits(c1, a.kmab, areaExp(e1, e2), a.spec.FracBits, a.spec.Metric.L0)
	if err != nil {
		return err
	}
	if need > f.Bits() {
		return fmt.Errorf("%w: K(mB,mB) = %g puts the area value at %d bits, the field has %d", ErrFieldTooSmall, cs.KmBmB, need, f.Bits())
	}
	a.area = &areaTerms{c1: c1, e1: e1, e2: e2, alphaSum: alphaSum}
	a.normalsWant = cs.NumSupport
	return nil
}

// kernelSum builds Σ_s w_s·(a0·x_s·z + b0)^p over the given rows, with
// w_s = Enc(alphaY[s]) or 1 when alphaY is nil.
func kernelSum(codec *fixedpoint.Codec, k svm.Kernel, rows [][]float64, alphaY []float64) (*mvpoly.KernelSum, error) {
	f := codec.Field()
	encB0, err := codec.EncodeAtScale(k.B0, codec.ScalePow(2))
	if err != nil {
		return nil, err
	}
	vecs := make([]field.Vec, len(rows))
	coeffs := make([][]*big.Int, len(rows))
	for s, x := range rows {
		scaled := make([]float64, len(x))
		for j, v := range x {
			scaled[j] = k.A0 * v
		}
		if vecs[s], err = codec.EncodeVec(scaled); err != nil {
			return nil, err
		}
		c := make([]*big.Int, k.Degree+1)
		for j := range c {
			c[j] = f.Zero()
		}
		c[k.Degree] = f.One()
		if alphaY != nil {
			if c[k.Degree], err = codec.EncodeAtScale(alphaY[s], codec.Scale()); err != nil {
				return nil, err
			}
		}
		coeffs[s] = c
	}
	return mvpoly.NewKernelSum(f, coeffs, vecs, encB0, k.Degree, f.Zero())
}

// KernelBob is the requester for the kernelized evaluation.
type KernelBob struct {
	requester
	clear *KernelClearShare
}

// NewKernelBob prepares the requester around his own polynomial-kernel
// model, from Alice's public spec. He recomputes the field the kernel
// rounds need from the spec's kernel degree, FracBits and AmplifierBits,
// and refuses a spec whose field is smaller with ErrFieldTooSmall.
func NewKernelBob(spec KernelSpec, model *svm.Model) (*KernelBob, error) {
	model, err := unitModel(model)
	if err != nil {
		return nil, err
	}
	if model.Kernel != spec.Kernel {
		return nil, fmt.Errorf("similarity: kernel mismatch (%+v vs %+v)", model.Kernel, spec.Kernel)
	}
	if model.Dim != spec.Dim {
		return nil, fmt.Errorf("similarity: model dim %d, spec dim %d", model.Dim, spec.Dim)
	}
	need, err := kernelFieldBits(spec.Kernel, spec.FracBits, spec.AmplifierBits)
	if err != nil {
		return nil, err
	}
	if spec.FieldBits < need {
		return nil, fmt.Errorf("%w: the spec's field has %d bits, the kernel rounds need %d", ErrFieldTooSmall, spec.FieldBits, need)
	}
	mB, err := kernelCentroid(model, spec.Metric)
	if err != nil {
		return nil, err
	}
	e1, e2 := kernelExps(spec.Kernel)
	r, err := newRequester(spec.Spec, spec.Kernel.Degree, areaExp(e1, e2), mB, model.SupportVectors)
	if err != nil {
		return nil, err
	}
	f := r.codec.Field()
	r.weights = make([]*big.Int, len(model.AlphaY))
	alphaSum := new(big.Int)
	for t, a := range model.AlphaY {
		if r.weights[t], err = r.codec.EncodeAtScale(a, r.codec.Scale()); err != nil {
			return nil, err
		}
		alphaSum = f.Add(alphaSum, r.weights[t])
	}
	kmbmb, err := model.Kernel.Eval(mB, mB)
	if err != nil {
		return nil, err
	}
	alphaSumBytes, err := f.Bytes(alphaSum)
	if err != nil {
		return nil, err
	}
	return &KernelBob{
		requester: r,
		clear: &KernelClearShare{
			KmBmB:      kmbmb,
			NumSupport: len(model.SupportVectors),
			AlphaSum:   alphaSumBytes,
		},
	}, nil
}

// ClearShare returns Bob's cleartext values.
func (b *KernelBob) ClearShare() *KernelClearShare { return b.clear }

// EvaluatePrivateKernel runs a complete in-memory kernelized evaluation.
func EvaluatePrivateKernel(modelA, modelB *svm.Model, params Params, rng io.Reader) (*Result, error) {
	alice, err := NewKernelAlice(modelA, params, rng)
	if err != nil {
		return nil, err
	}
	bob, err := NewKernelBob(alice.Spec(), modelB)
	if err != nil {
		return nil, err
	}
	if err := alice.HandleClearShare(bob.ClearShare()); err != nil {
		return nil, err
	}
	return evaluate(&alice.responder, &bob.requester, rng)
}
