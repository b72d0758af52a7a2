// Package classify implements the paper's primary contribution, part 1:
// privacy-preserving SVM data classification (§IV). A trainer (Alice)
// holds a trained svm.Model; a client (Bob) holds an unlabeled sample. The
// client learns only the predicted class sign(d(t̃)); the trainer learns
// nothing about the sample, and the client learns nothing about the model
// beyond a freshly amplified decision value whose magnitude is meaningless
// (§VI-A, Fig. 5/6).
//
// Linear models run the §IV-A protocol (degree-q masking). Nonlinear
// models run §IV-B in one of two forms:
//
//   - ModeDirect follows the paper: the trainer evaluates the kernel-form
//     decision function on cover vectors over the raw n inputs, and the
//     composed masking degree is p·q. RBF and sigmoid kernels are first
//     truncated to Taylor polynomials (internal/kernel). A polynomial
//     kernel's decision function is expanded once on the trainer into a
//     monomial trie whenever C(n+p, p) is within mvpoly.MaxRescaledNodes,
//     a rule on (n, p) alone. The trie then holds each degree-d
//     coefficient at scale S^(p+1−d), so every term decodes at S^(p+1)
//     rather than the paper's S^(2p+1), and the paper's cubic fits
//     2^255−19 at 24 fractional bits. Past the cap the decision function
//     decodes at S^(2p+1), in whichever form needs fewer multiplications
//     per point.
//   - ModeExpanded pre-expands the polynomial-kernel decision function
//     into its n' = C(n+p-1, n-1) monomial variates τ (§IV-B's
//     observation) and runs the *linear* protocol over τ-space. This
//     trades protocol degree for arity and is only tractable for small n.
//
// All protocol arithmetic is exact fixed-point over a prime field; see
// internal/fixedpoint and DESIGN.md §3.
package classify

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/svm"
)

// Mode selects the nonlinear evaluation form.
type Mode int

const (
	// ModeDirect evaluates the kernel-form decision function directly
	// (the paper's construction; masking degree p·q).
	ModeDirect Mode = iota + 1
	// ModeExpanded linearizes a polynomial-kernel model over its monomial
	// variates and runs the linear protocol (masking degree q).
	ModeExpanded
)

// Params fixes the public protocol parameters both parties agree on.
type Params struct {
	// Mode selects the nonlinear form (default ModeDirect). Linear models
	// ignore it.
	Mode Mode
	// MaskDegree is the security parameter q (default 2).
	MaskDegree int
	// CoverFactor is the decoy multiplier k >= 2 (default 2; M = m·k).
	CoverFactor int
	// AmplifierBits bounds the fresh amplifier r_a (default 64).
	AmplifierBits int
	// Group is ignored: every session runs the one OT group, x25519.
	//
	// Deprecated: ot.X25519 is the only group.
	Group ot.Group
	// FieldBackend is ignored: the protocol's headroom picks the field
	// (field.ByBits), and the field picks the engine.
	//
	// Deprecated: every model that fits 2^255−19 runs on the limb engine.
	FieldBackend field.Backend
	// FracBits is the fixed-point precision (0 = auto from the protocol
	// degree so the field stays within the built-in primes).
	FracBits uint
	// TaylorTerms truncates RBF/sigmoid kernels (default 3).
	TaylorTerms int
	// InsecureUnitAmplifier pins r_a = 1, disabling result randomization.
	// FOR ATTACK DEMONSTRATIONS ONLY (Fig. 6): a client can then recover
	// the decision function from n+1 classified samples.
	InsecureUnitAmplifier bool
	// Parallelism is ignored.
	//
	// Deprecated: every fan-out region runs at GOMAXPROCS.
	Parallelism int
}

func (p Params) withDefaults() Params {
	if p.Mode == 0 {
		p.Mode = ModeDirect
	}
	if p.MaskDegree == 0 {
		p.MaskDegree = 2
	}
	if p.CoverFactor == 0 {
		p.CoverFactor = 2
	}
	if p.AmplifierBits == 0 {
		p.AmplifierBits = ompe.DefaultAmplifierBits
	}
	if p.TaylorTerms == 0 {
		p.TaylorTerms = 3
	}
	return p
}

// Validate checks parameter consistency.
func (p Params) Validate() error {
	p = p.withDefaults()
	switch {
	case p.Mode != ModeDirect && p.Mode != ModeExpanded:
		return fmt.Errorf("classify: unknown mode %d", int(p.Mode))
	case p.MaskDegree < 1:
		return fmt.Errorf("classify: mask degree %d", p.MaskDegree)
	case p.CoverFactor < 2:
		return fmt.Errorf("classify: cover factor %d", p.CoverFactor)
	case p.TaylorTerms < 1:
		return fmt.Errorf("classify: taylor terms %d", p.TaylorTerms)
	}
	return nil
}

// autoFracBits picks a fixed-point precision that keeps the total scale
// within the built-in prime fields for the given scale exponent.
func autoFracBits(scaleExp uint) uint {
	switch {
	case scaleExp <= 4:
		return 40
	case scaleExp <= 10:
		return 24
	default:
		return 16
	}
}

// resolveCodec sizes the field from the protocol's scale exponent and a
// bound on the decision value's magnitude, then builds the codec. The
// automatic precision reads 2p+1 for a direct-mode polynomial even when
// per-degree scales decode it at p+1: they narrow the field, not the
// precision.
func resolveCodec(p Params, kind svm.Kernel, scaleExp uint, valueBound float64) (*fixedpoint.Codec, error) {
	fracBits := p.FracBits
	if fracBits == 0 {
		precisionExp := scaleExp
		if kind.Kind == svm.KernelPolynomial && p.Mode == ModeDirect {
			precisionExp = uint(2*kind.Degree + 1)
		}
		fracBits = autoFracBits(precisionExp)
	}
	need, err := fieldBudget(p, fracBits, scaleExp, valueBound)
	if err != nil {
		return nil, err
	}
	f, err := field.ByBits(need)
	if err != nil {
		return nil, fmt.Errorf("classify: protocol needs %d-bit field: %w", need, err)
	}
	codec, err := fixedpoint.NewCodec(f, fracBits)
	if err != nil {
		return nil, err
	}
	return codec, nil
}

// fieldBudget is the bit width the protocol field must hold: the decoded
// scale 2^(fracBits·scaleExp), the value bound with a sign bit, the
// amplifier, and 24 bits of slack.
func fieldBudget(p Params, fracBits, scaleExp uint, valueBound float64) (int, error) {
	if valueBound < 1 {
		valueBound = 1
	}
	if math.IsInf(valueBound, 0) || math.IsNaN(valueBound) {
		return 0, errors.New("classify: model value bound is not finite")
	}
	valueBits := int(math.Ceil(math.Log2(valueBound+1))) + 1
	return int(fracBits)*int(scaleExp) + valueBits + p.AmplifierBits + 24, nil
}

// decisionBound upper-bounds |d(t)| over t ∈ [−1,1]ⁿ for field sizing.
func decisionBound(m *svm.Model, taylorTerms int) (float64, error) {
	sumAbsAlpha := 0.0
	maxAbsRow := 0.0
	for i, sv := range m.SupportVectors {
		sumAbsAlpha += math.Abs(m.AlphaY[i])
		row := 0.0
		for _, v := range sv {
			row += math.Abs(v)
		}
		if row > maxAbsRow {
			maxAbsRow = row
		}
	}
	switch m.Kernel.Kind {
	case svm.KernelLinear:
		w, err := m.LinearWeights()
		if err != nil {
			return 0, err
		}
		s := math.Abs(m.Bias)
		for _, wi := range w {
			s += math.Abs(wi)
		}
		return s, nil
	case svm.KernelPolynomial:
		base := math.Abs(m.Kernel.A0)*maxAbsRow + math.Abs(m.Kernel.B0)
		return sumAbsAlpha*math.Pow(base, float64(m.Kernel.Degree)) + math.Abs(m.Bias), nil
	case svm.KernelRBF:
		// dist <= |x|² + |t|² + 2|x·t| <= 4n on the unit cube.
		maxDist := 4 * float64(m.Dim)
		acc := 0.0
		term := 1.0
		for i := 0; i <= taylorTerms; i++ {
			acc += term
			term *= m.Kernel.Gamma * maxDist / float64(i+1)
		}
		return sumAbsAlpha*acc + math.Abs(m.Bias), nil
	case svm.KernelSigmoid:
		maxU := math.Abs(m.Kernel.A0)*maxAbsRow + math.Abs(m.Kernel.C0)
		acc := 0.0
		pow := maxU
		for i := 1; i <= taylorTerms; i++ {
			acc += pow // |tanh series coeffs| <= 1
			pow *= maxU * maxU
		}
		return sumAbsAlpha*acc + math.Abs(m.Bias), nil
	default:
		return 0, fmt.Errorf("classify: unsupported kernel %v", m.Kernel.Kind)
	}
}
