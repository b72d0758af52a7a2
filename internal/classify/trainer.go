package classify

import (
	"fmt"
	"math/big"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/mvpoly"
	"repro/internal/ompe"
	"repro/internal/ot"
	"repro/internal/svm"
)

// Spec is the public protocol contract the trainer publishes and the
// client builds its side from: the kernel hyperparameters (a0, b0, p, γ —
// conventional public knowledge; the support vectors and multipliers stay
// private), the feature dimension, the protocol parameters, and the codec
// shape. Both parties derive identical field/codec/OMPE parameters from it.
type Spec struct {
	// Kernel carries the kernel family and hyperparameters (not the
	// trained coefficients).
	Kernel svm.Kernel
	// Dim is the feature dimension n.
	Dim int
	// Mode is the nonlinear evaluation form.
	Mode Mode
	// MaskDegree, CoverFactor, AmplifierBits and TaylorTerms mirror Params.
	MaskDegree    int
	CoverFactor   int
	AmplifierBits int
	TaylorTerms   int
	// FieldBits identifies the built-in protocol prime (field.ByBits).
	// The prime also fixes the arithmetic engine: limb on 2^255−19,
	// math/big on every wider field.
	FieldBits int
	// FracBits is the fixed-point precision.
	FracBits uint
	// GroupName names the OT group; "x25519" is the only one, and
	// ot.GroupByName refuses any other.
	GroupName string
	// WireCodec is not encoded on the wire and is ignored.
	//
	// Deprecated: every session speaks the binary framing.
	WireCodec string
	// PadFunc is not encoded on the wire and is ignored.
	//
	// Deprecated: every session runs the fixed-key AES pad.
	PadFunc string
	// ResumeGranted reports that the server accepted the client's
	// resumption ticket: both sides skip the base OT phase and restore
	// the extension state the ticket sealed. A per-session negotiation
	// outcome, never part of the trainer's contract.
	ResumeGranted bool
}

// Codec reconstructs the protocol codec from the spec.
func (s Spec) Codec() (*fixedpoint.Codec, error) {
	f, err := fieldByExactBits(s.FieldBits)
	if err != nil {
		return nil, err
	}
	return fixedpoint.NewCodec(f, s.FracBits)
}

// OMPEParams derives the OMPE parameters both parties must share.
func (s Spec) OMPEParams() (ompe.Params, error) {
	d, err := s.derive()
	return d.params, err
}

// derived is everything a spec determines for the client: the OMPE
// parameters, the codec, and the evaluator's scale exponent and variate
// count.
type derived struct {
	params   ompe.Params
	codec    *fixedpoint.Codec
	scaleExp uint
	numVars  int
}

// derive resolves the spec's group, codec and protocol shape once.
func (s Spec) derive() (derived, error) {
	group, err := ot.GroupByName(s.GroupName)
	if err != nil {
		return derived{}, err
	}
	codec, err := s.Codec()
	if err != nil {
		return derived{}, err
	}
	degree, scaleExp, numVars, err := protocolShape(s.Kernel, s.Dim, Params{Mode: s.Mode, TaylorTerms: s.TaylorTerms})
	if err != nil {
		return derived{}, err
	}
	return derived{
		params: ompe.Params{
			Field:         codec.Field(),
			PolyDegree:    degree,
			MaskDegree:    s.MaskDegree,
			CoverFactor:   s.CoverFactor,
			AmplifierBits: s.AmplifierBits,
			Group:         group,
			Backend:       engineName(codec.Field()),
		},
		codec:    codec,
		scaleExp: scaleExp,
		numVars:  numVars,
	}, nil
}

// engineName names the engine f runs on. It fills ompe.Params.Backend,
// which ompe ignores, so callers that still read it see the engine that
// actually runs.
//
// Deprecated: the field picks the engine (field.SupportsLimb).
func engineName(f *field.Field) field.Backend {
	if f.SupportsLimb() {
		return field.BackendLimb
	}
	return field.BackendBig
}

// Trainer is the model owner's long-lived protocol endpoint. One Trainer
// serves many classification sessions; each session draws a fresh masking
// polynomial and amplifier (required for Level-2 privacy — a fixed
// amplifier would let a colluding client reconstruct the model up to
// scale, §VI-A).
type Trainer struct {
	model     *svm.Model
	params    Params
	codec     *fixedpoint.Codec
	eval      ompe.Evaluator
	expansion *mvpoly.FloatExpansion
	spec      Spec
}

// NewTrainer wraps a trained model for privacy-preserving serving.
func NewTrainer(model *svm.Model, params Params) (*Trainer, error) {
	if model == nil {
		return nil, fmt.Errorf("classify: nil model")
	}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	params = params.withDefaults()

	bound, err := decisionBound(model, params.TaylorTerms)
	if err != nil {
		return nil, err
	}
	_, scaleExp, _, err := protocolShape(model.Kernel, model.Dim, params)
	if err != nil {
		return nil, err
	}
	codec, err := resolveCodec(params, model.Kernel, scaleExp, bound)
	if err != nil {
		return nil, err
	}
	eval, expansion, err := buildEvaluator(codec, model, params)
	if err != nil {
		return nil, err
	}
	t := &Trainer{
		model:     model,
		params:    params,
		codec:     codec,
		eval:      eval,
		expansion: expansion,
		spec: Spec{
			Kernel:        model.Kernel,
			Dim:           model.Dim,
			Mode:          params.Mode,
			MaskDegree:    params.MaskDegree,
			CoverFactor:   params.CoverFactor,
			AmplifierBits: params.AmplifierBits,
			TaylorTerms:   params.TaylorTerms,
			FieldBits:     codec.Field().Bits(),
			FracBits:      codec.FracBits(),
			GroupName:     ot.X25519().Name(),
		},
	}
	return t, nil
}

// Spec returns the public protocol contract for clients.
func (t *Trainer) Spec() Spec { return t.spec }

// SessionSpec returns Spec(); the argument is ignored.
//
// Deprecated: the field picks the engine, so there is nothing to
// negotiate per session. Use Spec.
func (t *Trainer) SessionSpec(field.Backend) Spec { return t.spec }

// Model returns the wrapped model (the trainer's own private state).
func (t *Trainer) Model() *svm.Model { return t.model }

// NewSession opens a one-shot OMPE sender for a single classification
// query, with a fresh amplifier (or a pinned unit amplifier when the
// insecure attack-demo knob is set).
func (t *Trainer) NewSession() (*ompe.Sender, error) {
	return t.NewSessionFor(t.spec)
}

// NewSessionFor opens a one-shot OMPE sender bound to a session spec,
// which must match the trainer's own contract (see sessionParams).
func (t *Trainer) NewSessionFor(spec Spec) (*ompe.Sender, error) {
	params, err := t.sessionParams(spec)
	if err != nil {
		return nil, err
	}
	if t.params.InsecureUnitAmplifier {
		return ompe.NewSender(params, t.eval, ompe.WithAmplifier(big.NewInt(1)))
	}
	return ompe.NewSender(params, t.eval)
}

// sessionParams derives the trainer-side OMPE parameters for a session
// spec, rejecting specs that diverge from the published contract anywhere
// but the resumption grant (and the ignored WireCodec and PadFunc).
func (t *Trainer) sessionParams(spec Spec) (ompe.Params, error) {
	contract := spec
	contract.WireCodec = t.spec.WireCodec
	contract.PadFunc = t.spec.PadFunc
	contract.ResumeGranted = t.spec.ResumeGranted
	if contract != t.spec {
		return ompe.Params{}, fmt.Errorf("classify: session spec does not match the trainer's contract")
	}
	return spec.OMPEParams()
}

// fieldByExactBits resolves a built-in field and verifies the bit width
// matches exactly, so both parties agree on the modulus.
func fieldByExactBits(bits int) (*field.Field, error) {
	f, err := field.ByBits(bits)
	if err != nil {
		return nil, err
	}
	if f.Bits() != bits {
		return nil, fmt.Errorf("classify: no built-in field with exactly %d bits", bits)
	}
	return f, nil
}
