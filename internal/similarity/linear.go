package similarity

import (
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/mvpoly"
	"repro/internal/obs"
	"repro/internal/ompe"
	"repro/internal/ot"
)

// Params fixes the protocol parameters of a private similarity evaluation.
type Params struct {
	// Metric is the public evaluation geometry.
	Metric Metric
	// MaskDegree is the security parameter q (default 2).
	MaskDegree int
	// CoverFactor is the decoy multiplier k (default 2).
	CoverFactor int
	// AmplifierBits bounds r_am and r_aw (default 64).
	AmplifierBits int
	// Group is ignored: every evaluation runs the one OT group, x25519.
	//
	// Deprecated: ot.X25519 is the only group.
	Group ot.Group
	// FracBits is the fixed-point precision (default 24; 12 for the
	// kernel variant). It sizes the field (field.ByBits), and the field
	// picks the engine: a precision whose rounds fit 255 bits runs on
	// 2^255−19 with the limb engine, the default needs 2^521−1.
	FracBits uint
	// Parallelism is ignored.
	//
	// Deprecated: every fan-out region runs at GOMAXPROCS.
	Parallelism int
}

func (p Params) withDefaults() Params {
	if p.Metric == (Metric{}) {
		p.Metric = DefaultMetric()
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
	if p.FracBits == 0 {
		p.FracBits = 24
	}
	return p
}

// Spec is the public contract Alice publishes for an evaluation.
type Spec struct {
	Dim           int
	Metric        Metric
	MaskDegree    int
	CoverFactor   int
	AmplifierBits int
	FieldBits     int
	FracBits      uint
	GroupName     string
}

// Round identifies the three OMPE rounds of §V-B.
type Round int

const (
	// RoundCentroid delivers x1 = r_am·(mA·mB) to Bob.
	RoundCentroid Round = iota + 1
	// RoundNormal delivers x2 = r_aw·(wA·wB) + r_b to Bob.
	RoundNormal
	// RoundArea delivers T²·S⁹ to Bob via Alice's two-variate degree-4
	// polynomial, Eq. (7).
	RoundArea
)

// dotScaleExp is the scale exponent of a dot round's result: S·S products
// of two base-scale encodings.
const dotScaleExp = 2

// linearAreaExp is the hyperplane's area-round scale: Eq. (7) with both
// dot rounds at S² and c3 at S.
var linearAreaExp = areaExp(dotScaleExp, dotScaleExp, 1)

// ErrRound reports a protocol message for the wrong round.
var ErrRound = errors.New("similarity: round mismatch")

// specFor derives the public spec from params, dimension and the field
// headroom (in bits) the variant's rounds need.
func specFor(dim int, p Params, need int) (Spec, error) {
	if err := p.Metric.Validate(); err != nil {
		return Spec{}, err
	}
	if dim < 2 {
		return Spec{}, fmt.Errorf("similarity: need >= 2 dims, got %d", dim)
	}
	f, err := field.ByBits(need)
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Dim:           dim,
		Metric:        p.Metric,
		MaskDegree:    p.MaskDegree,
		CoverFactor:   p.CoverFactor,
		AmplifierBits: p.AmplifierBits,
		FieldBits:     f.Bits(),
		FracBits:      p.FracBits,
		GroupName:     ot.X25519().Name(),
	}, nil
}

// Codec reconstructs the protocol codec from the spec.
func (s Spec) Codec() (*fixedpoint.Codec, error) {
	f, err := field.ByBits(s.FieldBits)
	if err != nil {
		return nil, err
	}
	if f.Bits() != s.FieldBits {
		return nil, fmt.Errorf("similarity: no built-in field with exactly %d bits", s.FieldBits)
	}
	return fixedpoint.NewCodec(f, s.FracBits)
}

// ompeParams derives the OMPE parameters of a round whose polynomial has
// the given degree.
func (s Spec) ompeParams(degree int) (ompe.Params, error) {
	group, err := ot.GroupByName(s.GroupName)
	if err != nil {
		return ompe.Params{}, err
	}
	codec, err := s.Codec()
	if err != nil {
		return ompe.Params{}, err
	}
	return ompe.Params{
		Field:         codec.Field(),
		PolyDegree:    degree,
		MaskDegree:    s.MaskDegree,
		CoverFactor:   s.CoverFactor,
		AmplifierBits: s.AmplifierBits,
		Group:         group,
	}, nil
}

// ClearShare carries the values Bob may send in the clear (§V-B: "Bob can
// send |mB|² and |wB|² to Alice directly" — vector norms reveal no single
// dimension).
type ClearShare struct {
	NormM2 float64
	NormW2 float64
}

// normSq is |v|².
func normSq(v []float64) float64 {
	acc := 0.0
	for _, x := range v {
		acc += x * x
	}
	return acc
}

// Alice is the responder: she holds model A and answers Bob's three OMPE
// rounds. One Alice value serves a single evaluation (fresh r_am, r_aw,
// r_b per evaluation).
type Alice struct {
	responder
	spec           Spec
	normM2, normW2 float64 // |mA|², |wA|²
}

// NewAlice prepares the responder for one evaluation of the linear model
// (wA, bA) over the agreed geometry.
func NewAlice(wA []float64, bA float64, params Params, rng io.Reader) (*Alice, error) {
	params = params.withDefaults()
	// Field sizing: rounds 1-2 need 2·fb + amplifier bits; round 3 needs
	// 9·fb. 40 value bits + slack cover the metric's magnitudes.
	fb := int(params.FracBits)
	spec, err := specFor(len(wA), params, max(2*fb+params.AmplifierBits, int(linearAreaExp)*fb)+40+24)
	if err != nil {
		return nil, err
	}
	mA, err := linearCentroid(wA, bA, spec.Metric)
	if err != nil {
		return nil, err
	}
	r, err := newResponder(spec, 1, rng)
	if err != nil {
		return nil, err
	}
	encM, err := r.codec.EncodeVec(mA)
	if err != nil {
		return nil, err
	}
	encW, err := r.codec.EncodeVec(wA)
	if err != nil {
		return nil, err
	}
	// Rounds 1 and 2 evaluate the bias-free linear forms mA·z and wA·z.
	f := r.codec.Field()
	if r.centroid, err = mvpoly.NewLinear(f, encM, f.Zero()); err != nil {
		return nil, err
	}
	if r.normal, err = mvpoly.NewLinear(f, encW, f.Zero()); err != nil {
		return nil, err
	}
	r.normalsWant = 1
	return &Alice{responder: r, spec: spec, normM2: normSq(mA), normW2: normSq(wA)}, nil
}

// linearCentroid is the centroid of a hyperplane's boundary points.
func linearCentroid(w []float64, b float64, m Metric) ([]float64, error) {
	span := obs.Start(obs.PhaseSimBoundary)
	defer span.End()
	pts, err := LinearBoundaryPoints(w, b, m)
	if err != nil {
		return nil, err
	}
	return Centroid(pts)
}

// Spec returns the public contract for Bob.
func (a *Alice) Spec() Spec { return a.spec }

// HandleClearShare stores Bob's vector norms (must arrive before round 3).
func (a *Alice) HandleClearShare(cs *ClearShare) error {
	if cs == nil || cs.NormM2 < 0 || cs.NormW2 <= 0 ||
		math.IsNaN(cs.NormM2) || math.IsInf(cs.NormM2, 0) ||
		math.IsNaN(cs.NormW2) || math.IsInf(cs.NormW2, 0) {
		return errors.New("similarity: invalid clear share")
	}
	a.area = &areaTerms{
		c1: a.normM2 + cs.NormM2,
		c3: 0.25 / (a.normW2 * cs.NormW2),
		e1: dotScaleExp, e2: dotScaleExp, c3Exp: 1,
	}
	return nil
}

// Bob is the requester: he holds model B and learns T.
type Bob struct {
	requester
	clear ClearShare
}

// SetParallelism does nothing.
//
// Deprecated: every fan-out region runs at GOMAXPROCS.
func (b *Bob) SetParallelism(int) {}

// NewBob prepares the requester from Alice's public spec and Bob's own
// linear model (wB, bB).
func NewBob(spec Spec, wB []float64, bB float64) (*Bob, error) {
	if len(wB) != spec.Dim {
		return nil, fmt.Errorf("similarity: model dim %d, spec dim %d", len(wB), spec.Dim)
	}
	mB, err := linearCentroid(wB, bB, spec.Metric)
	if err != nil {
		return nil, err
	}
	normW2 := normSq(wB)
	if normW2 == 0 {
		return nil, errors.New("similarity: zero normal vector")
	}
	r, err := newRequester(spec, 1, mB, [][]float64{wB})
	if err != nil {
		return nil, err
	}
	r.resultExp = linearAreaExp
	return &Bob{requester: r, clear: ClearShare{NormM2: normSq(mB), NormW2: normW2}}, nil
}

// ClearShare returns the values Bob sends Alice in the clear.
func (b *Bob) ClearShare() *ClearShare {
	cs := b.clear
	return &cs
}

// EvaluatePrivate runs a complete in-memory private evaluation between two
// linear models and returns Bob's result. Distributed deployments drive
// Alice and Bob over a transport instead.
func EvaluatePrivate(wA []float64, bA float64, wB []float64, bB float64, params Params, rng io.Reader) (*Result, error) {
	alice, err := NewAlice(wA, bA, params, rng)
	if err != nil {
		return nil, err
	}
	bob, err := NewBob(alice.Spec(), wB, bB)
	if err != nil {
		return nil, err
	}
	if err := alice.HandleClearShare(bob.ClearShare()); err != nil {
		return nil, err
	}
	return evaluate(&alice.responder, &bob.requester, rng)
}
