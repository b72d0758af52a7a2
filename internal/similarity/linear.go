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
// Everything but the metric is a protocol constant that Alice writes into
// her Spec: q = maskDegree, k = coverFactor, the amplifier bound
// ompe.DefaultAmplifierBits, and the fixed-point precision linearFracBits
// (kernelFracBits for the kernel variant).
type Params struct {
	// Metric is the public evaluation geometry (default DefaultMetric).
	Metric Metric
	// Group is ignored: every evaluation runs the one OT group, x25519.
	//
	// Deprecated: ot.X25519 is the only group.
	Group ot.Group
	// Parallelism is ignored.
	//
	// Deprecated: every fan-out region runs at GOMAXPROCS.
	Parallelism int
}

// Alice's protocol constants. The precision sizes the field
// (field.ByBits), and the field picks the engine: the hyperplane variant
// needs 9·fb + 12 bits at n = 8 on the default metric (linearAreaBits),
// 228 at fb = 24, so it runs on 2^255−19 with the limb engine; the kernel
// variant needs (8p+5)·fb + 72 bits for a degree-p kernel at fb = 12, 420
// for the paper's cubic on 2^521−1 and 612 at p = 5 on 2^1279−1.
const (
	maskDegree     = 2  // the security parameter q
	coverFactor    = 2  // the decoy multiplier k
	linearFracBits = 24 // the hyperplane variant's fixed-point precision
	kernelFracBits = 12 // the kernel variant's: keeps the cubic's S^29 inside 2^521−1
)

func (p Params) metric() Metric {
	if p.Metric == (Metric{}) {
		return DefaultMetric()
	}
	return p.Metric
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
// dot rounds at S².
var linearAreaExp = areaExp(dotScaleExp, dotScaleExp)

// ErrRound reports a protocol message for the wrong round.
var ErrRound = errors.New("similarity: round mismatch")

// ErrFieldTooSmall reports a field that cannot hold the value Bob decodes:
// no built-in field fits the need, or Bob is handed a spec whose
// FieldBits falls short of the need he recomputes from its public Dim,
// Metric and FracBits.
var ErrFieldTooSmall = errors.New("similarity: field too small for the decoded value")

// specFor derives the public spec from the metric, dimension, precision
// and the field headroom (in bits) the variant's rounds need.
func specFor(dim int, m Metric, fracBits uint, need int) (Spec, error) {
	if err := m.Validate(); err != nil {
		return Spec{}, err
	}
	if dim < 2 {
		return Spec{}, fmt.Errorf("similarity: need >= 2 dims, got %d", dim)
	}
	f, err := field.ByBits(need)
	if err != nil {
		return Spec{}, fmt.Errorf("%w: %w", ErrFieldTooSmall, err)
	}
	return Spec{
		Dim:           dim,
		Metric:        m,
		MaskDegree:    maskDegree,
		CoverFactor:   coverFactor,
		AmplifierBits: ompe.DefaultAmplifierBits,
		FieldBits:     f.Bits(),
		FracBits:      fracBits,
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

// ClearShare carries the value Bob sends in the clear (§V-B: "Bob can
// send |mB|² and |wB|² to Alice directly" — vector norms reveal no single
// dimension). Bob's normal is a unit vector, so |wB|² = 1 goes unsent.
type ClearShare struct {
	NormM2 float64
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
	spec   Spec
	normM2 float64 // |mA|²
}

// NewAlice prepares the responder for one evaluation of the linear model
// (wA, bA) over the agreed geometry.
func NewAlice(wA []float64, bA float64, params Params, rng io.Reader) (*Alice, error) {
	m := params.metric()
	need, err := linearAreaBits(len(wA), m, linearFracBits)
	if err != nil {
		return nil, err
	}
	spec, err := specFor(len(wA), m, linearFracBits, need)
	if err != nil {
		return nil, err
	}
	wA, mA, err := unitPlane(wA, bA, spec.Metric)
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
	return &Alice{responder: r, spec: spec, normM2: normSq(mA)}, nil
}

// unitPlane rescales the hyperplane (w, b) to (w/|w|, b/|w|), the same
// hyperplane with a unit normal, and returns that normal with the
// centroid of its boundary points. Both parties evaluate on unit normals,
// so |wA·wB| ≤ 1 and c3 = ¼/(|wA|²·|wB|²) = ¼ whatever the models' scale,
// and the area value is bounded by the Metric and n alone
// (linearAreaBits).
func unitPlane(w []float64, b float64, m Metric) (unit, centroid []float64, err error) {
	span := obs.Start(obs.PhaseSimBoundary)
	defer span.End()
	norm := math.Sqrt(normSq(w))
	if !(norm > 0) || math.IsInf(norm, 0) {
		return nil, nil, errors.New("similarity: zero or non-finite normal vector")
	}
	unit = make([]float64, len(w))
	for j, x := range w {
		unit[j] = x / norm
	}
	centroid, err = linearCentroid(unit, b/norm, m)
	return unit, centroid, err
}

// linearAreaBits is the field size, in bits, that the hyperplane variant
// needs: the bits of the one value Bob decodes, the area round's T²·S⁹.
// The dot rounds need none. Their outputs x1 = r_am·D1 and
// x2 = r_aw·D2 + r_b are field elements that Eq. (7) maps back to D1 and
// D2² exactly (d1·x1 and d2·(d3 + x2)²) however they wrap, so the
// amplifier does not enter.
//
// Let S = 2^fb and γ = max(|α|, |β|), with both normals unit and both
// centroids in [α, β]ⁿ. Before reduction the area value is the integer
//
//	V = (E1² + C2)·(C4 − C3·D2²),  E1 = C1 − 2·D1,
//
// and Bob decodes it only if |V| ≤ (p−1)/2. Its exact counterpart is
// T²·S⁹, and T² = ¼(L⁴ + L₀⁴)(sin²θ + sin²θ₀) ≤ B because
// L² ≤ n(β−α)² and both sines are at most 1:
//
//	B = ½((β−α)⁴·n² + L₀⁴).
//
// The encodings add these roundings:
//   - C1 = round(c1·S²) is off by ½. D1 = Σ Enc(mA_j)·Enc(mB_j) has
//     factors off by ½ and at most γS, so it is off by nγS + n/4. Hence
//     |E1| ≤ S²·(n(β−α)² + e1), e1 = (2nγS + (n+1)/2)/S².
//   - C2 = round(L₀⁴·S⁴) is off by ½.
//   - D2 = Σ Enc(wA_j)·Enc(wB_j) on unit normals: |D2| ≤ (S + √n/2)² by
//     Cauchy–Schwarz on the rounding vectors.
//   - C3 = round(c3·S) = S/4 exactly: c3 = ¼ on unit normals.
//   - C4 = round(¼(1 + sin²θ₀)·S⁵) ≤ ½·S⁵ + ½.
//
// C4 and C3·D2² are both non-negative, so the second factor is at most
// the larger of them, and |V| ≤ X1·X2·S⁹ with
//
//	X1 = (n(β−α)² + e1)² + L₀⁴ + ½·S⁻⁴,
//	X2 = max(½ + ½·S⁻⁵, ¼·(1 + √n/(2S))⁴).
//
// B̂ = X1·X2·(1 + 2⁻⁴⁰) bounds |V|/S⁹; the last factor covers the float64
// rounding of every input (c1, L₀⁴, the centroids, the unit normals)
// and of B̂ itself. B̂ tends to B as S grows; at n = 8, fb = 24 on the
// default metric it exceeds B by a relative 1e-7. The need is
//
//	9·fb + ⌈log2 B̂⌉ + 2,
//
// where one bit holds the sign of the centered decode and one more covers
// a k-bit prime being as small as 2^(k−1), so (p−1)/2 ≥ 2^(k−2) ≥ |V|.
// At the defaults that is 216 + 10 + 2 = 228 bits; 2^255−19 holds it up
// to fb = 27.
func linearAreaBits(dim int, m Metric, fracBits uint) (int, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	if fracBits > maxFracBits {
		return 0, fmt.Errorf("%w: %d fractional bits", ErrFieldTooSmall, fracBits)
	}
	n, s := float64(dim), math.Ldexp(1, int(fracBits))
	gamma := max(math.Abs(m.Alpha), math.Abs(m.Beta))
	width := m.Beta - m.Alpha
	e1 := (2*n*gamma*s + (n+1)/2) / (s * s)
	x1 := math.Pow(n*width*width+e1, 2) + math.Pow(m.L0, 4) + 0.5/math.Pow(s, 4)
	x2 := max(0.5+0.5/math.Pow(s, 5), 0.25*math.Pow(1+math.Sqrt(n)/(2*s), 4))
	bHat := x1 * x2 * (1 + 0x1p-40)
	if math.IsInf(bHat, 0) {
		return 0, fmt.Errorf("%w: the area value is not finite", ErrFieldTooSmall)
	}
	return int(linearAreaExp)*int(fracBits) + int(math.Ceil(math.Log2(bHat))) + 2, nil
}

// maxFracBits caps a spec's precision before a need is computed from it:
// 2^10 fractional bits are past every built-in field at any exponent, and
// the cap keeps the need arithmetic from overflowing on a hostile spec.
const maxFracBits = 1 << 10

// Spec returns the public contract for Bob.
func (a *Alice) Spec() Spec { return a.spec }

// HandleClearShare stores Bob's centroid norm (must arrive before round
// 3). It must be what linearAreaBits assumes, |mB|² of a centroid inside
// the box, up to float rounding.
func (a *Alice) HandleClearShare(cs *ClearShare) error {
	m := a.spec.Metric
	maxNormM2 := float64(a.spec.Dim) * max(m.Alpha*m.Alpha, m.Beta*m.Beta) * (1 + 1e-9)
	if cs == nil || !(cs.NormM2 >= 0 && cs.NormM2 <= maxNormM2) {
		return errors.New("similarity: invalid clear share")
	}
	a.area = &areaTerms{c1: a.normM2 + cs.NormM2, e1: dotScaleExp, e2: dotScaleExp}
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
// linear model (wB, bB). He recomputes the field the area value needs
// from the spec's public Dim, Metric and FracBits, and refuses a spec
// whose field is smaller with ErrFieldTooSmall.
func NewBob(spec Spec, wB []float64, bB float64) (*Bob, error) {
	if len(wB) != spec.Dim {
		return nil, fmt.Errorf("similarity: model dim %d, spec dim %d", len(wB), spec.Dim)
	}
	need, err := linearAreaBits(spec.Dim, spec.Metric, spec.FracBits)
	if err != nil {
		return nil, err
	}
	if spec.FieldBits < need {
		return nil, fmt.Errorf("%w: the spec's field has %d bits, the area value needs %d", ErrFieldTooSmall, spec.FieldBits, need)
	}
	wB, mB, err := unitPlane(wB, bB, spec.Metric)
	if err != nil {
		return nil, err
	}
	r, err := newRequester(spec, 1, linearAreaExp, mB, [][]float64{wB})
	if err != nil {
		return nil, err
	}
	return &Bob{requester: r, clear: ClearShare{NormM2: normSq(mB)}}, nil
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
