package similarity

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"

	"repro/internal/field"
	"repro/internal/fixedpoint"
	"repro/internal/obs"
	"repro/internal/ompe"
	"repro/internal/ot"
)

// The round machine of §V-B, shared by both variants. §V-C obtains the
// kernelised evaluation by putting K(·,·) wherever §V-B takes a dot
// product, so the two differ only in what they build at construction
// (boundary points, field sizing, the dot-round evaluators) and in their
// clear shares. Both put their models on unit normals first, so Eq. (7)'s
// c3/4 is ¼ in either. Everything from the first request to the decoded
// T² runs here.

// areaDegree is the total degree of Eq. (7) in (x1, x2).
const areaDegree = 4

// areaExp is the scale exponent of Eq. (7)'s result when x1 sits at S^e1,
// x2 at S^e2 and c3/4 = ¼ at S.
func areaExp(e1, e2 uint) uint { return 2*e1 + 2*e2 + 1 }

// areaTerms are the inputs of Alice's area evaluator, known once Bob's
// clear share arrives: c1 = |mA|²+|mB|² (or K(mA,mA)+K(mB,mB)), the scale
// exponents of x1 and x2, and for a kernel model A = Σ_t Enc(αyB_t).
type areaTerms struct {
	c1       float64
	e1, e2   uint
	alphaSum *big.Int // nil for a hyperplane
}

// responder is Alice's side: fresh r_am, r_aw, r_b per evaluation, the two
// dot-round evaluators, and the round in flight. RoundNormal repeats
// normalsWant times.
type responder struct {
	codec  *fixedpoint.Codec
	params ompe.Params // dot-round parameters
	metric Metric

	ram, raw, rb     *big.Int
	centroid, normal ompe.Evaluator

	// normalsWant is 1 for a hyperplane and |S_B| once the kernel clear
	// share arrives (0 before, which refuses RoundNormal).
	normalsWant, normalsSeen int
	area                     *areaTerms // set by the clear share

	round  Round
	sender *ompe.Sender
}

// newResponder draws Alice's randomisers for one evaluation.
func newResponder(spec Spec, dotDegree int, rng io.Reader) (responder, error) {
	codec, err := spec.Codec()
	if err != nil {
		return responder{}, err
	}
	params, err := spec.ompeParams(dotDegree)
	if err != nil {
		return responder{}, err
	}
	f := codec.Field()
	bound := new(big.Int).Lsh(big.NewInt(1), uint(spec.AmplifierBits))
	ram, err := f.RandBounded(rng, bound)
	if err != nil {
		return responder{}, err
	}
	raw, err := f.RandBounded(rng, bound)
	if err != nil {
		return responder{}, err
	}
	rb, err := f.Rand(rng)
	if err != nil {
		return responder{}, err
	}
	return responder{
		codec: codec, params: params, metric: spec.Metric,
		ram: ram, raw: raw, rb: rb,
		round: RoundCentroid,
	}, nil
}

// NextRound reports the round Alice expects next (past RoundArea once the
// evaluation is complete).
func (r *responder) NextRound() Round { return r.round }

// HandleRequest answers the OMPE request of the current round.
func (r *responder) HandleRequest(round Round, req *ompe.EvalRequest, rng io.Reader) (*ot.BatchSetup, error) {
	if round != r.round {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrRound, round, r.round)
	}
	span := obs.Start(obs.PhaseOfSimilarityRound(int(round)))
	defer span.End()
	params := r.params
	var (
		eval ompe.Evaluator
		opts []ompe.SenderOption
	)
	switch round {
	case RoundCentroid:
		eval, opts = r.centroid, []ompe.SenderOption{ompe.WithAmplifier(r.ram)}
	case RoundNormal:
		if r.normalsWant == 0 {
			return nil, errors.New("similarity: clear share missing before normal round")
		}
		eval, opts = r.normal, []ompe.SenderOption{ompe.WithAmplifier(r.raw), ompe.WithShift(r.rb)}
	case RoundArea:
		if r.area == nil {
			return nil, errors.New("similarity: clear share missing before area round")
		}
		var err error
		if eval, err = r.areaEvaluator(r.area); err != nil {
			return nil, err
		}
		params.PolyDegree = areaDegree
		opts = []ompe.SenderOption{ompe.WithAmplifier(big.NewInt(1))}
	default:
		return nil, fmt.Errorf("%w: evaluation complete", ErrRound)
	}
	sender, err := ompe.NewSender(params, eval, opts...)
	if err != nil {
		return nil, err
	}
	setup, err := sender.HandleRequest(req, rng)
	if err != nil {
		return nil, err
	}
	r.sender = sender
	return setup, nil
}

// HandleChoice finishes the OT of the current round (or RoundNormal
// instance).
func (r *responder) HandleChoice(round Round, choice *ot.BatchChoice, rng io.Reader) (*ot.BatchTransfer, error) {
	if round != r.round || r.sender == nil {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrRound, round, r.round)
	}
	tr, err := r.sender.HandleChoice(choice, rng)
	if err != nil {
		return nil, err
	}
	r.sender = nil
	obs.Add(obs.CtrSimilarityRounds, 1)
	if round == RoundNormal {
		r.normalsSeen++
		if r.normalsSeen < r.normalsWant {
			return tr, nil
		}
	}
	r.round++
	return tr, nil
}

// areaEvaluator assembles Eq. (7):
//
//	T²(x1,x2) = [(c1 − 2·d1·x1)² + c2] · [c4/4 − (c3/4)·d2·(d3 + x2)²]
//
// with d1 = r_am⁻¹, d2 = r_aw⁻² (the paper writes r_aw⁻¹; the square is
// required for (d3+x2)² = r_aw²·(wA·wB)² to cancel), d3 = −r_b for a
// hyperplane and −r_b·A for a kernel model (cancelling the aggregated
// shift), and the ¼ folded into c3, c4 to save a multiplication. On unit
// normals c3/4 = ¼/(|wA|²·|wB|²) (or its K(w,w) analogue) is ¼. Scale
// plan: c1 at S^e1, c2 at S^{2e1}, c3/4 at S, c4/4 at S^{2e2+1}; the
// result sits at S^areaExp(e1, e2). A hyperplane is (2, 2), giving S⁹; a
// degree-p kernel is (2p, 2p+2), giving S^(8p+5).
func (r *responder) areaEvaluator(t *areaTerms) (ompe.Evaluator, error) {
	f, c := r.codec.Field(), r.codec
	s0 := math.Sin(r.metric.Theta0)
	encC1, err := c.EncodeAtScale(t.c1, c.ScalePow(t.e1))
	if err != nil {
		return nil, err
	}
	encC2, err := c.EncodeAtScale(math.Pow(r.metric.L0, 4), c.ScalePow(2*t.e1))
	if err != nil {
		return nil, err
	}
	encC3, err := c.EncodeAtScale(0.25, c.Scale())
	if err != nil {
		return nil, err
	}
	encC4, err := c.EncodeAtScale(0.25*(1+s0*s0), c.ScalePow(2*t.e2+1))
	if err != nil {
		return nil, err
	}
	d1, err := f.Inv(r.ram)
	if err != nil {
		return nil, err
	}
	d2, err := f.Inv(f.Mul(r.raw, r.raw))
	if err != nil {
		return nil, err
	}
	d3 := f.Neg(r.rb)
	if t.alphaSum != nil {
		d3 = f.Neg(f.Mul(r.rb, t.alphaSum))
	}
	two := big.NewInt(2)
	return ompe.EvaluatorFunc(2, func(z field.Vec) (*big.Int, error) {
		if len(z) != 2 {
			return nil, fmt.Errorf("similarity: area round arity %d", len(z))
		}
		// bracket1 = (c1 − 2·d1·z1)² + c2.
		t1 := f.Sub(encC1, f.Mul(two, f.Mul(d1, z[0])))
		bracket1 := f.Add(f.Mul(t1, t1), encC2)
		// bracket2 = c4/4 − (c3/4)·d2·(d3+z2)².
		t2 := f.Add(d3, z[1])
		bracket2 := f.Sub(encC4, f.Mul(encC3, f.Mul(d2, f.Mul(t2, t2))))
		return f.Mul(bracket1, bracket2), nil
	}), nil
}

// requester is Bob's side: the centroid input, one input per RoundNormal
// instance, optional weights Enc(αyB_t) that fold the normal rounds'
// outputs into x2, and the round in flight.
type requester struct {
	codec  *fixedpoint.Codec
	params ompe.Params // dot-round parameters

	centroid  field.Vec
	normals   []field.Vec
	weights   []*big.Int // nil for a hyperplane
	resultExp uint       // scale of the area result

	round       Round
	normalsDone int
	receiver    *ompe.Receiver
	x1, x2      *big.Int
}

// newRequester encodes Bob's round inputs; resultExp is the scale of the
// area result he decodes.
func newRequester(spec Spec, dotDegree int, resultExp uint, centroid []float64, normals [][]float64) (requester, error) {
	codec, err := spec.Codec()
	if err != nil {
		return requester{}, err
	}
	params, err := spec.ompeParams(dotDegree)
	if err != nil {
		return requester{}, err
	}
	encCentroid, err := codec.EncodeVec(centroid)
	if err != nil {
		return requester{}, err
	}
	encNormals := make([]field.Vec, len(normals))
	for i, v := range normals {
		if encNormals[i], err = codec.EncodeVec(v); err != nil {
			return requester{}, err
		}
	}
	return requester{
		codec: codec, params: params,
		centroid: encCentroid, normals: encNormals, resultExp: resultExp,
		round: RoundCentroid, x2: new(big.Int),
	}, nil
}

// NextRound reports the round Bob runs next (past RoundArea once the
// evaluation is complete).
func (b *requester) NextRound() Round { return b.round }

// StartRound opens the OMPE receiver for the given round and returns the
// evaluation request.
func (b *requester) StartRound(round Round, rng io.Reader) (*ompe.EvalRequest, error) {
	if round != b.round || b.receiver != nil {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrRound, round, b.round)
	}
	params := b.params
	var input field.Vec
	switch round {
	case RoundCentroid:
		input = b.centroid
	case RoundNormal:
		input = b.normals[b.normalsDone]
	case RoundArea:
		input = field.Vec{b.x1, b.x2}
		params.PolyDegree = areaDegree
	default:
		return nil, fmt.Errorf("%w: evaluation complete", ErrRound)
	}
	receiver, req, err := ompe.NewReceiver(params, input, rng)
	if err != nil {
		return nil, err
	}
	b.receiver = receiver
	return req, nil
}

// HandleSetup advances the OT of the current round.
func (b *requester) HandleSetup(round Round, setup *ot.BatchSetup, rng io.Reader) (*ot.BatchChoice, error) {
	if round != b.round || b.receiver == nil {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrRound, round, b.round)
	}
	return b.receiver.HandleSetup(setup, rng)
}

// FinishRound completes the current round (or RoundNormal instance). After
// RoundArea it returns the final result; earlier rounds return nil.
func (b *requester) FinishRound(round Round, tr *ot.BatchTransfer) (*Result, error) {
	if round != b.round || b.receiver == nil {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrRound, round, b.round)
	}
	value, err := b.receiver.Finish(tr)
	if err != nil {
		return nil, err
	}
	b.receiver = nil
	var res *Result
	switch round {
	case RoundCentroid:
		b.x1 = value
	case RoundNormal:
		if b.weights == nil {
			b.x2 = value
		} else {
			// x2 += Enc(αyB_t)·(r_aw·P(xB_t) + r_b)
			f := b.codec.Field()
			b.x2 = f.Add(b.x2, f.Mul(b.weights[b.normalsDone], value))
		}
		b.normalsDone++
		if b.normalsDone < len(b.normals) {
			return nil, nil
		}
	case RoundArea:
		t2, err := b.codec.DecodeAtScale(value, b.codec.ScalePow(b.resultExp))
		if err != nil {
			return nil, err
		}
		// Fixed-point rounding can nick slightly below zero when the
		// models are near-identical; clamp.
		t2 = max(t2, 0)
		res = &Result{T: math.Sqrt(t2), TSquared: t2}
	}
	b.round++
	return res, nil
}

// evaluate drives every round between Alice and Bob in memory and returns
// Bob's result. Distributed deployments drive the two over a transport.
func evaluate(a *responder, b *requester, rng io.Reader) (*Result, error) {
	var res *Result
	for round := b.NextRound(); round <= RoundArea; round = b.NextRound() {
		req, err := b.StartRound(round, rng)
		if err != nil {
			return nil, err
		}
		setup, err := a.HandleRequest(round, req, rng)
		if err != nil {
			return nil, err
		}
		choice, err := b.HandleSetup(round, setup, rng)
		if err != nil {
			return nil, err
		}
		tr, err := a.HandleChoice(round, choice, rng)
		if err != nil {
			return nil, err
		}
		if res, err = b.FinishRound(round, tr); err != nil {
			return nil, err
		}
	}
	return res, nil
}
