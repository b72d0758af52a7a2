// Package ompe implements Oblivious Multivariate Polynomial Evaluation
// (paper §III-C, Tassa et al.), the primitive both of the paper's protocols
// are built on.
//
// The sender holds a secret r-variate polynomial P over a prime field and
// an amplifier; the receiver holds a secret input vector α. At the end the
// receiver learns amp·P(α)+shift and nothing else about P; the sender
// learns nothing about α.
//
// Construction, following §IV-A with the paper's variable names:
//
//  1. The receiver hides each input component α_i inside a random
//     degree-q cover polynomial g_i with g_i(0)=α_i, samples M = m·k
//     distinct evaluation points v_1..v_M, evaluates the cover tuple
//     z_i = G(v_i) at m secret genuine positions, and sends random decoy
//     vectors at the rest.
//  2. The sender draws a fresh masking polynomial h of degree D = p·q with
//     h(0)=0 and a fresh amplifier, computes y_i = h(v_i) + amp·P(z_i) +
//     shift for every pair, and the parties run an m-out-of-M oblivious
//     transfer of the y values.
//  3. The receiver interpolates the m genuine (v_i, y_i) points — they lie
//     on the degree-D univariate polynomial B(v) = h(v) + amp·P(G(v)) +
//     shift — and recovers B(0) = amp·P(α) + shift.
//
// Both roles are one-shot state machines that exchange plain message
// structs, so they run identically over in-memory pipes and real network
// transports.
package ompe

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"

	"repro/internal/field"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/wire"
)

var (
	// ErrState reports a protocol method called out of order.
	ErrState = errors.New("ompe: protocol state violation")
	// ErrBadRequest reports a malformed evaluation request.
	ErrBadRequest = errors.New("ompe: malformed evaluation request")
	// ErrParams reports invalid protocol parameters.
	ErrParams = errors.New("ompe: invalid parameters")
)

// zeroShift is the shared shift for sessions that never shift (read-only).
var zeroShift = new(big.Int)

// Evaluator is the sender's secret function: a multivariate polynomial over
// the protocol field. Implementations are mvpoly.KernelSum (every SVM
// decision function but RBF's, and the similarity dot rounds), classify's
// RBF evaluator, and EvaluatorFunc closures such as the triangle-metric
// polynomial in internal/similarity. Over 2^255−19 an evaluator without
// EvalLimb (see LimbEvaluator) is reached through a math/big bridge.
type Evaluator interface {
	// NumVars returns the input arity.
	NumVars() int
	// Eval evaluates the polynomial at a field point. Eval must be safe
	// for concurrent use: the sender fans the M request pairs out across
	// GOMAXPROCS workers. Every evaluator in this repository
	// qualifies — they read shared encoded state and allocate per-call
	// scratch.
	Eval(x field.Vec) (*big.Int, error)
}

// Params fixes one OMPE execution's public parameters. Both parties must
// agree on them.
type Params struct {
	// Field is the protocol field.
	Field *field.Field
	// PolyDegree is p, the total degree of the sender's polynomial.
	PolyDegree int
	// MaskDegree is q, the security parameter: the degree of the
	// receiver's cover polynomials.
	MaskDegree int
	// CoverFactor is k >= 2: the receiver hides its m genuine points among
	// M = m·k pairs.
	CoverFactor int
	// AmplifierBits bounds a freshly sampled amplifier to [1, 2^bits].
	// Zero selects DefaultAmplifierBits.
	AmplifierBits int
	// Group is the oblivious-transfer group; its zero value is x25519,
	// the only one.
	Group ot.Group
	// Backend is ignored: the field picks the engine. Over 2^255−19
	// (Field.SupportsLimb) every per-query hot loop runs on fixed-width
	// limb elements; every other field runs math/big. The evaluation
	// request has one form on both.
	//
	// Deprecated: the field picks the engine.
	Backend field.Backend
	// Parallelism is ignored.
	//
	// Deprecated: every fan-out region runs at GOMAXPROCS.
	Parallelism int
	// Pad is ignored.
	//
	// Deprecated: every session runs the fixed-key AES pad.
	Pad ot.PadFunc
}

// DefaultAmplifierBits bounds fresh amplifiers to 64 bits, large enough to
// hide the decision value's magnitude and small enough to keep amplified
// fixed-point values inside the field's centered range.
const DefaultAmplifierBits = 64

// Validate checks parameter consistency.
func (p Params) Validate() error {
	switch {
	case p.Field == nil:
		return fmt.Errorf("%w: nil field", ErrParams)
	case p.PolyDegree < 1:
		return fmt.Errorf("%w: poly degree %d", ErrParams, p.PolyDegree)
	case p.MaskDegree < 1:
		return fmt.Errorf("%w: mask degree %d", ErrParams, p.MaskDegree)
	case p.CoverFactor < 2:
		return fmt.Errorf("%w: cover factor %d (need >= 2)", ErrParams, p.CoverFactor)
	case p.MaskDegree > (math.MaxInt-1)/p.PolyDegree || p.ComposedDegree()+1 > math.MaxInt/p.CoverFactor:
		return fmt.Errorf("%w: %d·%d+1 genuine points times cover factor %d overflows", ErrParams, p.PolyDegree, p.MaskDegree, p.CoverFactor)
	case p.AmplifierBits < 0 || p.AmplifierBits > p.Field.Bits()-2:
		return fmt.Errorf("%w: amplifier bits %d", ErrParams, p.AmplifierBits)
	}
	return nil
}

// validateFor is Validate for a role that knows the input arity: one
// request, M records of 1+numVars elements, must also fit wire.MaxBytes,
// or it could not be encoded.
func (p Params) validateFor(numVars int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if stride := packedStride(p.Field, numVars); p.TotalPairs() > wire.MaxBytes/stride {
		return fmt.Errorf("%w: a request of %d records of %d bytes exceeds %d bytes", ErrParams, p.TotalPairs(), stride, wire.MaxBytes)
	}
	return nil
}

// ComposedDegree returns D = p·q, the degree of B(v).
func (p Params) ComposedDegree() int { return p.PolyDegree * p.MaskDegree }

// GenuineCount returns m = D+1, the number of genuine evaluation points
// (the paper's m = q+1 for linear and m = pq+1 for nonlinear).
func (p Params) GenuineCount() int { return p.ComposedDegree() + 1 }

// TotalPairs returns M = m·k.
func (p Params) TotalPairs() int { return p.GenuineCount() * p.CoverFactor }

func (p Params) amplifierBitsOrDefault() int {
	if p.AmplifierBits == 0 {
		return DefaultAmplifierBits
	}
	return p.AmplifierBits
}

// sampleAmplifier draws a log-uniform positive amplifier: a uniform
// exponent e in [0, bits), then a uniform value in [2^e, 2^(e+1)). A
// log-uniform r_a makes the amplified value's magnitude scale-free, so a
// colluding client pool cannot even regress on expected magnitudes — the
// estimates of Fig. 5 "keep rambling" at every pool size.
func sampleAmplifier(rng io.Reader, bits int) (*big.Int, error) {
	eBig, err := rand.Int(rng, big.NewInt(int64(bits)))
	if err != nil {
		return nil, err
	}
	e := uint(eBig.Int64())
	lo := new(big.Int).Lsh(big.NewInt(1), e)
	span := new(big.Int).Set(lo) // [2^e, 2^(e+1)) has width 2^e
	off, err := rand.Int(rng, span)
	if err != nil {
		return nil, err
	}
	return lo.Add(lo, off), nil
}

// EvalRequest is the receiver's first message: M pairs (v_i, z_i), of
// which only the receiver's secret m positions carry genuine cover
// evaluations. Packed holds the M pairs back to back as records of
// (1+numVars)·Field.ElementLen() bytes — v_i first, then the z_i
// components, each a canonical fixed-width big-endian element — so the
// payload is one byte slice on every field.
type EvalRequest struct {
	Packed []byte
}

// packedStride is the byte length of one (v_i, z_i) record.
func packedStride(f *field.Field, numVars int) int { return (1 + numVars) * f.ElementLen() }

// recordError reports the first invalid element of record i: element 0
// is the evaluation point v_i, element j > 0 the z_i component j−1.
func recordError(i, j int) error {
	if j == 0 {
		return fmt.Errorf("%w: pair %d has invalid evaluation point", ErrBadRequest, i)
	}
	return fmt.Errorf("%w: pair %d component %d not in field", ErrBadRequest, i, j-1)
}

type senderState int

const (
	senderAwaitingRequest senderState = iota + 1
	senderAwaitingChoice
	senderDone
)

// Sender is the polynomial owner's one-shot protocol role.
type Sender struct {
	params Params
	eval   Evaluator

	fixedAmplifier *big.Int // nil => sample fresh per execution
	shift          *big.Int

	state     senderState
	amplifier *big.Int
	batch     *ot.BatchSender
}

// SenderOption configures a Sender.
type SenderOption func(*Sender)

// WithAmplifier pins the amplifier instead of sampling a fresh one. The
// similarity protocol uses this: Alice must know r_am and r_aw exactly to
// cancel them in the final round via modular inverses.
func WithAmplifier(amp *big.Int) SenderOption {
	return func(s *Sender) { s.fixedAmplifier = new(big.Int).Set(amp) }
}

// WithShift adds a constant after amplification (the paper's r_b in §V-B,
// which prevents the receiver from detecting amp·P(α) = 0).
func WithShift(shift *big.Int) SenderOption {
	return func(s *Sender) { s.shift = new(big.Int).Set(shift) }
}

// NewSender builds the sender role around a secret evaluator.
func NewSender(params Params, eval Evaluator, opts ...SenderOption) (*Sender, error) {
	if eval == nil {
		return nil, fmt.Errorf("%w: nil evaluator", ErrParams)
	}
	if err := params.validateFor(eval.NumVars()); err != nil {
		return nil, err
	}
	s := &Sender{
		params: params,
		eval:   eval,
		shift:  new(big.Int),
		state:  senderAwaitingRequest,
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Amplifier returns the amplifier used in this execution. It is valid
// after HandleRequest.
func (s *Sender) Amplifier() *big.Int {
	if s.amplifier == nil {
		return nil
	}
	return new(big.Int).Set(s.amplifier)
}

// HandleRequest consumes the receiver's evaluation request, computes the
// masked evaluations y_i = h(v_i) + amp·P(z_i) + shift, and opens the
// m-out-of-M oblivious transfer.
func (s *Sender) HandleRequest(req *EvalRequest, rng io.Reader) (*ot.BatchSetup, error) {
	if s.state != senderAwaitingRequest {
		return nil, ErrState
	}
	if err := validateEvalRequest(s.params, s.eval.NumVars(), req); err != nil {
		return nil, err
	}

	// A batch of one of the session sender's core: the amplifier (unless
	// pinned) and a fresh masking polynomial h with h(0)=0 and degree D,
	// which cancels at the interpolation point and drowns P's
	// coefficients everywhere else (§IV-A.1).
	maskSpan := obs.Start(obs.PhaseSenderMask)
	m, err := drawSenderMask(s.params, s.fixedAmplifier, rng)
	if err != nil {
		return nil, err
	}
	s.amplifier = m.amp
	msgs, err := maskedSampleWith(s.params, s.eval, m, s.shift, req)
	if err != nil {
		return nil, err
	}
	maskSpan.End()

	batch, setup, err := ot.NewBatchSender(s.params.Group, msgs, s.params.GenuineCount(), rng)
	if err != nil {
		return nil, err
	}
	s.batch = batch
	s.state = senderAwaitingChoice
	return setup, nil
}

// HandleChoice consumes the receiver's OT choice and returns the final
// transfer.
func (s *Sender) HandleChoice(choice *ot.BatchChoice, rng io.Reader) (*ot.BatchTransfer, error) {
	if s.state != senderAwaitingChoice {
		return nil, ErrState
	}
	tr, err := s.batch.Respond(choice, rng)
	if err != nil {
		return nil, err
	}
	s.state = senderDone
	return tr, nil
}

// validateEvalRequest checks a receiver's evaluation request's shape
// against the protocol parameters (shared by the one-shot and session
// senders, on both engines). The per-record canonical, non-zero and
// distinct-point checks run inside the masking path, which decodes every
// record exactly once on the engine's element type.
func validateEvalRequest(params Params, numVars int, req *EvalRequest) error {
	if req == nil {
		return fmt.Errorf("%w: nil request", ErrBadRequest)
	}
	if want := params.TotalPairs() * packedStride(params.Field, numVars); len(req.Packed) != want {
		return fmt.Errorf("%w: request is %d bytes, want %d", ErrBadRequest, len(req.Packed), want)
	}
	return nil
}

// parseRequest decodes and fully validates a shape-checked request on
// the math/big engine, returning the records as a flat slice of
// (1+numVars)-element groups: flat[i*(1+numVars)] is v_i, the rest of
// the group is z_i.
func parseRequest(params Params, numVars int, req *EvalRequest) (field.Vec, error) {
	f := params.Field
	elen := f.ElementLen()
	total := params.TotalPairs()
	stride := 1 + numVars
	flat := make(field.Vec, total*stride)
	seen := make(map[string]bool, total)
	for i := 0; i < total; i++ {
		raw := req.Packed[i*stride*elen : (i+1)*stride*elen]
		for j := 0; j < stride; j++ {
			x, err := f.FromBytes(raw[j*elen : (j+1)*elen])
			if err != nil {
				return nil, recordError(i, j)
			}
			flat[i*stride+j] = x
		}
		if flat[i*stride].Sign() == 0 {
			return nil, recordError(i, 0)
		}
		// The encoding is canonical, so equal points have equal bytes.
		key := string(raw[:elen])
		if seen[key] {
			return nil, fmt.Errorf("%w: pair %d repeats evaluation point", ErrBadRequest, i)
		}
		seen[key] = true
	}
	return flat, nil
}

type receiverState int

const (
	receiverAwaitingSetup receiverState = iota + 1
	receiverAwaitingTransfer
	receiverDone
)

// Receiver is the input owner's one-shot protocol role.
type Receiver struct {
	params Params

	state receiverState
	query
	batch *ot.BatchReceiver
}

// NewReceiver builds the receiver role for a secret input vector and
// returns the evaluation request. numVars is the sender polynomial's arity
// and must equal len(input).
func NewReceiver(params Params, input field.Vec, rng io.Reader) (*Receiver, *EvalRequest, error) {
	if len(input) == 0 {
		return nil, nil, fmt.Errorf("%w: empty input", ErrParams)
	}
	if err := params.validateFor(len(input)); err != nil {
		return nil, nil, err
	}
	f := params.Field
	for i, x := range input {
		if x == nil || !f.Contains(x) {
			return nil, nil, fmt.Errorf("%w: input component %d not in field", ErrParams, i)
		}
	}
	if params.limbBackend() {
		return newReceiverLimb(params, input, rng)
	}

	// Cover polynomials: g_i(0) = α_i, random elsewhere (§IV-A.2).
	maskSpan := obs.Start(obs.PhaseReceiverMask)
	covers := make([]*poly.Poly, len(input))
	for i := range input {
		g, err := poly.Random(f, rng, params.MaskDegree, input[i])
		if err != nil {
			return nil, nil, err
		}
		covers[i] = g
	}
	maskSpan.End()

	decoySpan := obs.Start(obs.PhaseReceiverDecoy)
	total := params.TotalPairs()
	points, err := distinctNonZero(f, total, rng)
	if err != nil {
		return nil, nil, err
	}
	genuine, err := randomSubset(total, params.GenuineCount(), rng)
	if err != nil {
		return nil, nil, err
	}
	isGenuine := make(map[int]bool, len(genuine))
	for _, idx := range genuine {
		isGenuine[idx] = true
	}

	// Draw every decoy component serially, in pair order — exactly the
	// stream the fully serial construction consumes — then evaluate the
	// genuine pairs' cover tuples across the worker pool. crypto/rand
	// draws never happen inside the parallel region, so the request is
	// deterministic given a locked rng at any worker count.
	elen := f.ElementLen()
	stride := packedStride(f, len(input))
	packed := make([]byte, total*stride)
	for i := 0; i < total; i++ {
		rec := packed[i*stride : (i+1)*stride]
		points[i].FillBytes(rec[:elen])
		if !isGenuine[i] {
			// Decoy: uniform garbage indistinguishable from cover values.
			for j := range input {
				x, err := f.Rand(rng)
				if err != nil {
					return nil, nil, err
				}
				x.FillBytes(rec[(1+j)*elen : (2+j)*elen])
			}
		}
	}
	_ = parallel.For(total, func(i int) error {
		if !isGenuine[i] {
			return nil
		}
		rec := packed[i*stride : (i+1)*stride]
		for j, g := range covers {
			g.Eval(points[i]).FillBytes(rec[(1+j)*elen : (2+j)*elen])
		}
		return nil
	})
	decoySpan.End()

	r := &Receiver{
		params: params,
		state:  receiverAwaitingSetup,
		query:  query{points: points, genuine: genuine},
	}
	return r, &EvalRequest{Packed: packed}, nil
}

// HandleSetup consumes the sender's OT setup and produces the receiver's
// choice of its genuine indices.
func (r *Receiver) HandleSetup(setup *ot.BatchSetup, rng io.Reader) (*ot.BatchChoice, error) {
	if r.state != receiverAwaitingSetup {
		return nil, ErrState
	}
	batch, choice, err := ot.NewBatchReceiver(r.params.Group, r.params.TotalPairs(), r.genuine, setup, rng)
	if err != nil {
		return nil, err
	}
	r.batch = batch
	r.state = receiverAwaitingTransfer
	return choice, nil
}

// Finish decrypts the transferred evaluations and interpolates B at zero,
// returning amp·P(α) + shift.
func (r *Receiver) Finish(tr *ot.BatchTransfer) (*big.Int, error) {
	if r.state != receiverAwaitingTransfer {
		return nil, ErrState
	}
	raw, err := r.batch.Recover(tr)
	if err != nil {
		return nil, err
	}
	interpSpan := obs.Start(obs.PhaseReceiverInterpolate)
	result, err := interpolateQueries(r.params, []query{r.query}, [][][]byte{raw})
	if err != nil {
		return nil, err
	}
	interpSpan.End()
	r.state = receiverDone
	return result[0], nil
}

// distinctNonZero samples n distinct non-zero field elements. The dedup
// map is keyed on the fixed-width serialization rather than the decimal
// string (big.Int decimal formatting is measurably slow at M ≈ 1k pairs).
func distinctNonZero(f *field.Field, n int, rng io.Reader) ([]*big.Int, error) {
	out := make([]*big.Int, 0, n)
	seen := make(map[string]bool, n)
	for len(out) < n {
		x, err := f.RandNonZero(rng)
		if err != nil {
			return nil, err
		}
		kb, err := f.Bytes(x)
		if err != nil {
			return nil, err
		}
		key := string(kb)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, x)
	}
	return out, nil
}

// randomSubset samples a uniform m-subset of [0, n) in increasing order
// via a partial Fisher–Yates shuffle with cryptographic randomness.
func randomSubset(n, m int, rng io.Reader) ([]int, error) {
	if m > n {
		return nil, fmt.Errorf("%w: subset %d of %d", ErrParams, m, n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < m; i++ {
		jBig, err := rand.Int(rng, big.NewInt(int64(n-i)))
		if err != nil {
			return nil, err
		}
		j := i + int(jBig.Int64())
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm[:m], nil
}

// maskedEvaluations computes the sender's arithmetic core: one masked,
// amplified, shifted evaluation per request pair, serialized for OT. Each
// pair's h(v_i) + amp·P(z_i) + shift is independent, so the M pairs are
// chunked across the worker pool; a failing pair stops the batch and
// surfaces the lowest-indexed error without deadlocking the pool.
func maskedEvaluations(params Params, eval Evaluator, h *poly.Poly, amplifier, shift *big.Int, req *EvalRequest) ([][]byte, error) {
	stride := 1 + eval.NumVars()
	flat, err := parseRequest(params, eval.NumVars(), req)
	if err != nil {
		return nil, err
	}
	f := params.Field
	msgs := make([][]byte, params.TotalPairs())
	reducedShift := f.Reduce(shift)
	err = parallel.For(len(msgs), func(i int) error {
		rec := flat[i*stride : (i+1)*stride : (i+1)*stride]
		pv, err := eval.Eval(rec[1:])
		if err != nil {
			return fmt.Errorf("ompe: evaluate pair %d: %w", i, err)
		}
		y := f.Add(h.Eval(rec[0]), f.Add(f.Mul(amplifier, pv), reducedShift))
		b, err := f.Bytes(y)
		if err != nil {
			return err
		}
		msgs[i] = b
		return nil
	})
	if err != nil {
		return nil, err
	}
	return msgs, nil
}

// MaskedEvaluations exposes the sender's arithmetic core (fresh masking
// polynomial + amplified evaluation of every pair) WITHOUT the oblivious
// transfer, for micro-benchmarks that isolate the polynomial-masking cost
// the paper's Fig. 10 reports.
func MaskedEvaluations(params Params, eval Evaluator, req *EvalRequest, rng io.Reader) ([][]byte, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if err := validateEvalRequest(params, eval.NumVars(), req); err != nil {
		return nil, err
	}
	m, err := drawSenderMask(params, nil, rng)
	if err != nil {
		return nil, err
	}
	return maskedSampleWith(params, eval, m, zeroShift, req)
}
