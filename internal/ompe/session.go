package ompe

import (
	"fmt"
	"io"
	"math/big"

	"repro/internal/field"
	"repro/internal/field/limb"
	"repro/internal/obs"
	"repro/internal/ot"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// Session mode: after one IKNP base phase per (sender, receiver) session,
// every OMPE execution costs only field arithmetic and symmetric crypto —
// the m-out-of-M transfer runs over the OT extension (ot.ExtKofNBatch*)
// instead of per-query Naor–Pinkas. Queries travel as batches: B samples
// ride one message pair and one extension round, and a single query is a
// batch of one. Two messages per batch instead of four per query, and no
// public-key operations on the query path.
//
// Several batches may be in flight per session — each holds its own
// extension state — as long as the sender answers them in the order they
// were opened: the extension endpoints advance lockstep batch counters,
// so responses must come back FIFO. A single connection with a single
// server worker gives exactly that ordering. Privacy is unchanged: fresh
// masking polynomial and amplifier per sample, fresh covers and genuine
// positions per sample, and the extension hides the genuine indices
// exactly as the base OT does.

// SessionSender serves any number of fast queries for one evaluator.
type SessionSender struct {
	params Params
	eval   Evaluator
	iknp   *ot.IKNPSender
}

// SessionReceiver issues fast queries.
type SessionReceiver struct {
	params Params
	iknp   *ot.IKNPReceiver
}

// NewSessionReceiverBase starts a session from the receiver side,
// returning the IKNP base setup to send to the sender.
func NewSessionReceiverBase(params Params, rng io.Reader) (*SessionReceiver, *ot.BatchSetup, error) {
	if err := params.Validate(); err != nil {
		return nil, nil, err
	}
	iknp, setup, err := ot.NewIKNPReceiverBase(params.Group, rng)
	if err != nil {
		return nil, nil, err
	}
	return &SessionReceiver{params: params, iknp: iknp}, setup, nil
}

// NewSessionSenderBase starts a session from the sender side, given the
// receiver's base setup; returns the base choice message.
func NewSessionSenderBase(params Params, eval Evaluator, setup *ot.BatchSetup, rng io.Reader) (*SessionSender, *ot.BatchChoice, error) {
	if eval == nil {
		return nil, nil, fmt.Errorf("%w: nil evaluator", ErrParams)
	}
	if err := params.validateFor(eval.NumVars()); err != nil {
		return nil, nil, err
	}
	iknp, choice, err := ot.NewIKNPSenderBase(params.Group, setup, rng)
	if err != nil {
		return nil, nil, err
	}
	return &SessionSender{params: params, eval: eval, iknp: iknp}, choice, nil
}

// ResumeSessionSender rebuilds a sender session from a snapshotted IKNP
// state instead of running the base phase: the restored extension carries
// its batch counter forward, so the session picks up exactly where the
// snapshotted one stopped and never reuses a PRG column or pad.
func ResumeSessionSender(params Params, eval Evaluator, state *ot.IKNPSenderState) (*SessionSender, error) {
	if eval == nil {
		return nil, fmt.Errorf("%w: nil evaluator", ErrParams)
	}
	if err := params.validateFor(eval.NumVars()); err != nil {
		return nil, err
	}
	iknp, err := ot.RestoreIKNPSender(state)
	if err != nil {
		return nil, err
	}
	return &SessionSender{params: params, eval: eval, iknp: iknp}, nil
}

// ResumeSessionReceiver rebuilds a receiver session from a snapshotted
// IKNP state (see ResumeSessionSender).
func ResumeSessionReceiver(params Params, state *ot.IKNPReceiverState) (*SessionReceiver, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	iknp, err := ot.RestoreIKNPReceiver(state)
	if err != nil {
		return nil, err
	}
	return &SessionReceiver{params: params, iknp: iknp}, nil
}

// Snapshot captures the sender's IKNP position for resumption; it fails
// while the base phase is incomplete.
func (ss *SessionSender) Snapshot() (*ot.IKNPSenderState, error) { return ss.iknp.Snapshot() }

// Snapshot captures the receiver's IKNP position for resumption.
func (sr *SessionReceiver) Snapshot() (*ot.IKNPReceiverState, error) { return sr.iknp.Snapshot() }

// FinishBaseReceiver completes the base phase on the receiver side.
func (sr *SessionReceiver) FinishBaseReceiver(choice *ot.BatchChoice, rng io.Reader) (*ot.BatchTransfer, error) {
	return sr.iknp.BaseRespond(choice, rng)
}

// FinishBaseSender completes the base phase on the sender side.
func (ss *SessionSender) FinishBaseSender(tr *ot.BatchTransfer) error {
	return ss.iknp.BaseFinish(tr)
}

// query is one sample's receiver-side secret: its M evaluation points on
// the field's engine (points on math/big, lpoints on limb) and the
// indices of its m genuine pairs. A Receiver holds one, a SessionBatch
// one per sample.
type query struct {
	points  []*big.Int
	lpoints []limb.Element
	genuine []int
}

// interpolateQueries decodes every sample's transferred values and
// recovers each amp·P(α) by Lagrange interpolation at zero, in sample
// order. The one-shot Receiver calls it with a batch of one.
func interpolateQueries(params Params, qs []query, raw [][][]byte) ([]*big.Int, error) {
	out := make([]*big.Int, len(raw))
	if !params.limbBackend() {
		for i := range raw {
			v, err := interpolateTransferred(params.Field, raw[i], qs[i].points, qs[i].genuine)
			if err != nil {
				return nil, fmt.Errorf("ompe: sample %d: %w", i, err)
			}
			out[i] = v
		}
		return out, nil
	}
	// Decode every sample, then interpolate the whole batch with one
	// shared field inversion — the inversion is the dominant
	// interpolation cost, so it must not be paid per sample.
	total := 0
	for i := range raw {
		total += len(raw[i])
	}
	flat := make([]limb.Element, 2*total)
	nodes := make([]poly.LimbNodes, len(raw))
	off := 0
	for i := range raw {
		m := len(raw[i])
		xs := flat[off : off+m]
		ys := flat[total+off : total+off+m]
		for j, bs := range raw[i] {
			if err := ys[j].SetBytes(bs); err != nil {
				return nil, fmt.Errorf("ompe: sample %d: transferred value %d: %w", i, j, err)
			}
			xs[j] = qs[i].lpoints[qs[i].genuine[j]]
		}
		nodes[i] = poly.LimbNodes{Xs: xs, Ys: ys}
		off += m
	}
	res := make([]limb.Element, len(raw))
	var ip poly.LimbInterpolator
	if err := ip.AtZeroBatch(nodes, res); err != nil {
		return nil, err
	}
	for i := range res {
		out[i] = res[i].ToBig()
	}
	return out, nil
}

// interpolateTransferred is interpolateQueries' math/big step for one
// sample.
func interpolateTransferred(f *field.Field, raw [][]byte, points []*big.Int, index []int) (*big.Int, error) {
	pts := make([]poly.Point, len(raw))
	for i, b := range raw {
		y, err := f.FromBytes(b)
		if err != nil {
			return nil, fmt.Errorf("transferred value %d: %w", i, err)
		}
		pts[i] = poly.Point{X: points[index[i]], Y: y}
	}
	return poly.InterpolateAtZero(f, pts)
}

// The receiver builds B independent cover/decoy constructions (serial
// randomness, so wire bytes stay deterministic under a fixed rng at any
// worker count) and opens one k-of-n transfer per sample over a single IKNP
// extension round. The sender draws B fresh (mask, amplifier) pairs —
// per-sample masks are independent, so each sample's privacy argument is
// exactly that of one query; batching shares only the (index-hiding)
// extension.

// FastBatchRequest is the receiver's single message for B samples.
type FastBatchRequest struct {
	Evals []*EvalRequest
	OT    *ot.ExtKofNBatchRequest
}

// FastBatchResponse is the sender's single message for B samples.
type FastBatchResponse struct {
	OT *ot.ExtKofNBatchResponse
}

// SessionBatch is one in-flight batched query on the receiver side.
type SessionBatch struct {
	sr      *SessionReceiver
	queries []query
	ext     *ot.ExtKofNBatchQuery
}

// NewBatch opens one batched query covering all inputs.
func (sr *SessionReceiver) NewBatch(inputs []field.Vec, rng io.Reader) (*SessionBatch, *FastBatchRequest, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	evals := make([]*EvalRequest, len(inputs))
	queries := make([]query, len(inputs))
	genuine := make([][]int, len(inputs))
	for i, input := range inputs {
		recv, req, err := NewReceiver(sr.params, input, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("ompe: batch sample %d: %w", i, err)
		}
		evals[i] = req
		queries[i] = recv.query
		genuine[i] = recv.genuine
	}
	ext, otReq, err := ot.NewExtKofNBatchQuery(sr.iknp, sr.params.TotalPairs(), genuine)
	if err != nil {
		return nil, nil, err
	}
	b := &SessionBatch{sr: sr, queries: queries, ext: ext}
	return b, &FastBatchRequest{Evals: evals, OT: otReq}, nil
}

// senderMask bundles one sample's serially-drawn sender randomness (the
// amplifier and the masking polynomial, on whichever field engine the
// session runs) so the pure evaluation half can run on any worker.
type senderMask struct {
	amp   *big.Int
	hBig  *poly.Poly
	hLimb *poly.LimbPoly
}

// drawSenderMask draws one sample's amplifier, unless pinned is set, and
// then its masking polynomial from rng. Every sender role draws through
// it, serially and in sample order, which keeps wire bytes bit-identical
// at every worker count.
func drawSenderMask(params Params, pinned *big.Int, rng io.Reader) (senderMask, error) {
	var m senderMask
	if pinned != nil {
		m.amp = new(big.Int).Set(pinned)
	} else {
		amp, err := sampleAmplifier(rng, params.amplifierBitsOrDefault())
		if err != nil {
			return m, err
		}
		m.amp = amp
	}
	if params.limbBackend() {
		var zero limb.Element
		h, err := poly.RandomLimb(rng, params.ComposedDegree(), &zero)
		if err != nil {
			return m, err
		}
		m.hLimb = h
		return m, nil
	}
	f := params.Field
	h, err := poly.Random(f, rng, params.ComposedDegree(), f.Zero())
	if err != nil {
		return m, err
	}
	m.hBig = h
	return m, nil
}

// maskedSampleWith computes one sample's masked evaluations on the
// field's engine, given a pre-drawn senderMask.
func maskedSampleWith(params Params, eval Evaluator, m senderMask, shift *big.Int, req *EvalRequest) ([][]byte, error) {
	if params.limbBackend() {
		return maskedSampleLimbWith(params, eval, m.hLimb, m.amp, shift, req)
	}
	return maskedEvaluations(params, eval, m.hBig, m.amp, shift, req)
}

// HandleBatch answers one batched query. Randomness (per-sample mask,
// amplifier, and transfer keys) is drawn serially in sample order; the
// pure-arithmetic masked evaluations then fan the B samples out across
// the worker pool, and each sample's pairs out again inside its worker.
func (ss *SessionSender) HandleBatch(req *FastBatchRequest, rng io.Reader) (*FastBatchResponse, error) {
	if req == nil || req.OT == nil || len(req.Evals) == 0 {
		return nil, fmt.Errorf("%w: nil fast batch request", ErrBadRequest)
	}
	if len(req.Evals) != req.OT.B {
		return nil, fmt.Errorf("%w: %d eval requests for OT batch of %d", ErrBadRequest, len(req.Evals), req.OT.B)
	}
	// The sender fixes the transfer's shape itself: a query for more than
	// m of the M pairs would let the client interpolate two cover tuples
	// under one amplifier and divide it out.
	if req.OT.K != ss.params.GenuineCount() || req.OT.N != ss.params.TotalPairs() {
		return nil, fmt.Errorf("%w: OT shape %d-of-%d, want %d-of-%d", ErrBadRequest, req.OT.K, req.OT.N, ss.params.GenuineCount(), ss.params.TotalPairs())
	}
	span := obs.Start(obs.PhaseSenderMask)
	masks := make([]senderMask, len(req.Evals))
	for i, eval := range req.Evals {
		if eval == nil {
			return nil, fmt.Errorf("%w: nil eval request %d", ErrBadRequest, i)
		}
		if err := validateEvalRequest(ss.params, ss.eval.NumVars(), eval); err != nil {
			return nil, fmt.Errorf("ompe: batch sample %d: %w", i, err)
		}
		m, err := drawSenderMask(ss.params, nil, rng)
		if err != nil {
			return nil, err
		}
		masks[i] = m
	}
	msgs := make([][][]byte, len(req.Evals))
	err := parallel.For(len(req.Evals), func(i int) error {
		sample, err := maskedSampleWith(ss.params, ss.eval, masks[i], zeroShift, req.Evals[i])
		if err != nil {
			return err
		}
		msgs[i] = sample
		return nil
	})
	span.End()
	if err != nil {
		return nil, err
	}
	otResp, err := ot.ExtKofNBatchRespond(ss.iknp, req.OT, msgs, rng)
	if err != nil {
		return nil, err
	}
	return &FastBatchResponse{OT: otResp}, nil
}

// Finish recovers every sample's amp·P(α), in batch order.
func (b *SessionBatch) Finish(resp *FastBatchResponse) ([]*big.Int, error) {
	if resp == nil || resp.OT == nil {
		return nil, fmt.Errorf("%w: nil fast batch response", ErrBadRequest)
	}
	raw, err := b.ext.Recover(resp.OT)
	if err != nil {
		return nil, err
	}
	span := obs.Start(obs.PhaseReceiverInterpolate)
	defer span.End()
	return interpolateQueries(b.sr.params, b.queries, raw)
}
