package ompe

import (
	"fmt"
	"io"
	"math/big"
	"math/bits"

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
	// Every result's big.Int and words come from one slab each.
	const w = limb.ElementLen / (bits.UintSize / 8)
	ints := make([]big.Int, len(res))
	words := make([]big.Word, len(res)*w)
	var buf [limb.ElementLen]byte
	for i := range res {
		res[i].PutBytes(buf[:])
		out[i] = ints[i].SetBits(words[i*w : i*w : (i+1)*w]).SetBytes(buf[:])
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

// The receiver builds B independent cover/decoy constructions and opens
// one k-of-n transfer per sample over a single IKNP extension round; the
// sender draws B fresh (mask, amplifier) pairs — per-sample masks are
// independent, so each sample's privacy argument is exactly that of one
// query; batching shares only the (index-hiding) extension. Each side
// runs one fan-out per batch: the receiver's over samples, every draw in
// its ordered section, and the sender's over every (sample, pair) unit,
// after drawing serially. Draws stay in sample order, so wire bytes are
// deterministic under a fixed rng at any worker count.

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

// batchBuild is one batch's receiver-side construction, and the one-shot
// receiver's as a batch of one. Every per-sample object comes from one
// slab per kind, made fresh for the batch, sample s owning the s-th run
// of each; the n-sized intermediates live in per-worker scratch instead.
type batchBuild struct {
	params  Params
	inputs  []field.Vec
	d       *drawer // read only inside the ordered draw section
	seeds   []byte
	packed  []byte
	perm    []int
	points  []limb.Element // limb engine only
	evals   []EvalRequest
	queries []query
}

// newBatchBuild allocates the slabs for inputs, which checkInput accepted
// and which share one width.
func newBatchBuild(params Params, inputs []field.Vec, rng io.Reader) *batchBuild {
	B, total := len(inputs), params.TotalPairs()
	b := &batchBuild{
		params:  params,
		inputs:  inputs,
		d:       newDrawer(rng),
		seeds:   make([]byte, B*ot.SeedLen),
		packed:  make([]byte, B*total*packedStride(params.Field, len(inputs[0]))),
		perm:    make([]int, B*total),
		evals:   make([]EvalRequest, B),
		queries: make([]query, B),
	}
	if params.limbBackend() {
		b.points = make([]limb.Element, B*total)
	}
	return b
}

// seed, records and perms return sample s's runs of their slabs.
func (b *batchBuild) seed(s int) []byte {
	return b.seeds[s*ot.SeedLen : (s+1)*ot.SeedLen : (s+1)*ot.SeedLen]
}

func (b *batchBuild) records(s int) []byte {
	n := len(b.packed) / len(b.inputs)
	return b.packed[s*n : (s+1)*n : (s+1)*n]
}

func (b *batchBuild) perms(s int) []int {
	total := b.params.TotalPairs()
	return b.perm[s*total : (s+1)*total]
}

// request returns sample s's evaluation request.
func (b *batchBuild) request(s int) *EvalRequest {
	b.evals[s] = EvalRequest{Seed: b.seed(s), Packed: b.records(s)}
	return &b.evals[s]
}

// A sample's construction runs in three steps on one worker: draw, its
// every rng read (in the ordered section on a batch); prep, which
// expands its points; and one recordX call per genuine pair j, which
// writes the pair's cover tuple. A batch runs the records on the
// sample's worker (buildX); the one-shot receiver fans them out.

func (b *batchBuild) newLimbScratch() *limbScratch { return newLimbScratch(b.params, len(b.inputs[0])) }

func (b *batchBuild) drawLimb(sc *limbScratch, s int) error {
	genuine, err := sc.draw(b.params, b.d, b.seed(s), b.perms(s), b.records(s))
	if err != nil {
		return err
	}
	total := b.params.TotalPairs()
	b.queries[s] = query{lpoints: b.points[s*total : (s+1)*total], genuine: genuine}
	return nil
}

func (b *batchBuild) prepLimb(sc *limbScratch, s int) error {
	sc.setInput(b.inputs[s])
	return sc.pts.expand(b.queries[s].lpoints, b.seed(s))
}

// recordLimb writes sample s's genuine record j, with pow as its q
// elements of power-table scratch.
func (b *batchBuild) recordLimb(sc *limbScratch, pow []limb.Element, s, j int) {
	q := b.queries[s]
	i, stride := q.genuine[j], len(sc.lin)*limb.ElementLen
	coverRecord(b.records(s)[i*stride:(i+1)*stride], sc.lin, sc.covers, pow, &q.lpoints[i])
}

func (b *batchBuild) buildLimb(sc *limbScratch, s int) error {
	if err := b.prepLimb(sc, s); err != nil {
		return err
	}
	for j := range b.queries[s].genuine {
		b.recordLimb(sc, sc.pow, s, j)
	}
	sc.decoySpan.End()
	return nil
}

func (b *batchBuild) newBigScratch() *bigScratch { return newBigScratch(b.params, len(b.inputs[0])) }

func (b *batchBuild) drawBig(sc *bigScratch, s int) error {
	genuine, err := sc.draw(b.params, b.d, b.inputs[s], b.seed(s), b.perms(s), b.records(s))
	if err != nil {
		return err
	}
	b.queries[s].genuine = genuine
	return nil
}

func (b *batchBuild) prepBig(_ *bigScratch, s int) error {
	points, err := expandPoints(b.params.Field, b.params.TotalPairs(), b.seed(s))
	b.queries[s].points = points
	return err
}

func (b *batchBuild) recordBig(sc *bigScratch, s, j int) {
	q := b.queries[s]
	sc.record(b.params.Field, b.records(s), q.points, q.genuine[j])
}

func (b *batchBuild) buildBig(sc *bigScratch, s int) error {
	if err := b.prepBig(sc, s); err != nil {
		return err
	}
	for j := range b.queries[s].genuine {
		b.recordBig(sc, s, j)
	}
	sc.decoySpan.End()
	return nil
}

// sampleErr labels draw's errors with their batch sample.
func sampleErr[S any](draw func(S, int) error) func(S, int) error {
	return func(sc S, s int) error {
		if err := draw(sc, s); err != nil {
			return fmt.Errorf("ompe: batch sample %d: %w", s, err)
		}
		return nil
	}
}

// NewBatch opens one batched query covering all inputs, which must share
// one width. It runs one fan-out over the samples: a sample's draws run
// in the ordered section, in sample order, into its worker's scratch,
// and its genuine records are then evaluated on that worker.
func (sr *SessionReceiver) NewBatch(inputs []field.Vec, rng io.Reader) (*SessionBatch, *FastBatchRequest, error) {
	if len(inputs) == 0 {
		return nil, nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	params := sr.params
	for i, input := range inputs {
		if err := checkInput(params, input); err != nil {
			return nil, nil, fmt.Errorf("ompe: batch sample %d: %w", i, err)
		}
		if len(input) != len(inputs[0]) {
			return nil, nil, fmt.Errorf("%w: batch sample %d has %d components, sample 0 has %d", ErrParams, i, len(input), len(inputs[0]))
		}
	}
	b := newBatchBuild(params, inputs, rng)
	var err error
	if params.limbBackend() {
		err = parallel.Ordered(len(inputs), b.newLimbScratch, sampleErr(b.drawLimb), b.buildLimb)
	} else {
		err = parallel.Ordered(len(inputs), b.newBigScratch, sampleErr(b.drawBig), b.buildBig)
	}
	if err != nil {
		return nil, nil, err
	}
	evals := make([]*EvalRequest, len(inputs))
	genuine := make([][]int, len(inputs))
	for s := range evals {
		evals[s] = b.request(s)
		genuine[s] = b.queries[s].genuine
	}
	ext, otReq, err := ot.NewExtKofNBatchQuery(sr.iknp, params.TotalPairs(), genuine)
	if err != nil {
		return nil, nil, err
	}
	batch := &SessionBatch{sr: sr, queries: b.queries, ext: ext}
	return batch, &FastBatchRequest{Evals: evals, OT: otReq}, nil
}

// senderMask is one sample's serially-drawn sender randomness on the
// math/big engine, the amplifier and the masking polynomial, so the pure
// evaluation half can run on any worker.
type senderMask struct {
	amp *big.Int
	h   *poly.Poly
}

// drawSenderMask is drawLimbMasks' draw of one sample on the math/big
// engine: the amplifier, unless pinned is set, and then h.
func drawSenderMask(params Params, pinned *big.Int, rng io.Reader) (senderMask, error) {
	m := senderMask{amp: pinned}
	if pinned == nil {
		amp, err := newDrawer(rng).amplifier(params.amplifierBitsOrDefault())
		if err != nil {
			return m, err
		}
		m.amp = amp
	}
	f := params.Field
	h, err := poly.Random(f, rng, params.ComposedDegree(), f.Zero())
	if err != nil {
		return m, err
	}
	m.h = h
	return m, nil
}

// maskOne is the sender core on a batch of one, for the one-shot roles:
// it draws the mask (a pinned amplifier, if set, in place of the
// amplifier draw), computes the request's masked evaluations on the
// field's engine in one fan-out over its pairs, and returns them with
// the amplifier it used.
func maskOne(params Params, eval Evaluator, pinned, shift *big.Int, req *EvalRequest, rng io.Reader) ([][]byte, *big.Int, error) {
	reqs := []*EvalRequest{req}
	if params.limbBackend() {
		lm, err := drawLimbMasks(params, reqs, pinned, rng)
		if err != nil {
			return nil, nil, err
		}
		lm.shift.SetBigReduce(shift)
		msgs, err := maskLimb(params, eval, reqs, lm)
		if err != nil {
			return nil, nil, err
		}
		amp := pinned
		if amp == nil {
			// A drawn amplifier is below 2^(Field.Bits()−2), so its
			// element is the drawn integer.
			amp = lm.amps[0].ToBig()
		}
		return msgs[0], amp, nil
	}
	m, err := drawSenderMask(params, pinned, rng)
	if err != nil {
		return nil, nil, err
	}
	points, err := expandPoints(params.Field, params.TotalPairs(), req.Seed)
	if err != nil {
		return nil, nil, err
	}
	msgs, err := maskBig(params, eval, reqs, &bigMasks{points: [][]*big.Int{points}, masks: []senderMask{m}, shift: shift})
	if err != nil {
		return nil, nil, err
	}
	return msgs[0], m.amp, nil
}

// HandleBatch answers one batched query. Every request is shape-checked
// first; randomness (per-sample amplifier and masking polynomial) is
// then drawn serially in sample order, and the masked evaluations run in
// one fan-out over every (sample, pair) unit of the batch, each unit
// parsing, validating and evaluating its own record.
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
	for i, eval := range req.Evals {
		if err := validateEvalRequest(ss.params, ss.eval.NumVars(), eval); err != nil {
			return nil, fmt.Errorf("ompe: batch sample %d: %w", i, err)
		}
	}
	span := obs.Start(obs.PhaseSenderMask)
	msgs, err := ss.maskBatch(req.Evals, rng)
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

// maskBatch draws every sample's mask and computes the batch's masked
// evaluations on the field's engine.
func (ss *SessionSender) maskBatch(reqs []*EvalRequest, rng io.Reader) ([][][]byte, error) {
	if ss.params.limbBackend() {
		lm, err := drawLimbMasks(ss.params, reqs, nil, rng)
		if err != nil {
			return nil, err
		}
		return maskLimb(ss.params, ss.eval, reqs, lm)
	}
	bm := &bigMasks{masks: make([]senderMask, len(reqs)), points: make([][]*big.Int, len(reqs)), shift: zeroShift}
	for s, req := range reqs {
		m, err := drawSenderMask(ss.params, nil, rng)
		if err != nil {
			return nil, err
		}
		bm.masks[s] = m
		if bm.points[s], err = expandPoints(ss.params.Field, ss.params.TotalPairs(), req.Seed); err != nil {
			return nil, err
		}
	}
	return maskBig(ss.params, ss.eval, reqs, bm)
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
