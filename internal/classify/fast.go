package classify

import (
	"fmt"
	"io"

	"repro/internal/field"
	"repro/internal/ompe"
	"repro/internal/ot"
)

// Fast sessions: one IKNP base phase per (trainer, client) session makes
// every subsequent classification free of public-key operations — two
// messages of field arithmetic and symmetric crypto per batch, and a
// single classification is a batch of one. Privacy guarantees are
// identical to the one-shot path (fresh masks, amplifiers, covers, and
// hidden genuine indices per sample).

// FastTrainer is a trainer-side fast session.
type FastTrainer struct {
	session *ompe.SessionSender
}

// FastClient is a client-side fast session.
type FastClient struct {
	client  *Client
	session *ompe.SessionReceiver
}

// NewFastClient opens a client session from a trainer's public spec,
// returning the base-phase setup message.
func NewFastClient(spec Spec, rng io.Reader) (*FastClient, *ot.BatchSetup, error) {
	client, err := NewClient(spec)
	if err != nil {
		return nil, nil, err
	}
	session, setup, err := ompe.NewSessionReceiverBase(client.params, rng)
	if err != nil {
		return nil, nil, err
	}
	return &FastClient{client: client, session: session}, setup, nil
}

// NewFastSession opens the trainer side of a fast session from a client's
// base setup, returning the base choice message.
func (t *Trainer) NewFastSession(setup *ot.BatchSetup, rng io.Reader) (*FastTrainer, *ot.BatchChoice, error) {
	return t.NewFastSessionFor(t.spec, setup, rng)
}

// NewFastSessionFor opens the trainer side of a fast session bound to a
// session spec: the trainer's own Spec, with the resumption grant set or
// cleared.
func (t *Trainer) NewFastSessionFor(spec Spec, setup *ot.BatchSetup, rng io.Reader) (*FastTrainer, *ot.BatchChoice, error) {
	params, err := t.sessionParams(spec)
	if err != nil {
		return nil, nil, err
	}
	session, choice, err := ompe.NewSessionSenderBase(params, t.eval, setup, rng)
	if err != nil {
		return nil, nil, err
	}
	return &FastTrainer{session: session}, choice, nil
}

// ResumeFastClient rebuilds a client session from a snapshotted OT state
// instead of running the base phase (session resumption: the transport
// pairs this with the server's sealed ticket).
func ResumeFastClient(spec Spec, state *ot.IKNPReceiverState) (*FastClient, error) {
	client, err := NewClient(spec)
	if err != nil {
		return nil, err
	}
	session, err := ompe.ResumeSessionReceiver(client.params, state)
	if err != nil {
		return nil, err
	}
	return &FastClient{client: client, session: session}, nil
}

// ResumeFastSessionFor rebuilds the trainer side of a fast session bound
// to a session spec from a snapshotted OT state (the state a
// sealed resumption ticket carried). The trainer is the CURRENT one: only
// crypto state resumes, never a stale model.
func (t *Trainer) ResumeFastSessionFor(spec Spec, state *ot.IKNPSenderState) (*FastTrainer, error) {
	params, err := t.sessionParams(spec)
	if err != nil {
		return nil, err
	}
	session, err := ompe.ResumeSessionSender(params, t.eval, state)
	if err != nil {
		return nil, err
	}
	return &FastTrainer{session: session}, nil
}

// Snapshot captures the trainer session's OT position for resumption.
func (ft *FastTrainer) Snapshot() (*ot.IKNPSenderState, error) { return ft.session.Snapshot() }

// Snapshot captures the client session's OT position for resumption.
func (fc *FastClient) Snapshot() (*ot.IKNPReceiverState, error) { return fc.session.Snapshot() }

// Spec reports the session spec the client was built from.
func (fc *FastClient) Spec() Spec { return fc.client.Spec() }

// FinishBase completes the client's base phase.
func (fc *FastClient) FinishBase(choice *ot.BatchChoice, rng io.Reader) (*ot.BatchTransfer, error) {
	return fc.session.FinishBaseReceiver(choice, rng)
}

// FinishBase completes the trainer's base phase.
func (ft *FastTrainer) FinishBase(tr *ot.BatchTransfer) error {
	return ft.session.FinishBaseSender(tr)
}

// FastBatch is one in-flight batched query on a fast client: B samples,
// one message pair, one OT-extension round.
type FastBatch struct {
	client *Client
	b      *ompe.SessionBatch
}

// NewBatch opens one batched classification query covering all samples,
// returning the single request message. Batches may overlap in flight as
// long as responses return in request order.
func (fc *FastClient) NewBatch(samples [][]float64, rng io.Reader) (*FastBatch, *ompe.FastBatchRequest, error) {
	if len(samples) == 0 {
		return nil, nil, fmt.Errorf("classify: empty batch")
	}
	inputs := make([]field.Vec, len(samples))
	for i, sample := range samples {
		input, err := fc.client.EncodeSample(sample)
		if err != nil {
			return nil, nil, fmt.Errorf("classify: batch sample %d: %w", i, err)
		}
		inputs[i] = input
	}
	b, req, err := fc.session.NewBatch(inputs, rng)
	if err != nil {
		return nil, nil, err
	}
	return &FastBatch{client: fc.client, b: b}, req, nil
}

// HandleBatch answers one batched query on the trainer side.
func (ft *FastTrainer) HandleBatch(req *ompe.FastBatchRequest, rng io.Reader) (*ompe.FastBatchResponse, error) {
	return ft.session.HandleBatch(req, rng)
}

// Finish completes a batch, returning the ±1 labels in sample order.
func (fb *FastBatch) Finish(resp *ompe.FastBatchResponse) ([]int, error) {
	values, err := fb.b.Finish(resp)
	if err != nil {
		return nil, err
	}
	labels := make([]int, len(values))
	for i, v := range values {
		label, err := fb.client.Interpret(v)
		if err != nil {
			return nil, fmt.Errorf("classify: batch sample %d: %w", i, err)
		}
		labels[i] = label
	}
	return labels, nil
}

// ClassifyFastBatch runs one complete batched classification in memory.
func ClassifyFastBatch(ft *FastTrainer, fc *FastClient, samples [][]float64, rng io.Reader) ([]int, error) {
	batch, req, err := fc.NewBatch(samples, rng)
	if err != nil {
		return nil, err
	}
	resp, err := ft.HandleBatch(req, rng)
	if err != nil {
		return nil, fmt.Errorf("classify: fast batch: %w", err)
	}
	return batch.Finish(resp)
}

// NewFastPair runs the base phase in memory and returns a paired session
// (single-process use and benchmarks).
func NewFastPair(t *Trainer, rng io.Reader) (*FastTrainer, *FastClient, error) {
	fc, setup, err := NewFastClient(t.Spec(), rng)
	if err != nil {
		return nil, nil, err
	}
	ft, choice, err := t.NewFastSession(setup, rng)
	if err != nil {
		return nil, nil, err
	}
	tr, err := fc.FinishBase(choice, rng)
	if err != nil {
		return nil, nil, err
	}
	if err := ft.FinishBase(tr); err != nil {
		return nil, nil, err
	}
	return ft, fc, nil
}
