package ompe

import "io"

// In-memory session helpers for the tests: both parties in one process,
// every message handed straight across (Run is the one-shot driver).

// NewSession runs the base phase in memory and returns a paired session.
func NewSession(params Params, eval Evaluator, rng io.Reader) (*SessionSender, *SessionReceiver, error) {
	receiver, setup, err := NewSessionReceiverBase(params, rng)
	if err != nil {
		return nil, nil, err
	}
	sender, choice, err := NewSessionSenderBase(params, eval, setup, rng)
	if err != nil {
		return nil, nil, err
	}
	tr, err := receiver.FinishBaseReceiver(choice, rng)
	if err != nil {
		return nil, nil, err
	}
	if err := sender.FinishBaseSender(tr); err != nil {
		return nil, nil, err
	}
	return sender, receiver, nil
}

// Len returns the number of samples in the batch.
func (b *SessionBatch) Len() int { return len(b.queries) }
