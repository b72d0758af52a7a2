package ot

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
)

// ErrDuplicateIndex reports repeated indices in a k-out-of-n choice.
var ErrDuplicateIndex = errors.New("ot: duplicate choice index")

// A k-out-of-n transfer is one batch of k Naor–Pinkas 1-out-of-n
// instances over the same n messages (honest-but-curious; see package
// doc): n−1 constraints and one r serve all k, and the slot i·n + j keeps
// the instances' pads apart. A 1-out-of-n is the batch of one.

// NewBatchSender prepares a k-out-of-n transfer of the given messages.
func NewBatchSender(group Group, msgs [][]byte, k int, rng io.Reader) (*BatchSender, *BatchSetup, error) {
	span := obs.Start(obs.PhaseOTSenderSetup)
	defer span.End()
	if k < 1 || k > len(msgs) {
		return nil, nil, fmt.Errorf("ot: invalid k=%d for n=%d", k, len(msgs))
	}
	if err := checkMessages(msgs); err != nil {
		return nil, nil, err
	}
	// One defensive copy of the messages, shared read-only by all k
	// instances.
	copied := make([][]byte, len(msgs))
	for i, m := range msgs {
		copied[i] = append([]byte(nil), m...)
	}
	perInstance := make([][][]byte, k)
	for i := range perInstance {
		perInstance[i] = copied
	}
	s, setup, err := newBatchSender(group, perInstance, rng)
	if err != nil {
		return nil, nil, err
	}
	obs.Add(obs.CtrOTInstances, int64(k))
	return s, setup, nil
}

// Respond consumes the receiver's batched choice, which must carry one
// public key per instance.
func (s *BatchSender) Respond(choice *BatchChoice, rng io.Reader) (*BatchTransfer, error) {
	span := obs.Start(obs.PhaseOTSenderRespond)
	defer span.End()
	if choice == nil {
		return nil, fmt.Errorf("%w: missing choice", ErrBadMessage)
	}
	return s.respond(choice.PK0s, rng)
}

// NewBatchReceiver prepares the receiver's choice of 1 ≤ k ≤ n distinct
// indices among n messages of msgLen bytes each.
func NewBatchReceiver(group Group, n, msgLen int, indices []int, setup *BatchSetup, rng io.Reader) (*BatchReceiver, *BatchChoice, error) {
	span := obs.Start(obs.PhaseOTReceiverChoice)
	defer span.End()
	if err := checkKofNIndices(n, indices); err != nil {
		return nil, nil, err
	}
	return newBatchReceiver(group, n, msgLen, indices, setup, rng)
}

// Recover decrypts the k chosen messages, in choice order. The transfer
// must carry exactly k·n ciphertexts of msgLen bytes.
func (rc *BatchReceiver) Recover(tr *BatchTransfer) ([][]byte, error) {
	span := obs.Start(obs.PhaseOTReceiverRecover)
	defer span.End()
	return rc.recover(tr)
}

// TransferKofN runs a complete in-memory k-out-of-n transfer; with one
// index it is the paper's 1-out-of-n (§III-B).
func TransferKofN(group Group, msgs [][]byte, indices []int, rng io.Reader) ([][]byte, error) {
	sender, setup, err := NewBatchSender(group, msgs, len(indices), rng)
	if err != nil {
		return nil, err
	}
	receiver, choice, err := NewBatchReceiver(group, len(msgs), len(msgs[0]), indices, setup, rng)
	if err != nil {
		return nil, err
	}
	tr, err := sender.Respond(choice, rng)
	if err != nil {
		return nil, err
	}
	return receiver.Recover(tr)
}
