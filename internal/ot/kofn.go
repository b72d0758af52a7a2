package ot

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
)

// ErrDuplicateIndex reports repeated indices in a k-out-of-n choice.
var ErrDuplicateIndex = errors.New("ot: duplicate choice index")

// BatchSetup carries the one set of constraints the k instances of a
// k-out-of-n transfer share.
type BatchSetup struct {
	Setup *SenderSetup
}

// BatchChoice carries the receiver's k public keys.
type BatchChoice struct {
	Choices []*ReceiverChoice
}

// BatchTransfer carries the one R and the k·n ciphertexts, instance i's
// message j at slot i·n + j.
type BatchTransfer struct {
	Transfer *SenderTransfer
}

// BatchSender runs the sender role of a k-out-of-n transfer as one batch
// of k Naor–Pinkas 1-out-of-n instances over the same n messages
// (honest-but-curious; see package doc): n−1 constraints and one r serve
// all k, and the slot i·n + j keeps the instances' pads apart.
type BatchSender struct {
	sender *Sender
}

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
	copied := copyMessages(msgs)
	perInstance := make([][][]byte, k)
	for i := range perInstance {
		perInstance[i] = copied
	}
	s, err := drawSender(group, perInstance, rng)
	if err != nil {
		return nil, nil, err
	}
	setup, err := setupFor(s)
	if err != nil {
		return nil, nil, err
	}
	obs.Add(obs.CtrOTInstances, int64(k))
	return &BatchSender{sender: s}, &BatchSetup{Setup: setup}, nil
}

// Respond consumes the receiver's batched choice, which must carry one
// public key per instance.
func (bs *BatchSender) Respond(choice *BatchChoice, rng io.Reader) (*BatchTransfer, error) {
	span := obs.Start(obs.PhaseOTSenderRespond)
	defer span.End()
	if choice == nil {
		return nil, fmt.Errorf("%w: missing choice", ErrBadMessage)
	}
	tr, err := respondAll(bs.sender, choice.Choices, rng)
	if err != nil {
		return nil, err
	}
	return &BatchTransfer{Transfer: tr}, nil
}

// BatchReceiver runs the receiver role of a k-out-of-n transfer.
type BatchReceiver struct {
	receiver *Receiver
}

// NewBatchReceiver prepares the receiver's choice of the (distinct) indices
// among n messages.
func NewBatchReceiver(group Group, n int, indices []int, setup *BatchSetup, rng io.Reader) (*BatchReceiver, *BatchChoice, error) {
	span := obs.Start(obs.PhaseOTReceiverChoice)
	defer span.End()
	if setup == nil {
		return nil, nil, fmt.Errorf("%w: missing setup", ErrBadMessage)
	}
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if seen[idx] {
			return nil, nil, fmt.Errorf("%w: %d", ErrDuplicateIndex, idx)
		}
		seen[idx] = true
	}
	receiver, choices, err := chooseAll(group, n, indices, setup.Setup, rng)
	if err != nil {
		return nil, nil, err
	}
	return &BatchReceiver{receiver: receiver}, &BatchChoice{Choices: choices}, nil
}

// Recover decrypts the k chosen messages, in choice order. The transfer
// must carry exactly k·n ciphertexts.
func (br *BatchReceiver) Recover(tr *BatchTransfer) ([][]byte, error) {
	span := obs.Start(obs.PhaseOTReceiverRecover)
	defer span.End()
	if tr == nil {
		return nil, fmt.Errorf("%w: missing transfer", ErrBadMessage)
	}
	return recoverAll(br.receiver, tr.Transfer)
}

// Transfer1of2 runs a complete in-memory 1-out-of-2 transfer: the receiver
// learns msgs[bit] and nothing about the other message, the sender learns
// nothing about bit. It exists as the paper's base protocol (§III-B step 1)
// and as a convenience for tests and examples.
func Transfer1of2(group Group, msgs [2][]byte, bit int, rng io.Reader) ([]byte, error) {
	return Transfer1ofN(group, [][]byte{msgs[0], msgs[1]}, bit, rng)
}

// Transfer1ofN runs a complete in-memory 1-out-of-n transfer.
func Transfer1ofN(group Group, msgs [][]byte, sigma int, rng io.Reader) ([]byte, error) {
	sender, setup, err := NewSender(group, msgs, rng)
	if err != nil {
		return nil, err
	}
	receiver, choice, err := NewReceiver(group, len(msgs), sigma, setup, rng)
	if err != nil {
		return nil, err
	}
	tr, err := sender.Respond(choice, rng)
	if err != nil {
		return nil, err
	}
	return receiver.Recover(tr)
}

// TransferKofN runs a complete in-memory k-out-of-n transfer.
func TransferKofN(group Group, msgs [][]byte, indices []int, rng io.Reader) ([][]byte, error) {
	sender, setup, err := NewBatchSender(group, msgs, len(indices), rng)
	if err != nil {
		return nil, err
	}
	receiver, choice, err := NewBatchReceiver(group, len(msgs), indices, setup, rng)
	if err != nil {
		return nil, err
	}
	tr, err := sender.Respond(choice, rng)
	if err != nil {
		return nil, err
	}
	return receiver.Recover(tr)
}
