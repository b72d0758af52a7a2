package ot

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
)

// ErrDuplicateIndex reports repeated indices in a k-out-of-n choice.
var ErrDuplicateIndex = errors.New("ot: duplicate choice index")

// BatchSetup carries the setups of the k parallel instances of a
// k-out-of-n transfer.
type BatchSetup struct {
	Setups []*SenderSetup
}

// BatchChoice carries the receiver's k public keys.
type BatchChoice struct {
	Choices []*ReceiverChoice
}

// BatchTransfer carries the k transfers.
type BatchTransfer struct {
	Transfers []*SenderTransfer
}

// BatchSender runs the sender role of a k-out-of-n transfer as k parallel
// 1-out-of-n instances (honest-but-curious; see package doc).
//
// The per-instance exponentiations — the OT bottleneck — are distributed
// across a worker pool (internal/parallel) by the instance-slice steps of
// naorpinkas.go. All randomness is drawn serially before any parallel
// region, so the rng stream and every message are bit-identical at any
// GOMAXPROCS.
type BatchSender struct {
	senders []*Sender
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
	// Each instance is a batch of one with constraints of its own. Draw
	// every instance's constraint randomness serially, instance by
	// instance; only the heavy seed-to-element finish (a subgroup squaring
	// for MODP groups, a scalar multiplication for curves) runs in
	// parallel.
	senders := make([]*Sender, k)
	for i := range senders {
		s, err := drawSender(group, [][][]byte{copied}, rng)
		if err != nil {
			return nil, nil, instanceErr(i, err)
		}
		senders[i] = s
	}
	setups, err := setupsFor(senders)
	if err != nil {
		return nil, nil, err
	}
	obs.Add(obs.CtrOTInstances, int64(k))
	return &BatchSender{senders: senders}, &BatchSetup{Setups: setups}, nil
}

// Respond consumes the receiver's batched choice.
func (bs *BatchSender) Respond(choice *BatchChoice, rng io.Reader) (*BatchTransfer, error) {
	span := obs.Start(obs.PhaseOTSenderRespond)
	defer span.End()
	if choice == nil || len(choice.Choices) != len(bs.senders) {
		return nil, fmt.Errorf("%w: want %d choices", ErrBadMessage, len(bs.senders))
	}
	transfers, err := respondAll(bs.senders, choice.Choices, rng)
	if err != nil {
		return nil, err
	}
	return &BatchTransfer{Transfers: transfers}, nil
}

// BatchReceiver runs the receiver role of a k-out-of-n transfer.
type BatchReceiver struct {
	receivers []*Receiver
}

// NewBatchReceiver prepares the receiver's choice of the (distinct) indices
// among n messages.
func NewBatchReceiver(group Group, n int, indices []int, setup *BatchSetup, rng io.Reader) (*BatchReceiver, *BatchChoice, error) {
	span := obs.Start(obs.PhaseOTReceiverChoice)
	defer span.End()
	if setup == nil || len(setup.Setups) != len(indices) {
		return nil, nil, fmt.Errorf("%w: setup count must equal k", ErrBadMessage)
	}
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if seen[idx] {
			return nil, nil, fmt.Errorf("%w: %d", ErrDuplicateIndex, idx)
		}
		seen[idx] = true
	}
	sigmas := make([][]int, len(indices))
	for i := range sigmas {
		sigmas[i] = indices[i : i+1 : i+1]
	}
	receivers, choices, err := chooseAll(group, n, sigmas, setup.Setups, rng)
	if err != nil {
		return nil, nil, err
	}
	return &BatchReceiver{receivers: receivers}, &BatchChoice{Choices: choices}, nil
}

// Recover decrypts the k chosen messages, in choice order.
func (br *BatchReceiver) Recover(tr *BatchTransfer) ([][]byte, error) {
	span := obs.Start(obs.PhaseOTReceiverRecover)
	defer span.End()
	if tr == nil || len(tr.Transfers) != len(br.receivers) {
		return nil, fmt.Errorf("%w: want %d transfers", ErrBadMessage, len(br.receivers))
	}
	return recoverAll(br.receivers, tr.Transfers)
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
