package ot

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/obs"
)

// ErrDuplicateIndex reports repeated indices in a k-out-of-n choice.
var ErrDuplicateIndex = errors.New("ot: duplicate choice index")

// A k-out-of-n transfer is one batch of k Naor–Pinkas 1-out-of-n random
// OTs over the same n messages (honest-but-curious; see package doc): n−1
// constraints and one r serve all k, and instance i's slot keys are
// bound to slots i·n + m. Each message is sent once, under a pad of its
// message key K_m, which is instance 0's slot key for m; every other
// instance i carries K_m padded under its own slot key i·n + m. The
// transfer's Cts is the once-sent block sealOnceSent writes, the layout
// the extended k-of-n's samples share (extkofn.go):
//
//	[0, (k−1)·n·16)               instance i ≥ 1's K_m at [((i−1)·n+m)·16, +16)
//	[(k−1)·n·16, (k−1)·n·16 + n·w) message m under K_m at (k−1)·n·16 + m·w
//
// A receiver holds one slot key per instance, so it opens one K_m per
// instance, directly in instance 0, and at most k messages, as in
// extkofn.go. Against k copies of every message the layout saves
// (k−1)·n·(w−16) bytes: it is smaller at every k ≥ 2 once w > 16, and
// the same n·w bytes at k = 1, the 1-out-of-n, which sends the n
// messages alone.

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
	s, setup, err := newBatchSender(group, len(msgs), k, rng)
	if err != nil {
		return nil, nil, err
	}
	// One defensive copy of the messages, sent once whatever k is.
	s.msgs = make([][]byte, len(msgs))
	for i, m := range msgs {
		s.msgs[i] = append([]byte(nil), m...)
	}
	obs.Add(obs.CtrOTInstances, int64(k))
	return s, setup, nil
}

// Respond consumes the receiver's batched choice, which must carry one
// public key per instance, and sends every message once.
func (s *BatchSender) Respond(choice *BatchChoice, rng io.Reader) (*BatchTransfer, error) {
	span := obs.Start(obs.PhaseOTSenderRespond)
	defer span.End()
	if choice == nil {
		return nil, fmt.Errorf("%w: missing choice", ErrBadMessage)
	}
	bigR, slotKeys, err := s.respond(choice.PK0s, rng)
	if err != nil {
		return nil, err
	}
	cts := make([]byte, len(slotKeys)-s.n*treeKeyLen+s.n*len(s.msgs[0]))
	sealOnceSent(cts, slotKeys, s.msgs)
	return &BatchTransfer{R: bigR, Cts: cts}, nil
}

// NewBatchReceiver prepares the receiver's choice of 1 ≤ k ≤ n distinct
// indices among n messages of msgLen bytes each.
func NewBatchReceiver(group Group, n, msgLen int, indices []int, setup *BatchSetup, rng io.Reader) (*BatchReceiver, *BatchChoice, error) {
	span := obs.Start(obs.PhaseOTReceiverChoice)
	defer span.End()
	if err := checkKofNIndices(n, indices); err != nil {
		return nil, nil, err
	}
	rc, choice, err := newBatchReceiver(group, n, indices, setup, rng)
	if err != nil {
		return nil, nil, err
	}
	rc.msgLen = msgLen
	return rc, choice, nil
}

// Recover decrypts the k chosen messages, in choice order. The transfer
// must carry exactly (k−1)·n·16 + n·msgLen ciphertext bytes; any other
// length is refused before anything is sized by it.
func (rc *BatchReceiver) Recover(tr *BatchTransfer) ([][]byte, error) {
	span := obs.Start(obs.PhaseOTReceiverRecover)
	defer span.End()
	if tr == nil {
		return nil, instanceErr(0, fmt.Errorf("%w: missing transfer", ErrBadMessage))
	}
	k, n, w := len(rc.sigmas), rc.n, rc.msgLen
	if want := (k-1)*n*treeKeyLen + n*w; len(tr.Cts) != want {
		return nil, instanceErr(0, fmt.Errorf("%w: %d ciphertext bytes, want (k−1)·n·16 + n·w = %d", ErrBadMessage, len(tr.Cts), want))
	}
	keys, err := rc.recover(tr.R)
	if err != nil {
		return nil, err
	}
	flat := make([]byte, k*w)
	out := make([][]byte, k)
	s := mmoPool.Get().(*mmoScratch)
	for i, sigma := range rc.sigmas {
		out[i] = flat[i*w : (i+1)*w : (i+1)*w]
		s.openOnceSent(out[i], tr.Cts, (*[treeKeyLen]byte)(keys[i*treeKeyLen:]), n, i, sigma)
	}
	mmoPool.Put(s)
	return out, nil
}

// sealOnceSent writes the once-sent block of one k-of-n transfer into dst,
// (k−1)·n·16 + n·w bytes for n messages of w bytes, given the k·n 16-byte
// pad seeds, instance i's for message m at seeds[(i·n+m)·16:]: the slot
// keys of a Naor–Pinkas batch, or the path digests of one extended
// sample's trees (extkofn.go). Instance 0's seed for m is the message key
// K_m. Instance i ≥ 1's copy of K_m, padded under its own seed, goes at
// [((i−1)·n+m)·16, +16), then message m under K_m at (k−1)·n·16 + m·w.
func sealOnceSent(dst, seeds []byte, msgs [][]byte) {
	n, w := len(msgs), len(msgs[0])
	treeBytes := len(seeds) - n*treeKeyLen
	s := mmoPool.Get().(*mmoScratch)
	for slot := n; slot < len(seeds)/treeKeyLen; slot++ {
		m := slot % n
		s.xorPad(dst[(slot-n)*treeKeyLen:(slot-n+1)*treeKeyLen], seeds[m*treeKeyLen:(m+1)*treeKeyLen],
			(*[treeKeyLen]byte)(seeds[slot*treeKeyLen:]), m, padDomainTree)
	}
	for m, msg := range msgs {
		s.xorPad(dst[treeBytes+m*w:treeBytes+(m+1)*w], msg, (*[treeKeyLen]byte)(seeds[m*treeKeyLen:]), m, padDomainMsg)
	}
	mmoPool.Put(s)
}

// openOnceSent decrypts message idx of a once-sent block into dst
// (len(dst) = w), given seed, the pad seed instance i holds for idx: in
// instance 0 the seed is K_idx itself, and any other instance opens K_idx
// from its slot with it; then the message opens with K_idx.
func (s *mmoScratch) openOnceSent(dst, block []byte, seed *[treeKeyLen]byte, n, i, idx int) {
	w := len(dst)
	treeBytes := len(block) - n*w
	key := *seed
	if i > 0 {
		slot := (i-1)*n + idx
		s.xorPad(key[:], block[slot*treeKeyLen:(slot+1)*treeKeyLen], seed, idx, padDomainTree)
	}
	s.xorPad(dst, block[treeBytes+idx*w:treeBytes+(idx+1)*w], &key, idx, padDomainMsg)
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
