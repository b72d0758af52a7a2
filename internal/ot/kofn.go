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
// bound to slots i·n + m. Each message is sent once. The sender draws one
// fresh 16-byte key K_m per message m, sends m once under a pad of K_m,
// and instance i carries only K_m, padded under its slot key i·n + m.
// The transfer's Cts is the once-sent block sealOnceSent writes, the
// layout the extended k-of-n's samples share (extkofn.go):
//
//	[0, k·n·16)               instance i's K_m at [(i·n+m)·16, +16)
//	[k·n·16, k·n·16 + n·w)    message m under K_m at k·n·16 + m·w
//
// A receiver opens one K_m per instance with the one slot key it holds,
// so at most k messages, as in extkofn.go. One layout serves every k,
// with no switch on size: against k copies of every message it saves
// (k−1)·n·w − k·n·16 bytes, which is 16·n bytes more at k = 1, as many
// or fewer at k = 2 with w ≥ 32, and fewer at every k ≥ 3 with w > 24.
// No transfer served at the defaults has k < 3 or w < 32. A 1-out-of-n
// is the batch of one.

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
// public key per instance, and sends every message once. The message
// keys are drawn after r, n·16 bytes in one read.
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
	msgKeys, err := drawMsgKeys(s.n, rng)
	if err != nil {
		return nil, err
	}
	cts := make([]byte, len(slotKeys)+s.n*len(s.msgs[0]))
	sealOnceSent(cts, slotKeys, msgKeys, s.msgs)
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
// must carry exactly k·n·16 + n·msgLen ciphertext bytes; any other length
// is refused before anything is sized by it.
func (rc *BatchReceiver) Recover(tr *BatchTransfer) ([][]byte, error) {
	span := obs.Start(obs.PhaseOTReceiverRecover)
	defer span.End()
	if tr == nil {
		return nil, instanceErr(0, fmt.Errorf("%w: missing transfer", ErrBadMessage))
	}
	k, n, w := len(rc.sigmas), rc.n, rc.msgLen
	if want := k*n*treeKeyLen + n*w; len(tr.Cts) != want {
		return nil, instanceErr(0, fmt.Errorf("%w: %d ciphertext bytes, want k·n·16 + n·w = %d", ErrBadMessage, len(tr.Cts), want))
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

// drawMsgKeys draws count 16-byte message keys K_m in one read.
func drawMsgKeys(count int, rng io.Reader) ([]byte, error) {
	keys := make([]byte, count*treeKeyLen)
	if _, err := io.ReadFull(rng, keys); err != nil {
		return nil, err
	}
	if freshTrace != nil {
		for off := 0; off < len(keys); off += treeKeyLen {
			freshTrace(keys[off : off+treeKeyLen])
		}
	}
	return keys, nil
}

// sealOnceSent writes the once-sent block of one k-of-n transfer into dst,
// k·n·16 + n·w bytes for n messages of w bytes: instance i's copy of
// message key K_m, padded under the 16-byte seed at seeds[(i·n+m)·16:],
// at [(i·n+m)·16, +16), then message m under K_m at k·n·16 + m·w. The
// seeds are the slot keys of a Naor–Pinkas batch, or the path digests of
// one extended sample's trees (extkofn.go); msgKeys holds the n K_m.
func sealOnceSent(dst, seeds, msgKeys []byte, msgs [][]byte) {
	n, w := len(msgs), len(msgs[0])
	treeBytes := len(seeds)
	s := mmoPool.Get().(*mmoScratch)
	for slot := 0; slot < treeBytes/treeKeyLen; slot++ {
		m := slot % n
		s.xorPad(dst[slot*treeKeyLen:(slot+1)*treeKeyLen], msgKeys[m*treeKeyLen:(m+1)*treeKeyLen],
			(*[treeKeyLen]byte)(seeds[slot*treeKeyLen:]), m, padDomainTree)
	}
	for m, msg := range msgs {
		s.xorPad(dst[treeBytes+m*w:treeBytes+(m+1)*w], msg, (*[treeKeyLen]byte)(msgKeys[m*treeKeyLen:]), m, padDomainMsg)
	}
	mmoPool.Put(s)
}

// openOnceSent decrypts message idx of a once-sent block into dst
// (len(dst) = w): instance i opens K_idx from its slot with seed, the
// pad seed it holds for idx, then the message with K_idx.
func (s *mmoScratch) openOnceSent(dst, block []byte, seed *[treeKeyLen]byte, n, i, idx int) {
	w := len(dst)
	treeBytes := len(block) - n*w
	slot := i*n + idx
	var key [treeKeyLen]byte
	s.xorPad(key[:], block[slot*treeKeyLen:(slot+1)*treeKeyLen], seed, idx, padDomainTree)
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
