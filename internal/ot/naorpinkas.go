package ot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/ec25519"
)

var (
	// ErrBadIndex reports a choice index outside [0, n), or a choice of
	// k ∉ [1, n] indices.
	ErrBadIndex = errors.New("ot: choice index out of range")
	// ErrBadMessage reports malformed or inconsistent protocol messages.
	ErrBadMessage = errors.New("ot: malformed protocol message")
	// ErrMessageLen reports sender messages of unequal length.
	ErrMessageLen = errors.New("ot: all sender messages must have equal length")
)

// BatchSetup is the sender's first message of a batch of Naor–Pinkas
// 1-out-of-n transfers: the n−1 random group elements C_1..C_{n−1} that
// constrain the public keys of every instance.
type BatchSetup struct {
	Cs []*big.Int
}

// BatchChoice is the receiver's message: one public key PK_0 per instance,
// from which the sender derives that instance's n per-index keys. PK_0 is
// uniform in the group regardless of the chosen index, which is what
// hides the choice.
type BatchChoice struct {
	PK0s []*big.Int
}

// BatchTransfer is the sender's final message: the ephemeral value
// R = g^r and one ciphertext per message of every instance of the batch,
// instance i's message j at slot i·n + j.
type BatchTransfer struct {
	R   *big.Int
	Cts [][]byte
}

// The four protocol steps below — the sender's newBatchSender and
// respond, the receiver's newBatchReceiver and recover — each run one
// batch: the batched form of Naor–Pinkas (Naor & Pinkas, SODA 2001), whose
// m instances share one set of constraints C_1..C_{n−1} and one ephemeral
// r. Instance i's key for message j, [r]·PK_{i,j}, is bound to the
// instance by deriving its pad with slot i·n + j. A k-out-of-n is one
// batch of k (kofn.go; a 1-out-of-n is TransferKofN with one index, whose
// transcript is that of the unbatched protocol) and the IKNP base phase
// one batch of κ. For a batch of m instances the steps cost (scalar
// multiplications and decodes):
//
//	newBatchSender    n−1 fixed-base (the C_j)
//	newBatchReceiver  m fixed-base (g^x_i); n−1 decodes
//	respond           n fixed-base (R, the C_j^r), m variable-base (PK_{i,0}^r); m decodes
//	recover           m multiplications of R, from one table of R once m is large; 1 decode
//
// Every step draws its randomness first (so every message is a function of
// the rng stream alone), decodes what it received, does its group
// arithmetic on decoded elements and encodes everything it sends or hashes
// in a single Group.Encode call.

// BatchSender runs the sender role of a batch of Naor–Pinkas 1-out-of-n
// transfers.
type BatchSender struct {
	group Group
	msgs  [][][]byte // msgs[i] are instance i's n messages
	// seeds[j-1] is the randomness behind constraint C_j, shared by every
	// instance. The sender keeps it instead of the element: C_j^r is then
	// Group.ExpSeed(seed, r).
	seeds []*big.Int
}

// checkMessages validates a sender's message list.
func checkMessages(msgs [][]byte) error {
	if len(msgs) < 2 {
		return fmt.Errorf("ot: need at least 2 messages, got %d", len(msgs))
	}
	for _, m := range msgs[1:] {
		if len(m) != len(msgs[0]) {
			return ErrMessageLen
		}
	}
	return nil
}

// newBatchSender draws the constraint seeds of one batch and encodes its
// setup. msgs holds each instance's messages, all validated and of one
// count; it is retained, not copied.
func newBatchSender(group Group, msgs [][][]byte, rng io.Reader) (*BatchSender, *BatchSetup, error) {
	seeds := make([]*big.Int, len(msgs[0])-1)
	for i := range seeds {
		seed, err := group.RandomScalar(rng)
		if err != nil {
			return nil, nil, err
		}
		seeds[i] = seed
	}
	elems := make([]*ec25519.Point, len(seeds))
	for j, seed := range seeds {
		elems[j] = group.ElementFromSeed(seed)
	}
	wire, err := group.Encode(elems)
	if err != nil {
		return nil, nil, err
	}
	return &BatchSender{group: group, msgs: msgs, seeds: seeds}, &BatchSetup{Cs: wire}, nil
}

// respond answers the batch's public keys, one per instance.
func (s *BatchSender) respond(pk0Wire []*big.Int, rng io.Reader) (*BatchTransfer, error) {
	group, n := s.group, len(s.msgs[0])
	if len(pk0Wire) != len(s.msgs) {
		return nil, fmt.Errorf("%w: %d choices for %d instances", ErrBadMessage, len(pk0Wire), len(s.msgs))
	}
	r, err := group.RandomScalar(rng)
	if err != nil {
		return nil, instanceErr(0, err)
	}
	pk0s := make([]*ec25519.Point, len(pk0Wire))
	for i, c := range pk0Wire {
		pk0, err := group.Decode(c)
		if err != nil {
			return nil, instanceErr(i, fmt.Errorf("invalid PK0: %w", err))
		}
		pk0s[i] = pk0
	}
	// R = g^r, then the n key elements PK_{i,j}^r of each instance in slot
	// order.
	elems := make([]*ec25519.Point, 1+len(pk0s)*n)
	elems[0] = group.ExpG(r)
	cr := make([]*ec25519.Point, len(s.seeds))
	for j, seed := range s.seeds {
		cr[j] = group.ExpSeed(seed, r)
	}
	for i, pk0 := range pk0s {
		// PK_{i,j} = C_j / PK_{i,0}, so PK_{i,j}^r = C_j^r · (PK_{i,0}^r)^{-1}.
		keys := elems[1+i*n : 1+(i+1)*n]
		keys[0] = group.Exp(pk0, r)
		inv := group.Inv(keys[0])
		for j := range cr {
			keys[1+j] = group.Mul(cr[j], inv)
		}
	}
	wire, err := group.Encode(elems)
	if err != nil {
		return nil, err
	}
	cts := make([][]byte, len(pk0s)*n)
	for i, msgs := range s.msgs {
		for j, m := range msgs {
			slot := i*n + j
			cts[slot] = xorKeystream(wire[1+slot], slot, m)
		}
	}
	return &BatchTransfer{R: wire[0], Cts: cts}, nil
}

// BatchReceiver runs the receiver role of a batch of 1-out-of-n transfers.
type BatchReceiver struct {
	group  Group
	n      int
	sigmas []int
	xs     []*big.Int // secret exponents; instance i's PK_{i,sigma_i} = g^x_i
}

// newBatchReceiver prepares the batch's choices sigmas among n ≥ 2
// messages against the one setup, one public key per instance. The
// caller has checked every sigma against n.
func newBatchReceiver(group Group, n int, sigmas []int, setup *BatchSetup, rng io.Reader) (*BatchReceiver, *BatchChoice, error) {
	if setup == nil || len(setup.Cs) != n-1 {
		return nil, nil, instanceErr(0, fmt.Errorf("%w: setup must carry %d constraints", ErrBadMessage, n-1))
	}
	rc := &BatchReceiver{group: group, n: n, sigmas: sigmas, xs: make([]*big.Int, len(sigmas))}
	for i := range sigmas {
		x, err := group.RandomScalar(rng)
		if err != nil {
			return nil, nil, instanceErr(i, err)
		}
		rc.xs[i] = x
	}
	// Every constraint is decoded — that is its validation — though only
	// the chosen ones enter the arithmetic.
	cs := make([]*ec25519.Point, n-1)
	for j, c := range setup.Cs {
		e, err := group.Decode(c)
		if err != nil {
			return nil, nil, instanceErr(0, fmt.Errorf("invalid constraint element: %w", err))
		}
		cs[j] = e
	}
	pk0s := make([]*ec25519.Point, len(sigmas))
	for i, sigma := range sigmas {
		gx := group.ExpG(rc.xs[i])
		if sigma == 0 {
			pk0s[i] = gx // PK_0 = g^x itself
		} else {
			// PK_0 = C_sigma / g^x so that PK_sigma = C_sigma / PK_0 = g^x.
			pk0s[i] = group.Mul(cs[sigma-1], group.Inv(gx))
		}
	}
	wire, err := group.Encode(pk0s)
	if err != nil {
		return nil, nil, err
	}
	return rc, &BatchChoice{PK0s: wire}, nil
}

// recover decrypts the chosen message of every instance of the batch.
func (rc *BatchReceiver) recover(tr *BatchTransfer) ([][]byte, error) {
	group := rc.group
	if tr == nil {
		return nil, instanceErr(0, fmt.Errorf("%w: missing transfer", ErrBadMessage))
	}
	if want := len(rc.sigmas) * rc.n; len(tr.Cts) != want {
		return nil, instanceErr(0, fmt.Errorf("%w: got %d ciphertexts, want %d", ErrBadMessage, len(tr.Cts), want))
	}
	bigR, err := group.Decode(tr.R)
	if err != nil {
		return nil, instanceErr(0, fmt.Errorf("invalid R: %w", err))
	}
	// PK_{i,sigma_i} = g^x_i in both branches of newBatchReceiver, so its
	// key PK_{i,sigma_i}^r is R^x_i: one base, many exponents.
	wire, err := group.Encode(group.ExpMany(bigR, rc.xs))
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(rc.sigmas))
	for i, sigma := range rc.sigmas {
		slot := i*rc.n + sigma
		out[i] = xorKeystream(wire[i], slot, tr.Cts[slot])
	}
	return out, nil
}

func instanceErr(i int, err error) error {
	return fmt.Errorf("ot: instance %d: %w", i, err)
}

// kdfTrace, when set, sees the (slot, key element) input of every
// xorKeystream call. Tests set it to check that a batch never feeds the
// KDF one input twice; when nil it costs one comparison.
var kdfTrace func(slot int, elem *big.Int)

// xorKeystream returns in XOR a keystream derived from a group element's
// wire form with SHA-256 in counter mode, domain-separated by the slot
// (the message index within its batch).
func xorKeystream(elem *big.Int, slot int, in []byte) []byte {
	if kdfTrace != nil {
		kdfTrace(slot, elem)
	}
	eb := make([]byte, ec25519.PointLen)
	elem.FillBytes(eb)
	pad := make([]byte, 0, len(in)+sha256.Size)
	var block [8]byte
	for counter := uint32(0); len(pad) < len(in); counter++ {
		h := sha256.New()
		h.Write([]byte("ppdc-ot-kdf-v1"))
		h.Write(eb)
		binary.BigEndian.PutUint32(block[:4], uint32(slot))
		binary.BigEndian.PutUint32(block[4:], counter)
		h.Write(block[:])
		pad = h.Sum(pad)
	}
	out := make([]byte, len(in))
	for j := range in {
		out[j] = in[j] ^ pad[j]
	}
	return out
}
