package ot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var (
	// ErrBadIndex reports a choice index outside [0, n).
	ErrBadIndex = errors.New("ot: choice index out of range")
	// ErrBadMessage reports malformed or inconsistent protocol messages.
	ErrBadMessage = errors.New("ot: malformed protocol message")
	// ErrMessageLen reports sender messages of unequal length.
	ErrMessageLen = errors.New("ot: all sender messages must have equal length")
)

// SenderSetup is the sender's first message of a 1-out-of-n transfer: the
// n-1 random group elements C_1..C_{n-1} that constrain the receiver's
// public keys.
type SenderSetup struct {
	Cs []*big.Int
}

// ReceiverChoice is the receiver's message: the single public key PK_0 from
// which the sender derives all n per-index keys. PK_0 is uniform in the
// group regardless of the chosen index, which is what hides the choice.
type ReceiverChoice struct {
	PK0 *big.Int
}

// SenderTransfer is the sender's final message: the ephemeral value
// R = g^r and one ciphertext per message of every instance of the batch,
// instance i's message j at slot i·n + j.
type SenderTransfer struct {
	R   *big.Int
	Cts [][]byte
}

// The four protocol steps below — the sender's setupFor and respondAll,
// the receiver's chooseAll and recoverAll — each run one batch: the
// batched form of Naor–Pinkas (Naor & Pinkas, SODA 2001), whose m
// instances share one set of constraints C_1..C_{n−1} and one ephemeral r.
// Instance i's key for message j, [r]·PK_{i,j}, is bound to the instance by
// deriving its pad with slot i·n + j. The single-transfer API is a batch
// of one, whose transcript is that of the unbatched protocol; a k-out-of-n
// is one batch of k and the IKNP base phase one batch of κ. For a batch of
// m instances the steps cost (scalar multiplications and decodes):
//
//	setupFor    n−1 fixed-base (the C_j)
//	chooseAll   m fixed-base (g^x_i); n−1 decodes
//	respondAll  n fixed-base (R, the C_j^r), m variable-base (PK_{i,0}^r); m decodes
//	recoverAll  m multiplications of R, from one table of R once m is large; 1 decode
//
// Every step draws its randomness first (so every message is a function of
// the rng stream alone), decodes what it received, does its group
// arithmetic on decoded elements and encodes everything it sends or hashes
// in a single Group.Encode call.

// Sender runs the sender role of a batch of Naor–Pinkas 1-out-of-n
// transfers.
type Sender struct {
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

func copyMessages(msgs [][]byte) [][]byte {
	copied := make([][]byte, len(msgs))
	for i, m := range msgs {
		copied[i] = append([]byte(nil), m...)
	}
	return copied
}

// drawSender draws the constraint seeds of one batch. msgs holds each
// instance's messages, all validated and of one count; it is retained, not
// copied.
func drawSender(group Group, msgs [][][]byte, rng io.Reader) (*Sender, error) {
	seeds := make([]*big.Int, len(msgs[0])-1)
	for i := range seeds {
		seed, err := group.RandomElementSeed(rng)
		if err != nil {
			return nil, err
		}
		seeds[i] = seed
	}
	return &Sender{group: group, msgs: msgs, seeds: seeds}, nil
}

// NewSender prepares a transfer of the given messages (all the same
// length) and returns the setup message for the receiver.
func NewSender(group Group, msgs [][]byte, rng io.Reader) (*Sender, *SenderSetup, error) {
	if err := checkMessages(msgs); err != nil {
		return nil, nil, err
	}
	s, err := drawSender(group, [][][]byte{copyMessages(msgs)}, rng)
	if err != nil {
		return nil, nil, err
	}
	setup, err := setupFor(s)
	if err != nil {
		return nil, nil, err
	}
	return s, setup, nil
}

// setupFor finishes the batch's seeds into constraint elements and encodes
// them.
func setupFor(s *Sender) (*SenderSetup, error) {
	elems := make([]Element, len(s.seeds))
	for j, seed := range s.seeds {
		elems[j] = s.group.ElementFromSeed(seed)
	}
	wire, err := s.group.Encode(elems)
	if err != nil {
		return nil, err
	}
	return &SenderSetup{Cs: wire}, nil
}

// Respond consumes the receiver's choice and produces the ciphertexts.
func (s *Sender) Respond(choice *ReceiverChoice, rng io.Reader) (*SenderTransfer, error) {
	return respondAll(s, []*ReceiverChoice{choice}, rng)
}

// respondAll answers the batch's choices, one per instance.
func respondAll(s *Sender, choices []*ReceiverChoice, rng io.Reader) (*SenderTransfer, error) {
	group, n := s.group, len(s.msgs[0])
	if len(choices) != len(s.msgs) {
		return nil, fmt.Errorf("%w: %d choices for %d instances", ErrBadMessage, len(choices), len(s.msgs))
	}
	r, err := group.RandomScalar(rng)
	if err != nil {
		return nil, instanceErr(0, err)
	}
	pk0s := make([]Element, len(choices))
	for i, c := range choices {
		if c == nil {
			return nil, instanceErr(i, fmt.Errorf("%w: missing choice", ErrBadMessage))
		}
		pk0, err := group.Decode(c.PK0)
		if err != nil {
			return nil, instanceErr(i, fmt.Errorf("invalid PK0: %w", err))
		}
		pk0s[i] = pk0
	}
	// R = g^r, then the n key elements PK_{i,j}^r of each instance in slot
	// order.
	elems := make([]Element, 1+len(pk0s)*n)
	elems[0] = group.ExpG(r)
	cr := make([]Element, len(s.seeds))
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
			cts[slot] = xorKeystream(group, wire[1+slot], slot, m)
		}
	}
	return &SenderTransfer{R: wire[0], Cts: cts}, nil
}

// Receiver runs the receiver role of a batch of 1-out-of-n transfers.
type Receiver struct {
	group  Group
	n      int
	sigmas []int
	xs     []*big.Int // secret exponents; instance i's PK_{i,sigma_i} = g^x_i
}

// NewReceiver prepares the receiver's choice of index sigma among n
// messages, given the sender's setup.
func NewReceiver(group Group, n, sigma int, setup *SenderSetup, rng io.Reader) (*Receiver, *ReceiverChoice, error) {
	receiver, choices, err := chooseAll(group, n, []int{sigma}, setup, rng)
	if err != nil {
		return nil, nil, err
	}
	return receiver, choices[0], nil
}

// chooseAll prepares the batch's choices sigmas among n messages against
// the one setup, returning one choice per instance.
func chooseAll(group Group, n int, sigmas []int, setup *SenderSetup, rng io.Reader) (*Receiver, []*ReceiverChoice, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("ot: need at least 2 messages, got %d", n)
	}
	if setup == nil || len(setup.Cs) != n-1 {
		return nil, nil, instanceErr(0, fmt.Errorf("%w: setup must carry %d constraints", ErrBadMessage, n-1))
	}
	rc := &Receiver{group: group, n: n, sigmas: sigmas, xs: make([]*big.Int, len(sigmas))}
	for i, sigma := range sigmas {
		if sigma < 0 || sigma >= n {
			return nil, nil, instanceErr(i, fmt.Errorf("%w: sigma=%d n=%d", ErrBadIndex, sigma, n))
		}
		x, err := group.RandomScalar(rng)
		if err != nil {
			return nil, nil, instanceErr(i, err)
		}
		rc.xs[i] = x
	}
	// Every constraint is decoded — that is its validation — though only
	// the chosen ones enter the arithmetic.
	cs := make([]Element, n-1)
	for j, c := range setup.Cs {
		e, err := group.Decode(c)
		if err != nil {
			return nil, nil, instanceErr(0, fmt.Errorf("invalid constraint element: %w", err))
		}
		cs[j] = e
	}
	pk0s := make([]Element, len(sigmas))
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
	choices := make([]*ReceiverChoice, len(wire))
	for i := range choices {
		choices[i] = &ReceiverChoice{PK0: wire[i]}
	}
	return rc, choices, nil
}

// Recover decrypts the chosen message from the sender's transfer.
func (r *Receiver) Recover(tr *SenderTransfer) ([]byte, error) {
	out, err := recoverAll(r, tr)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// recoverAll decrypts the chosen message of every instance of the batch.
func recoverAll(rc *Receiver, tr *SenderTransfer) ([][]byte, error) {
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
	// PK_{i,sigma_i} = g^x_i in both branches of chooseAll, so its key
	// PK_{i,sigma_i}^r is R^x_i: one base, many exponents.
	wire, err := group.Encode(group.ExpMany(bigR, rc.xs))
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(rc.sigmas))
	for i, sigma := range rc.sigmas {
		slot := i*rc.n + sigma
		out[i] = xorKeystream(group, wire[i], slot, tr.Cts[slot])
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
func xorKeystream(group Group, elem *big.Int, slot int, in []byte) []byte {
	if kdfTrace != nil {
		kdfTrace(slot, elem)
	}
	eb := make([]byte, group.ElementLen())
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
