package ot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"

	"repro/internal/parallel"
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
// R = g^r and one ciphertext per message.
type SenderTransfer struct {
	R   *big.Int
	Cts [][]byte
}

// The four protocol steps below — the sender's setupsFor and respondAll,
// the receiver's chooseAll and recoverAll — each take a slice of
// independent instances: one for the single-transfer API, k for a
// k-out-of-n batch, κ for the IKNP base phase. Every step draws its
// randomness serially and first (so the rng stream, and hence every
// message, is the same at any parallelism), decodes what it received and
// does its group arithmetic on decoded elements inside the worker pool,
// and encodes everything it sends or hashes in a single Group.Encode call.

// Sender runs the sender role of a Naor–Pinkas 1-out-of-n transfer.
type Sender struct {
	group Group
	msgs  [][]byte
	// seeds[i-1] is the randomness behind constraint C_i. The sender keeps
	// it instead of the element: C_i^r is then Group.ExpSeed(seed, r).
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

// drawSender draws the constraint seeds of one instance. msgs must be
// validated and is retained, not copied.
func drawSender(group Group, msgs [][]byte, rng io.Reader) (*Sender, error) {
	seeds := make([]*big.Int, len(msgs)-1)
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
	s, err := drawSender(group, copyMessages(msgs), rng)
	if err != nil {
		return nil, nil, err
	}
	setups, err := setupsFor([]*Sender{s}, 1)
	if err != nil {
		return nil, nil, err
	}
	return s, setups[0], nil
}

// setupsFor finishes the senders' seeds into constraint elements and
// encodes them. All senders share one group and one message count.
func setupsFor(senders []*Sender, par int) ([]*SenderSetup, error) {
	group, stride := senders[0].group, len(senders[0].seeds)
	elems := make([]Element, len(senders)*stride)
	_ = parallel.For(par, len(senders), func(i int) error {
		for j, seed := range senders[i].seeds {
			elems[i*stride+j] = group.ElementFromSeed(seed)
		}
		return nil
	})
	wire, err := group.Encode(elems)
	if err != nil {
		return nil, err
	}
	setups := make([]*SenderSetup, len(senders))
	for i := range setups {
		setups[i] = &SenderSetup{Cs: wire[i*stride : (i+1)*stride : (i+1)*stride]}
	}
	return setups, nil
}

// Respond consumes the receiver's choice and produces the ciphertexts.
func (s *Sender) Respond(choice *ReceiverChoice, rng io.Reader) (*SenderTransfer, error) {
	transfers, err := respondAll([]*Sender{s}, []*ReceiverChoice{choice}, 1, rng)
	if err != nil {
		return nil, err
	}
	return transfers[0], nil
}

// respondAll answers choices[i] with senders[i]. All senders share one
// group and one message count.
func respondAll(senders []*Sender, choices []*ReceiverChoice, par int, rng io.Reader) ([]*SenderTransfer, error) {
	group, n := senders[0].group, len(senders[0].msgs)
	rs := make([]*big.Int, len(senders))
	for i := range rs {
		r, err := group.RandomScalar(rng)
		if err != nil {
			return nil, instanceErr(i, err)
		}
		rs[i] = r
	}
	// Per instance: R = g^r, then the key element PK_i^r of each message.
	stride := 1 + n
	elems := make([]Element, len(senders)*stride)
	err := parallel.For(par, len(senders), func(i int) error {
		if choices[i] == nil {
			return instanceErr(i, fmt.Errorf("%w: missing choice", ErrBadMessage))
		}
		pk0, err := group.Decode(choices[i].PK0)
		if err != nil {
			return instanceErr(i, fmt.Errorf("invalid PK0: %w", err))
		}
		out, r := elems[i*stride:(i+1)*stride], rs[i]
		out[0] = group.ExpG(r)
		// PK_i = C_i / PK_0, so PK_i^r = C_i^r * (PK_0^r)^{-1}.
		pk0r := group.Exp(pk0, r)
		pk0rInv := group.Inv(pk0r)
		out[1] = pk0r
		for j, seed := range senders[i].seeds {
			out[2+j] = group.Mul(group.ExpSeed(seed, r), pk0rInv)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	wire, err := group.Encode(elems)
	if err != nil {
		return nil, err
	}
	transfers := make([]*SenderTransfer, len(senders))
	_ = parallel.For(par, len(senders), func(i int) error {
		w, msgs := wire[i*stride:(i+1)*stride], senders[i].msgs
		cts := make([][]byte, n)
		for j, m := range msgs {
			cts[j] = xorKeystream(group, w[1+j], j, m)
		}
		transfers[i] = &SenderTransfer{R: w[0], Cts: cts}
		return nil
	})
	return transfers, nil
}

// Receiver runs the receiver role of a 1-out-of-n transfer.
type Receiver struct {
	group Group
	n     int
	sigma int
	x     *big.Int // secret exponent; PK_sigma = g^x
}

// NewReceiver prepares the receiver's choice of index sigma among n
// messages, given the sender's setup.
func NewReceiver(group Group, n, sigma int, setup *SenderSetup, rng io.Reader) (*Receiver, *ReceiverChoice, error) {
	receivers, choices, err := chooseAll(group, n, []int{sigma}, []*SenderSetup{setup}, 1, rng)
	if err != nil {
		return nil, nil, err
	}
	return receivers[0], choices[0], nil
}

// chooseAll prepares the choice of sigmas[i] among n messages against
// setups[i].
func chooseAll(group Group, n int, sigmas []int, setups []*SenderSetup, par int, rng io.Reader) ([]*Receiver, []*ReceiverChoice, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("ot: need at least 2 messages, got %d", n)
	}
	receivers := make([]*Receiver, len(sigmas))
	for i, sigma := range sigmas {
		if sigma < 0 || sigma >= n {
			return nil, nil, instanceErr(i, fmt.Errorf("%w: sigma=%d n=%d", ErrBadIndex, sigma, n))
		}
		if setups[i] == nil || len(setups[i].Cs) != n-1 {
			return nil, nil, instanceErr(i, fmt.Errorf("%w: setup must carry %d constraints", ErrBadMessage, n-1))
		}
		x, err := group.RandomScalar(rng)
		if err != nil {
			return nil, nil, instanceErr(i, err)
		}
		receivers[i] = &Receiver{group: group, n: n, sigma: sigma, x: x}
	}
	pk0s := make([]Element, len(sigmas))
	err := parallel.For(par, len(sigmas), func(i int) error {
		// Every constraint is decoded — that is its validation — though
		// only C_sigma enters the arithmetic.
		var cSigma Element
		for j, c := range setups[i].Cs {
			e, err := group.Decode(c)
			if err != nil {
				return instanceErr(i, fmt.Errorf("invalid constraint element: %w", err))
			}
			if j == sigmas[i]-1 {
				cSigma = e
			}
		}
		gx := group.ExpG(receivers[i].x)
		if cSigma == nil {
			pk0s[i] = gx // sigma = 0: PK_0 = g^x itself
		} else {
			// PK_0 = C_sigma / g^x so that PK_sigma = C_sigma / PK_0 = g^x.
			pk0s[i] = group.Mul(cSigma, group.Inv(gx))
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	wire, err := group.Encode(pk0s)
	if err != nil {
		return nil, nil, err
	}
	choices := make([]*ReceiverChoice, len(sigmas))
	for i := range choices {
		choices[i] = &ReceiverChoice{PK0: wire[i]}
	}
	return receivers, choices, nil
}

// Recover decrypts the chosen message from the sender's transfer.
func (r *Receiver) Recover(tr *SenderTransfer) ([]byte, error) {
	out, err := recoverAll([]*Receiver{r}, []*SenderTransfer{tr}, 1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// recoverAll decrypts the chosen message of each transfer. All receivers
// share one group.
func recoverAll(receivers []*Receiver, transfers []*SenderTransfer, par int) ([][]byte, error) {
	group := receivers[0].group
	keys := make([]Element, len(receivers))
	err := parallel.For(par, len(receivers), func(i int) error {
		r, tr := receivers[i], transfers[i]
		if tr == nil {
			return instanceErr(i, fmt.Errorf("%w: missing transfer", ErrBadMessage))
		}
		if len(tr.Cts) != r.n {
			return instanceErr(i, fmt.Errorf("%w: got %d ciphertexts, want %d", ErrBadMessage, len(tr.Cts), r.n))
		}
		bigR, err := group.Decode(tr.R)
		if err != nil {
			return instanceErr(i, fmt.Errorf("invalid R: %w", err))
		}
		// PK_sigma = g^x in both branches of chooseAll, so PK_sigma^r = R^x.
		keys[i] = group.Exp(bigR, r.x)
		return nil
	})
	if err != nil {
		return nil, err
	}
	wire, err := group.Encode(keys)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(receivers))
	for i, r := range receivers {
		out[i] = xorKeystream(group, wire[i], r.sigma, transfers[i].Cts[r.sigma])
	}
	return out, nil
}

func instanceErr(i int, err error) error {
	return fmt.Errorf("ot: instance %d: %w", i, err)
}

// xorKeystream returns in XOR a keystream derived from a group element's
// wire form with SHA-256 in counter mode, domain-separated by the message
// index.
func xorKeystream(group Group, elem *big.Int, index int, in []byte) []byte {
	eb := make([]byte, group.ElementLen())
	elem.FillBytes(eb)
	pad := make([]byte, 0, len(in)+sha256.Size)
	var block [8]byte
	for counter := uint32(0); len(pad) < len(in); counter++ {
		h := sha256.New()
		h.Write([]byte("ppdc-ot-kdf-v1"))
		h.Write(eb)
		binary.BigEndian.PutUint32(block[:4], uint32(index))
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
