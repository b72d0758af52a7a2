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
// R = g^r and one ciphertext per message of every instance of the batch,
// instance i's message j at slot i·n + j.
type SenderTransfer struct {
	R   *big.Int
	Cts [][]byte
}

// The four protocol steps below — the sender's setupsFor and respondAll,
// the receiver's chooseAll and recoverAll — each take a slice of batches.
// A batch is the batched form of Naor–Pinkas: its instances share one set
// of constraints C_1..C_{n−1} and one ephemeral r, and instance i's key for
// message j, [r]·PK_{i,j}, is bound to the instance by deriving its pad
// with slot i·n + j. The single-transfer API and each of the k instances
// of a k-out-of-n are batches of one, whose transcripts are those of the
// unbatched protocol; the IKNP base phase is one batch of κ. For a batch
// of m instances the steps cost (scalar multiplications and decodes):
//
//	setupsFor   n−1 fixed-base (the C_j)
//	chooseAll   m fixed-base (g^x_i); n−1 decodes
//	respondAll  n fixed-base (R, the C_j^r), m variable-base (PK_{i,0}^r); m decodes
//	recoverAll  m multiplications of R, from one table of R once m is large; 1 decode
//
// Every step draws its randomness serially and first (so the rng stream,
// and hence every message, is the same at any GOMAXPROCS), decodes what
// it received and does its group arithmetic on decoded elements inside the
// worker pool, one batch per task, and encodes everything it sends or
// hashes in a single Group.Encode call.

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
	setups, err := setupsFor([]*Sender{s})
	if err != nil {
		return nil, nil, err
	}
	return s, setups[0], nil
}

// setupsFor finishes each batch's seeds into constraint elements and
// encodes them. All senders share one group and one message count.
func setupsFor(senders []*Sender) ([]*SenderSetup, error) {
	group, stride := senders[0].group, len(senders[0].seeds)
	elems := make([]Element, len(senders)*stride)
	_ = parallel.For(len(senders), func(i int) error {
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
	transfers, err := respondAll([]*Sender{s}, []*ReceiverChoice{choice}, rng)
	if err != nil {
		return nil, err
	}
	return transfers[0], nil
}

// batchStarts returns the index of each batch's first instance in the
// flat instance order, plus the total instance count at the end.
func batchStarts[B any](batches []B, size func(B) int) []int {
	starts := make([]int, len(batches)+1)
	for b, batch := range batches {
		starts[b+1] = starts[b] + size(batch)
	}
	return starts
}

// respondAll answers the choices with the senders' batches: choices holds
// one choice per instance, batch by batch. All senders share one group and
// one message count.
func respondAll(senders []*Sender, choices []*ReceiverChoice, rng io.Reader) ([]*SenderTransfer, error) {
	group, n := senders[0].group, len(senders[0].msgs[0])
	starts := batchStarts(senders, func(s *Sender) int { return len(s.msgs) })
	if len(choices) != starts[len(senders)] {
		return nil, fmt.Errorf("%w: %d choices for %d instances", ErrBadMessage, len(choices), starts[len(senders)])
	}
	rs := make([]*big.Int, len(senders))
	for b := range rs {
		r, err := group.RandomScalar(rng)
		if err != nil {
			return nil, instanceErr(starts[b], err)
		}
		rs[b] = r
	}
	// Per batch: R = g^r, then the n key elements PK_{i,j}^r of each
	// instance in slot order.
	elemRange := func(b int) (int, int) { return b + starts[b]*n, b + 1 + starts[b+1]*n }
	elems := make([]Element, len(senders)+starts[len(senders)]*n)
	err := parallel.For(len(senders), func(b int) error {
		s, r := senders[b], rs[b]
		pk0s := make([]Element, len(s.msgs))
		for i := range pk0s {
			c := choices[starts[b]+i]
			if c == nil {
				return instanceErr(starts[b]+i, fmt.Errorf("%w: missing choice", ErrBadMessage))
			}
			pk0, err := group.Decode(c.PK0)
			if err != nil {
				return instanceErr(starts[b]+i, fmt.Errorf("invalid PK0: %w", err))
			}
			pk0s[i] = pk0
		}
		lo, hi := elemRange(b)
		out := elems[lo:hi]
		out[0] = group.ExpG(r)
		cr := make([]Element, len(s.seeds))
		for j, seed := range s.seeds {
			cr[j] = group.ExpSeed(seed, r)
		}
		for i, pk0 := range pk0s {
			// PK_{i,j} = C_j / PK_{i,0}, so PK_{i,j}^r = C_j^r · (PK_{i,0}^r)^{-1}.
			keys := out[1+i*n : 1+(i+1)*n]
			keys[0] = group.Exp(pk0, r)
			inv := group.Inv(keys[0])
			for j := range cr {
				keys[1+j] = group.Mul(cr[j], inv)
			}
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
	_ = parallel.For(len(senders), func(b int) error {
		lo, hi := elemRange(b)
		w := wire[lo:hi]
		cts := make([][]byte, len(senders[b].msgs)*n)
		for i, msgs := range senders[b].msgs {
			for j, m := range msgs {
				slot := i*n + j
				cts[slot] = xorKeystream(group, w[1+slot], slot, m)
			}
		}
		transfers[b] = &SenderTransfer{R: w[0], Cts: cts}
		return nil
	})
	return transfers, nil
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
	receivers, choices, err := chooseAll(group, n, [][]int{{sigma}}, []*SenderSetup{setup}, rng)
	if err != nil {
		return nil, nil, err
	}
	return receivers[0], choices[0], nil
}

// chooseAll prepares, for each batch b, the choices sigmas[b] among n
// messages against setups[b], returning one choice per instance, batch by
// batch.
func chooseAll(group Group, n int, sigmas [][]int, setups []*SenderSetup, rng io.Reader) ([]*Receiver, []*ReceiverChoice, error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("ot: need at least 2 messages, got %d", n)
	}
	starts := batchStarts(sigmas, func(s []int) int { return len(s) })
	receivers := make([]*Receiver, len(sigmas))
	for b, batch := range sigmas {
		if setups[b] == nil || len(setups[b].Cs) != n-1 {
			return nil, nil, instanceErr(starts[b], fmt.Errorf("%w: setup must carry %d constraints", ErrBadMessage, n-1))
		}
		rc := &Receiver{group: group, n: n, sigmas: batch, xs: make([]*big.Int, len(batch))}
		for i, sigma := range batch {
			if sigma < 0 || sigma >= n {
				return nil, nil, instanceErr(starts[b]+i, fmt.Errorf("%w: sigma=%d n=%d", ErrBadIndex, sigma, n))
			}
			x, err := group.RandomScalar(rng)
			if err != nil {
				return nil, nil, instanceErr(starts[b]+i, err)
			}
			rc.xs[i] = x
		}
		receivers[b] = rc
	}
	pk0s := make([]Element, starts[len(sigmas)])
	err := parallel.For(len(receivers), func(b int) error {
		// Every constraint is decoded — that is its validation — though
		// only the chosen ones enter the arithmetic.
		cs := make([]Element, n-1)
		for j, c := range setups[b].Cs {
			e, err := group.Decode(c)
			if err != nil {
				return instanceErr(starts[b], fmt.Errorf("invalid constraint element: %w", err))
			}
			cs[j] = e
		}
		rc := receivers[b]
		for i, sigma := range rc.sigmas {
			gx := group.ExpG(rc.xs[i])
			if sigma == 0 {
				pk0s[starts[b]+i] = gx // PK_0 = g^x itself
			} else {
				// PK_0 = C_sigma / g^x so that PK_sigma = C_sigma / PK_0 = g^x.
				pk0s[starts[b]+i] = group.Mul(cs[sigma-1], group.Inv(gx))
			}
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
	choices := make([]*ReceiverChoice, len(wire))
	for i := range choices {
		choices[i] = &ReceiverChoice{PK0: wire[i]}
	}
	return receivers, choices, nil
}

// Recover decrypts the chosen message from the sender's transfer.
func (r *Receiver) Recover(tr *SenderTransfer) ([]byte, error) {
	out, err := recoverAll([]*Receiver{r}, []*SenderTransfer{tr})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// recoverAll decrypts the chosen message of every instance, batch b from
// transfers[b], in the flat instance order. All receivers share one group.
func recoverAll(receivers []*Receiver, transfers []*SenderTransfer) ([][]byte, error) {
	group := receivers[0].group
	starts := batchStarts(receivers, func(r *Receiver) int { return len(r.sigmas) })
	keys := make([]Element, starts[len(receivers)])
	err := parallel.For(len(receivers), func(b int) error {
		rc, tr := receivers[b], transfers[b]
		if tr == nil {
			return instanceErr(starts[b], fmt.Errorf("%w: missing transfer", ErrBadMessage))
		}
		if want := len(rc.sigmas) * rc.n; len(tr.Cts) != want {
			return instanceErr(starts[b], fmt.Errorf("%w: got %d ciphertexts, want %d", ErrBadMessage, len(tr.Cts), want))
		}
		bigR, err := group.Decode(tr.R)
		if err != nil {
			return instanceErr(starts[b], fmt.Errorf("invalid R: %w", err))
		}
		// PK_{i,sigma_i} = g^x_i in both branches of chooseAll, so its key
		// PK_{i,sigma_i}^r is R^x_i: one base, many exponents.
		copy(keys[starts[b]:], group.ExpMany(bigR, rc.xs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	wire, err := group.Encode(keys)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(keys))
	for b, rc := range receivers {
		for i, sigma := range rc.sigmas {
			slot := i*rc.n + sigma
			out[starts[b]+i] = xorKeystream(group, wire[starts[b]+i], slot, transfers[b].Cts[slot])
		}
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
