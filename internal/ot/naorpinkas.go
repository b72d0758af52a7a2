package ot

import (
	"crypto/sha256"
	"crypto/subtle"
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

// The three batch messages carry group elements as their 32-byte
// encodings (Group.Decode), back to back in one blob, so every message's
// length follows from its batch's shape: m instances of a 1-out-of-n with
// messages of w bytes send (n−1)·32, m·32 and 32 + m·n·w bytes of
// elements and ciphertexts. Any other length is ErrBadMessage.

// BatchSetup is the sender's first message of a batch of Naor–Pinkas
// 1-out-of-n transfers: the n−1 random group elements C_1..C_{n−1} that
// constrain the public keys of every instance, as consecutive encodings.
type BatchSetup struct {
	Cs []byte
}

// BatchChoice is the receiver's message: one public key PK_0 per instance,
// as consecutive encodings, from which the sender derives that instance's
// n per-index keys. PK_0 is uniform in the group regardless of the chosen
// index, which is what hides the choice.
type BatchChoice struct {
	PK0s []byte
}

// BatchTransfer is the sender's final message: the encoding of the
// ephemeral value R = g^r and one ciphertext per message of every
// instance of the batch, in one blob of equal-width slots, instance i's
// message j at slot i·n + j. The slot width is the length of the
// messages, which the receiver knows in advance.
type BatchTransfer struct {
	R   []byte
	Cts []byte
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
// Every step checks the length of what it received, draws its randomness
// (so every message is a function of the rng stream alone), decodes what
// it received, does its group arithmetic on decoded elements and encodes
// everything it sends or hashes in a single Group.Encode call.

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
	enc, err := group.Encode(elems)
	if err != nil {
		return nil, nil, err
	}
	return &BatchSender{group: group, msgs: msgs, seeds: seeds}, &BatchSetup{Cs: enc}, nil
}

// respond answers the batch's public keys, one per instance.
func (s *BatchSender) respond(pk0Wire []byte, rng io.Reader) (*BatchTransfer, error) {
	group, n := s.group, len(s.msgs[0])
	if len(pk0Wire) != len(s.msgs)*ec25519.PointLen {
		return nil, fmt.Errorf("%w: %d bytes of public keys for %d instances", ErrBadMessage, len(pk0Wire), len(s.msgs))
	}
	r, err := group.RandomScalar(rng)
	if err != nil {
		return nil, instanceErr(0, err)
	}
	pk0s := make([]*ec25519.Point, len(s.msgs))
	for i := range pk0s {
		pk0, err := group.Decode(element(pk0Wire, i))
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
	enc, err := group.Encode(elems)
	if err != nil {
		return nil, err
	}
	width := len(s.msgs[0][0])
	cts := make([]byte, len(pk0s)*n*width)
	for i, msgs := range s.msgs {
		for j, m := range msgs {
			slot := i*n + j
			xorKeystream(cts[slot*width:(slot+1)*width], element(enc, 1+slot), slot, m)
		}
	}
	return &BatchTransfer{R: element(enc, 0), Cts: cts}, nil
}

// element returns the i-th encoding of a blob of consecutive encodings.
func element(blob []byte, i int) []byte {
	return blob[i*ec25519.PointLen : (i+1)*ec25519.PointLen : (i+1)*ec25519.PointLen]
}

// BatchReceiver runs the receiver role of a batch of 1-out-of-n transfers.
type BatchReceiver struct {
	group  Group
	n      int
	msgLen int // bytes per message, so the transfer's blob is len(sigmas)·n·msgLen
	sigmas []int
	xs     []*big.Int // secret exponents; instance i's PK_{i,sigma_i} = g^x_i
}

// newBatchReceiver prepares the batch's choices sigmas among n ≥ 2
// messages of msgLen bytes against the one setup, one public key per
// instance. The caller has checked every sigma against n.
func newBatchReceiver(group Group, n, msgLen int, sigmas []int, setup *BatchSetup, rng io.Reader) (*BatchReceiver, *BatchChoice, error) {
	if setup == nil || len(setup.Cs) != (n-1)*ec25519.PointLen {
		return nil, nil, instanceErr(0, fmt.Errorf("%w: setup must carry %d constraints", ErrBadMessage, n-1))
	}
	rc := &BatchReceiver{group: group, n: n, msgLen: msgLen, sigmas: sigmas, xs: make([]*big.Int, len(sigmas))}
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
	for j := range cs {
		e, err := group.Decode(element(setup.Cs, j))
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
	enc, err := group.Encode(pk0s)
	if err != nil {
		return nil, nil, err
	}
	return rc, &BatchChoice{PK0s: enc}, nil
}

// recover decrypts the chosen message of every instance of the batch.
func (rc *BatchReceiver) recover(tr *BatchTransfer) ([][]byte, error) {
	group := rc.group
	if tr == nil {
		return nil, instanceErr(0, fmt.Errorf("%w: missing transfer", ErrBadMessage))
	}
	width := rc.msgLen
	if want := len(rc.sigmas) * rc.n * width; len(tr.Cts) != want {
		return nil, instanceErr(0, fmt.Errorf("%w: %d ciphertext bytes, want %d", ErrBadMessage, len(tr.Cts), want))
	}
	bigR, err := group.Decode(tr.R)
	if err != nil {
		return nil, instanceErr(0, fmt.Errorf("invalid R: %w", err))
	}
	// PK_{i,sigma_i} = g^x_i in both branches of newBatchReceiver, so its
	// key PK_{i,sigma_i}^r is R^x_i: one base, many exponents.
	keys, err := group.Encode(group.ExpMany(bigR, rc.xs))
	if err != nil {
		return nil, err
	}
	flat := make([]byte, len(rc.sigmas)*width)
	out := make([][]byte, len(rc.sigmas))
	for i, sigma := range rc.sigmas {
		slot := i*rc.n + sigma
		out[i] = flat[i*width : (i+1)*width : (i+1)*width]
		xorKeystream(out[i], element(keys, i), slot, tr.Cts[slot*width:(slot+1)*width])
	}
	return out, nil
}

func instanceErr(i int, err error) error {
	return fmt.Errorf("ot: instance %d: %w", i, err)
}

// kdfTrace, when set, sees the (slot, key encoding) input of every
// xorKeystream call. Tests set it to check that a batch never feeds the
// KDF one input twice; when nil it costs one comparison.
var kdfTrace func(slot int, key []byte)

// kdfDomain separates the transfer KDF's hashes from every other use of
// SHA-256.
const kdfDomain = "ppdc-ot-kdf-v1"

// xorKeystream writes in XOR a keystream into dst (len(dst) = len(in)).
// The keystream is SHA-256 in counter mode over a key element's encoding,
// domain-separated by the slot (the message index within its batch).
func xorKeystream(dst, key []byte, slot int, in []byte) {
	if kdfTrace != nil {
		kdfTrace(slot, key)
	}
	// One block buffer: the domain, the key, then the slot and the
	// counter, which is the only part that changes between blocks.
	var block [len(kdfDomain) + ec25519.PointLen + 8]byte
	n := copy(block[:], kdfDomain)
	n += copy(block[n:], key)
	binary.BigEndian.PutUint32(block[n:], uint32(slot))
	for off, counter := 0, uint32(0); off < len(in); counter++ {
		binary.BigEndian.PutUint32(block[n+4:], counter)
		pad := sha256.Sum256(block[:])
		off += subtle.XORBytes(dst[off:], in[off:], pad[:])
	}
}
