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

// The three batch messages carry group elements as their 32-byte
// encodings (Group.Decode), back to back in one blob, so every message's
// length follows from its batch's shape: a batch of m instances of a
// 1-out-of-n sends (n−1)·32 and m·32 bytes of elements, and one R of 32.
// Any other length is ErrBadMessage. What else a transfer carries is its
// consumer's: the k-of-n's once-sent block (kofn.go), nothing in the IKNP
// base phase (iknp.go).

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
// ephemeral value R = [r]·B, and the ciphertexts the batch's keys protect.
// A k-of-n sends its n messages once, in the block of (k−1)·n 16-byte
// key ciphertexts and n messages of w bytes that sealOnceSent writes
// (kofn.go); the IKNP base phase sends none, its keys being the seeds
// themselves.
type BatchTransfer struct {
	R   []byte
	Cts []byte
}

// The four protocol steps below — the sender's newBatchSender and
// respond, the receiver's newBatchReceiver and recover — each run one
// batch of random OTs in the batched form of Naor–Pinkas (Naor & Pinkas,
// SODA 2001; the random-OT form of Asharov et al. 2013): m instances
// share one set of constraints C_1..C_{n−1} and one ephemeral r, and
// instead of encrypting messages the batch yields one 16-byte key per
// slot. The sender learns every slot's key, the receiver the key of its
// chosen slot in each instance, and a caller encrypts under them what it
// wants: a k-of-n (kofn.go) its messages, instance 0's keys being the
// message keys, and the IKNP base phase (iknp.go) nothing at all, taking
// the keys as its seeds. Slot
// i·n + j's key is the first 16 bytes of the SHA-256 KDF (slotKey) over
// the slot and the encoding of [r]·[8]PK_{i,j}, so the slot binds it to
// its instance; every received point enters the arithmetic
// cofactor-cleared (Group.Decode). For a batch of m instances the steps
// cost (scalar multiplications and decodes):
//
//	newBatchSender    n−1 fixed-base (the C_j)
//	newBatchReceiver  m fixed-base ([x_i]·B); n−1 decodes
//	respond           n fixed-base (R, the [8r]·C_j), m variable-base ([r]·[8]PK_{i,0}); m decodes
//	recover           m multiplications of [8]R, from one table once m is large; 1 decode
//
// Every step checks the length of what it received, draws its randomness
// (so every message is a function of the rng stream alone), decodes what
// it received, does its group arithmetic on decoded elements and encodes
// everything it sends or hashes in a single Group.Encode call.

// BatchSender runs the sender role of a batch of Naor–Pinkas 1-out-of-n
// random OTs.
type BatchSender struct {
	group Group
	n, m  int // messages per instance, instances
	// seeds[j-1] is the randomness behind constraint C_j, shared by every
	// instance. The sender keeps it instead of the element: [8r]·C_j is
	// then Group.ExpSeed(seed, 8r).
	seeds []*big.Int
	msgs  [][]byte // a k-of-n's n messages (kofn.go); nil in the base phase
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

// newBatchSender draws the constraint seeds of a batch of m instances over
// n ≥ 2 messages and encodes its setup.
func newBatchSender(group Group, n, m int, rng io.Reader) (*BatchSender, *BatchSetup, error) {
	seeds := make([]*big.Int, n-1)
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
	return &BatchSender{group: group, n: n, m: m, seeds: seeds}, &BatchSetup{Cs: enc}, nil
}

// respond answers the batch's public keys, one per instance, with the
// encoding of R and the m·n slot keys, slot s = i·n + j's at [16s, 16s+16).
func (s *BatchSender) respond(pk0Wire []byte, rng io.Reader) (bigR, keys []byte, err error) {
	group, n := s.group, s.n
	if len(pk0Wire) != s.m*ec25519.PointLen {
		return nil, nil, fmt.Errorf("%w: %d bytes of public keys for %d instances", ErrBadMessage, len(pk0Wire), s.m)
	}
	r, err := group.RandomScalar(rng)
	if err != nil {
		return nil, nil, instanceErr(0, err)
	}
	pk0s := make([]*ec25519.Point, s.m)
	for i := range pk0s {
		pk0, err := group.Decode(element(pk0Wire, i))
		if err != nil {
			return nil, nil, instanceErr(i, fmt.Errorf("invalid PK0: %w", err))
		}
		pk0s[i] = pk0
	}
	// R = [r]·B, then the n key elements [r]·[8]PK_{i,j} of each instance
	// in slot order.
	elems := make([]*ec25519.Point, 1+len(pk0s)*n)
	elems[0] = group.ExpG(r)
	r8 := new(big.Int).Lsh(r, 3)
	cr := make([]*ec25519.Point, len(s.seeds))
	for j, seed := range s.seeds {
		cr[j] = group.ExpSeed(seed, r8)
	}
	for i, pk0 := range pk0s {
		// PK_{i,j} = C_j − PK_{i,0}, so [r]·[8]PK_{i,j} = [8r]·C_j −
		// [r]·[8]PK_{i,0}.
		row := elems[1+i*n : 1+(i+1)*n]
		row[0] = group.Exp(pk0, r)
		inv := group.Inv(row[0])
		for j := range cr {
			row[1+j] = group.Mul(cr[j], inv)
		}
	}
	enc, err := group.Encode(elems)
	if err != nil {
		return nil, nil, err
	}
	keys = make([]byte, len(pk0s)*n*treeKeyLen)
	for slot := 0; slot < len(pk0s)*n; slot++ {
		key := keys[slot*treeKeyLen : (slot+1)*treeKeyLen]
		slotKey(key, element(enc, 1+slot), slot)
		if freshTrace != nil {
			freshTrace(key)
		}
	}
	return element(enc, 0), keys, nil
}

// element returns the i-th encoding of a blob of consecutive encodings.
func element(blob []byte, i int) []byte {
	return blob[i*ec25519.PointLen : (i+1)*ec25519.PointLen : (i+1)*ec25519.PointLen]
}

// BatchReceiver runs the receiver role of a batch of 1-out-of-n random
// OTs.
type BatchReceiver struct {
	group  Group
	n      int
	msgLen int // a k-of-n's message width w (kofn.go); 0 in the base phase
	sigmas []int
	xs     []*big.Int // secret exponents; instance i's PK_{i,sigma_i} = [x_i]·B
}

// newBatchReceiver prepares the batch's choices sigmas among n ≥ 2
// messages against the one setup, one public key per instance. The
// caller has checked every sigma against n.
func newBatchReceiver(group Group, n int, sigmas []int, setup *BatchSetup, rng io.Reader) (*BatchReceiver, *BatchChoice, error) {
	if setup == nil || len(setup.Cs) != (n-1)*ec25519.PointLen {
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
	// the chosen ones enter the arithmetic, and as received: the sender
	// clears PK_0's cofactor, so [8]PK_σ = [8]C_σ − [8]PK_0 = [8x]·B
	// whatever torsion C_σ carries.
	cs := make([]ec25519.Point, n-1)
	var cleared ec25519.Point
	for j := range cs {
		if err := decode(&cs[j], &cleared, element(setup.Cs, j)); err != nil {
			return nil, nil, instanceErr(0, fmt.Errorf("invalid constraint element: %w", err))
		}
	}
	pk0s := make([]*ec25519.Point, len(sigmas))
	for i, sigma := range sigmas {
		// PK_0 = [x]·B itself for sigma = 0, and otherwise C_sigma − [x]·B,
		// so that PK_sigma = C_sigma − PK_0 = [x]·B. The difference is
		// formed in place, so the allocations do not depend on the choice.
		pk0 := group.ExpG(rc.xs[i])
		if sigma != 0 {
			pk0.Neg(pk0).Add(&cs[sigma-1], pk0)
		}
		pk0s[i] = pk0
	}
	enc, err := group.Encode(pk0s)
	if err != nil {
		return nil, nil, err
	}
	return rc, &BatchChoice{PK0s: enc}, nil
}

// recover derives the chosen slot's key of every instance from the
// encoding of R: instance i's at [16i, 16i+16).
func (rc *BatchReceiver) recover(rWire []byte) ([]byte, error) {
	group := rc.group
	bigR, err := group.Decode(rWire)
	if err != nil {
		return nil, instanceErr(0, fmt.Errorf("invalid R: %w", err))
	}
	// [8]PK_{i,sigma_i} = [8x_i]·B in both branches of newBatchReceiver,
	// so its key [r]·[8]PK_{i,sigma_i} is [x_i]·[8]R: one base, many
	// exponents.
	enc, err := group.Encode(group.ExpMany(bigR, rc.xs))
	if err != nil {
		return nil, err
	}
	keys := make([]byte, len(rc.sigmas)*treeKeyLen)
	for i, sigma := range rc.sigmas {
		slotKey(keys[i*treeKeyLen:(i+1)*treeKeyLen], element(enc, i), i*rc.n+sigma)
	}
	return keys, nil
}

func instanceErr(i int, err error) error {
	return fmt.Errorf("ot: instance %d: %w", i, err)
}

// kdfTrace, when set, sees the (slot, key encoding) input of every
// slotKey call. Tests set it to check that a batch never feeds the KDF
// one input twice; when nil it costs one comparison.
var kdfTrace func(slot int, key []byte)

// kdfDomain separates the transfer KDF's hashes from every other use of
// SHA-256.
const kdfDomain = "ppdc-ot-kdf-v1"

// slotKey writes the 16-byte random-OT key of one slot to dst: the first
// 16 bytes of SHA-256 over the domain, the key element's encoding, the
// slot (the message index within its batch) and a zero block counter.
// Under the KDF as a random oracle, a key whose element the holder cannot
// compute is uniform to it.
func slotKey(dst, key []byte, slot int) {
	if kdfTrace != nil {
		kdfTrace(slot, key)
	}
	var block [len(kdfDomain) + ec25519.PointLen + 8]byte
	n := copy(block[:], kdfDomain)
	n += copy(block[n:], key)
	binary.BigEndian.PutUint32(block[n:], uint32(slot))
	sum := sha256.Sum256(block[:])
	copy(dst, sum[:treeKeyLen])
}
